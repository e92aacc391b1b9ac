import random
from fractions import Fraction as F
from itertools import product

import pytest

from conftest import (
    coin_pfa,
    double_strength_flipped,
    rand_channel,
    rand_convex_channel,
    rand_dist,
)
from effectfa import (
    CONVEX,
    ConvexSet,
    DIST,
    Dist,
    WeightedVec,
    bind,
    check_affine,
    check_central,
    convex_normalize,
    double_strength,
    hull_membership,
    identity_channel,
    is_pure,
    kleisli_compose,
    kleisli_pair,
    lambda_channel,
    pure_channel,
    strength_left,
    strength_right,
    unit,
    weighted,
    xi,
)
from effectfa.effects import Channel
from effectfa.errors import InterfaceError

RAT = weighted("rational")
MINPLUS = weighted("minplus")


def dirac(x):
    return Dist({x: 1})


def test_unit_values():
    assert unit(DIST, "x") == dirac("x")
    assert unit(MINPLUS, "x") == WeightedVec(MINPLUS.semiring, {"x": 0})
    assert unit(CONVEX, "x") == ConvexSet([dirac("x")])


def test_dist_must_sum_to_one():
    with pytest.raises(ValueError):
        Dist({"x": F(1, 2)})
    with pytest.raises(ValueError):
        Dist({"x": F(-1, 2), "y": F(3, 2)})


def test_dist_checks_its_mass_exactly():
    # Mass over mixed denominators, on integers; ints and rational strings
    # are wrapped.
    d = Dist({"x": F(1, 3), "y": F(1, 5), "z": F(7, 15), "w": F(0)})
    assert d.support() == ("x", "y", "z")
    assert Dist({"x": 1}).weight("x") == 1 and type(Dist({"x": 1}).weight("x")) is F
    assert Dist({"x": "1/2", "y": F(1, 2)}).weight("x") == F(1, 2)
    for weights, message in [
        ({"x": F(1, 3), "y": F(1, 5)}, "probability mass 8/15 is not 1"),
        ({"x": F(2, 3), "y": F(3, 7)}, "probability mass 23/21 is not 1"),
        ({}, "probability mass 0 is not 1"),
        ({"x": F(-1, 3), "y": F(4, 3)}, "negative probability -1/3 at 'x'"),
    ]:
        with pytest.raises(ValueError) as e:
            Dist(weights)
        assert str(e.value) == message


def test_dist_rejects_float_weights():
    # 0.5 is exact in binary and 0.7 is not; both are refused as inexact,
    # not accepted or reported as a wrong mass.
    for weights, message in [
        ({"p": 0.5, "q": 0.5}, "probability 0.5 at 'p' is not an exact rational"),
        ({"p": 0.7, "q": 0.3}, "probability 0.7 at 'p' is not an exact rational"),
    ]:
        with pytest.raises(InterfaceError) as e:
            Dist(weights)
        assert str(e.value) == message


def test_weighted_vec_drops_zeros():
    v = WeightedVec(RAT.semiring, {"x": F(0), "y": F(2)})
    assert v.support() == ("y",)
    # minplus: weight 0 is the unit, not the zero, so it stays
    w = WeightedVec(MINPLUS.semiring, {"x": 0})
    assert w.support() == ("x",)


def test_compose_total_probability():
    f = Channel(DIST, ("x",), ("y1", "y2"), {"x": Dist({"y1": F(1, 2), "y2": F(1, 2)})})
    g = Channel(DIST, ("y1", "y2"), ("z",), {"y1": dirac("z"), "y2": dirac("z")})
    assert kleisli_compose(f, g)("x") == dirac("z")


def test_compose_coin_letter_square():
    ch = coin_pfa().letter_channel("a")
    sq = kleisli_compose(ch, ch)
    assert sq("q0") == Dist({"q0": F(1, 4), "q1": F(3, 4)})
    assert sq("q1") == dirac("q1")


def test_compose_weighted_matrix_square():
    s = RAT.semiring
    f = Channel(
        RAT,
        ("x0", "x1"),
        ("x0", "x1"),
        {
            "x0": WeightedVec(s, {"x0": F(1), "x1": F(1)}),
            "x1": WeightedVec(s, {"x1": F(1)}),
        },
    )
    sq = kleisli_compose(f, f)
    assert sq("x0") == WeightedVec(s, {"x0": F(1), "x1": F(2)})
    assert sq("x1") == WeightedVec(s, {"x1": F(1)})


def test_compose_mismatches_raise():
    f = Channel(DIST, ("x",), ("y",), {"x": dirac("y")})
    g = Channel(DIST, ("z",), ("w",), {"z": dirac("w")})
    with pytest.raises(InterfaceError):
        kleisli_compose(f, g)
    h = Channel(RAT, ("y",), ("w",), {"y": unit(RAT, "w")})
    with pytest.raises(InterfaceError):
        kleisli_compose(f, h)


def _all_small_dists(carrier):
    # denominators up to 2 on a 2-element carrier
    xs = list(carrier)
    return [dirac(xs[0]), dirac(xs[1]), Dist({xs[0]: F(1, 2), xs[1]: F(1, 2)})]


def test_kleisli_laws_exhaustive_small():
    carrier = ("0", "1")
    dists = _all_small_dists(carrier)
    channels = [
        Channel(DIST, carrier, carrier, {"0": d0, "1": d1})
        for d0 in dists
        for d1 in dists
    ]
    ident = identity_channel(DIST, carrier)
    for f in channels:
        assert kleisli_compose(ident, f) == f
        assert kleisli_compose(f, ident) == f
    for f, g, h in product(channels, repeat=3):
        assert kleisli_compose(kleisli_compose(f, g), h) == kleisli_compose(
            f, kleisli_compose(g, h)
        )


def test_kleisli_laws_random_larger():
    rng = random.Random(11)
    carrier = ("0", "1", "2")
    for _ in range(100):
        f = rand_channel(rng, carrier)
        g = rand_channel(rng, carrier)
        h = rand_channel(rng, carrier)
        assert kleisli_compose(kleisli_compose(f, g), h) == kleisli_compose(
            f, kleisli_compose(g, h)
        )
    for _ in range(25):
        f = rand_convex_channel(rng, ("0", "1"), 2, max_den=2)
        g = rand_convex_channel(rng, ("0", "1"), 2, max_den=2)
        h = rand_convex_channel(rng, ("0", "1"), 2, max_den=2)
        assert kleisli_compose(kleisli_compose(f, g), h) == kleisli_compose(
            f, kleisli_compose(g, h)
        )
        ident = identity_channel(CONVEX, ("0", "1"))
        assert kleisli_compose(ident, f) == f
        assert kleisli_compose(f, ident) == f
    for _ in range(8):
        f = rand_convex_channel(rng, carrier, 2, max_den=2)
        g = rand_convex_channel(rng, carrier, 2, max_den=2)
        h = rand_convex_channel(rng, carrier, 2, max_den=2)
        assert kleisli_compose(kleisli_compose(f, g), h) == kleisli_compose(
            f, kleisli_compose(g, h)
        )


def test_kleisli_laws_random_weighted():
    rng = random.Random(29)
    carrier = ("0", "1", "2")
    for name in ("rational", "minplus", "boolean"):
        monad = weighted(name)
        s = monad.semiring

        def rand_w():
            def entry():
                if name == "rational":
                    return F(rng.randint(-2, 3), rng.randint(1, 3))
                if name == "boolean":
                    return rng.random() < 0.6
                return rng.randint(0, 3)

            table = {
                q: WeightedVec(
                    s, {p: entry() for p in carrier if rng.random() < 0.7}
                )
                for q in carrier
            }
            return Channel(monad, carrier, carrier, table)

        ident = identity_channel(monad, carrier)
        for _ in range(33):
            f, g, h = rand_w(), rand_w(), rand_w()
            assert kleisli_compose(kleisli_compose(f, g), h) == kleisli_compose(
                f, kleisli_compose(g, h)
            )
            assert kleisli_compose(ident, f) == f
            assert kleisli_compose(f, ident) == f


def test_strengths_relabel():
    d = Dist({"y": F(1, 2), "y2": F(1, 2)})
    assert strength_left("x", d) == Dist({("x", "y"): F(1, 2), ("x", "y2"): F(1, 2)})
    v = WeightedVec(RAT.semiring, {"y": F(3)})
    assert strength_right(v, "x") == WeightedVec(RAT.semiring, {("y", "x"): F(3)})
    s = ConvexSet([dirac("y")])
    assert strength_left("x", s) == ConvexSet([dirac(("x", "y"))])


def test_double_strength_dist():
    d = Dist({"x": F(1, 2), "x2": F(1, 2)})
    assert double_strength(d, dirac("u")) == Dist(
        {("x", "u"): F(1, 2), ("x2", "u"): F(1, 2)}
    )
    e = Dist({"u": F(1, 3), "u2": F(2, 3)})
    assert double_strength(d, e) == Dist(
        {
            ("x", "u"): F(1, 6),
            ("x", "u2"): F(1, 3),
            ("x2", "u"): F(1, 6),
            ("x2", "u2"): F(1, 3),
        }
    )


def test_double_strength_minplus_adds():
    v = WeightedVec(MINPLUS.semiring, {"x": 2})
    w = WeightedVec(MINPLUS.semiring, {"u": 3})
    assert double_strength(v, w) == WeightedVec(MINPLUS.semiring, {("x", "u"): 5})


def test_double_strength_marginals_dist():
    rng = random.Random(3)
    for _ in range(60):
        d = rand_dist(rng, ("x", "y", "z"), 4)
        e = rand_dist(rng, ("u", "v"), 4)
        pi = double_strength(d, e)
        assert pi.map(lambda p: p[0]) == d
        assert pi.map(lambda p: p[1]) == e


def test_convex_double_strength_orientation_matters():
    s = ConvexSet([Dist({"y0": F(1, 2), "y1": F(1, 2)})])
    t = ConvexSet([dirac("v0"), dirac("v1")])
    left_first = double_strength(s, t)
    right_first = double_strength_flipped(s, t)
    assert len(left_first.normalized().generators) == 4
    assert len(right_first.normalized().generators) == 2
    assert left_first != right_first


def test_kleisli_pair_pure_and_coin():
    carrier = ("0", "1")
    f = pure_channel(DIST, {"0": "1", "1": "0"}, carrier, carrier)
    paired = kleisli_pair(f, f)
    assert is_pure(paired)
    ch = coin_pfa().letter_channel("a")
    both = kleisli_pair(ch, ch)
    assert both(("q0", "q0")) == Dist(
        {
            ("q0", "q0"): F(1, 4),
            ("q0", "q1"): F(1, 4),
            ("q1", "q0"): F(1, 4),
            ("q1", "q1"): F(1, 4),
        }
    )


def test_kleisli_pair_weighted_kronecker():
    s = RAT.semiring
    f = Channel(
        RAT,
        ("x0", "x1"),
        ("x0", "x1"),
        {
            "x0": WeightedVec(s, {"x0": F(1), "x1": F(1)}),
            "x1": WeightedVec(s, {"x1": F(1)}),
        },
    )
    both = kleisli_pair(f, f)
    assert both(("x0", "x0")) == WeightedVec(
        s,
        {
            ("x0", "x0"): F(1),
            ("x0", "x1"): F(1),
            ("x1", "x0"): F(1),
            ("x1", "x1"): F(1),
        },
    )


def test_xi_on_function_distributions():
    carrier = ("0", "1")
    ident = ("0", "1")
    swap = ("1", "0")
    ch = xi(Dist({ident: 1}), carrier, carrier)
    assert ch("0") == dirac("0") and ch("1") == dirac("1")
    ch = xi(Dist({ident: F(1, 2), swap: F(1, 2)}), carrier, carrier)
    half = Dist({"0": F(1, 2), "1": F(1, 2)})
    assert ch("0") == half and ch("1") == half


def test_lambda_enumerates_compatible_functions():
    carrier = ("0", "1")
    g = Channel(
        DIST,
        carrier,
        carrier,
        {"0": Dist({"0": F(1, 2), "1": F(1, 2)}), "1": dirac("1")},
    )
    lam = lambda_channel(g)
    assert lam == Dist({("0", "1"): F(1, 2), ("1", "1"): F(1, 2)})
    pure = pure_channel(DIST, {"0": "1", "1": "0"}, carrier, carrier)
    assert lambda_channel(pure) == Dist({("1", "0"): 1})


def test_xi_after_lambda_is_identity_exhaustive():
    # every channel on carriers of size <= 2 with denominators <= 3
    small = [
        Dist({"0": 1}),
        Dist({"1": 1}),
        Dist({"0": F(1, 2), "1": F(1, 2)}),
        Dist({"0": F(1, 3), "1": F(2, 3)}),
        Dist({"0": F(2, 3), "1": F(1, 3)}),
    ]
    carrier = ("0", "1")
    for d0, d1 in product(small, repeat=2):
        g = Channel(DIST, carrier, carrier, {"0": d0, "1": d1})
        assert xi(lambda_channel(g), carrier, carrier) == g
    for d0 in small:
        g = Channel(DIST, ("0",), carrier, {"0": d0})
        assert xi(lambda_channel(g), ("0",), carrier) == g


def test_xi_after_lambda_random_3x3():
    rng = random.Random(5)
    carrier = ("0", "1", "2")
    for _ in range(100):
        g = rand_channel(rng, carrier, max_den=6)
        assert xi(lambda_channel(g), carrier, carrier) == g


def test_hull_membership():
    d = Dist({"0": F(1, 3), "1": F(2, 3)})
    gens = ConvexSet([dirac("0"), dirac("1")])
    assert hull_membership(dirac("0"), gens)
    mid = Dist({"0": F(1, 2), "1": F(1, 2)})
    assert hull_membership(mid, gens)
    assert hull_membership(d, gens)
    assert not hull_membership(d, ConvexSet([dirac("0")]))


def test_convex_normalize():
    single = convex_normalize(ConvexSet([dirac("a"), dirac("a")]))
    assert single.generators == (dirac("a"),)
    tri = ConvexSet([dirac("0"), dirac("1"), Dist({"0": F(1, 2), "1": F(1, 2)})])
    norm = convex_normalize(tri)
    assert set(norm.generators) == {dirac("0"), dirac("1")}
    assert convex_normalize(norm) == norm
    sing = ConvexSet([Dist({"0": F(1, 2), "1": F(1, 2)})])
    assert convex_normalize(sing) == sing
    # representation independence
    assert tri == norm


def test_normalize_agrees_under_membership():
    rng = random.Random(9)
    for _ in range(20):
        s = ConvexSet([rand_dist(rng, ("0", "1", "2"), 4) for _ in range(4)])
        n = convex_normalize(s)
        for g in s.generators:
            assert hull_membership(g, n)
        for g in n.generators:
            assert hull_membership(g, s)


def test_pure_channels_are_central():
    carrier = ("0", "1")
    f = pure_channel(DIST, {"0": "1", "1": "0"}, carrier, carrier)
    probes = [rand_channel(random.Random(2), carrier) for _ in range(5)]
    assert check_central(f, probes) == []


def test_every_dist_channel_is_central():
    # probabilistic pairing does not depend on evaluation order
    rng = random.Random(19)
    probes = [rand_channel(rng, ("u", "v")) for _ in range(4)]
    for _ in range(10):
        f = rand_channel(rng, ("0", "1", "2"))
        assert check_central(f, probes) == []


def test_noncentral_convex_channel_detected():
    f = Channel(
        CONVEX,
        ("x",),
        ("y0", "y1"),
        {"x": ConvexSet([Dist({"y0": F(1, 2), "y1": F(1, 2)})])},
    )
    probe = Channel(
        CONVEX,
        ("u",),
        ("v0", "v1"),
        {"u": ConvexSet([dirac("v0"), dirac("v1")])},
    )
    violations = check_central(f, [probe])
    assert violations
    # but a pure convex channel against the same probe passes
    g = pure_channel(CONVEX, {"x": "y0"}, ("x",), ("y0", "y1"))
    assert check_central(g, [probe]) == []


def test_affinity():
    assert check_affine(DIST) is True
    assert check_affine(CONVEX) is True
    assert check_affine(weighted("rational")) is False
    assert check_affine(weighted("boolean")) is False


def test_bind_results_are_normalised_distributions():
    rng = random.Random(13)
    carrier = ("0", "1", "2")
    for _ in range(50):
        d = rand_dist(rng, carrier)
        ch = rand_channel(rng, carrier)
        out = bind(d, ch)
        assert sum(w for _, w in out.items()) == 1


def test_hull_pruning_is_one_pass(monkeypatch):
    # Interior generators after the extreme points: a scan that restarts
    # after each deletion rechecks the extreme points every time.
    from effectfa import effects

    feasible = effects.feasible_nonneg
    calls = []

    def counted(*args):
        calls.append(args)
        return feasible(*args)

    monkeypatch.setattr(effects, "feasible_nonneg", counted)
    corners = [dirac("x"), dirac("y"), dirac("z")]
    interior = [
        Dist({"x": F(1, 3), "y": F(1, 3), "z": F(1, 3)}),
        Dist({"x": F(1, 2), "y": F(1, 4), "z": F(1, 4)}),
        Dist({"x": F(1, 4), "y": F(1, 2), "z": F(1, 4)}),
        Dist({"x": F(1, 2), "y": F(1, 2)}),
    ]
    s = ConvexSet(corners + interior)
    assert s.normalized().generators == tuple(corners)
    assert len(calls) <= len(corners + interior)
