"""Effect values, Kleisli channels, and their composition calculus.

Three effect types are supported, all over finite carriers:

* ``dist``     -- finite probability distributions with exact rational weights;
* ``weighted`` -- finite-support vectors over a declared semiring;
* ``convex``   -- non-empty, finitely generated convex sets of distributions.

A :class:`Channel` is a total table from a finite domain carrier to effect
values over a codomain carrier; channels compose by summing over the
intermediate carrier (matrix product for ``dist``/``weighted``) and, for
``convex``, by mixing one generator choice per intermediate element and
pruning the resulting generator set to its extreme points.

Purity is a property, not a fourth effect type: a pure channel is one whose
entries are all unit values (:func:`is_pure`).  DFAs are handled as ``dist``
channels with Dirac entries throughout the package.

The bridge between distributions over function spaces and channels is given
by :func:`xi` (sum over the functions hitting a given value) and its section
:func:`lambda_channel` (product of per-point weights), with the sparse
section :func:`decompose_channel` (a greedy decomposition into at most
``sum |supp| - n + 1`` graphs).  These underpin the finite-monoid
recognizers built in :mod:`effectfa.recognition`.

Convex-set equality is representation independent: two generator lists are
equal iff each generator of one lies in the hull of the other, decided
exactly by rational linear feasibility (:func:`hull_membership`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iterproduct
from math import gcd

from .errors import CapabilityError, InterfaceError, ResourceError
from .exactnum import SemiringDescriptor, _exact_weight, rational, semiring_builtin
from .linalg import feasible_nonneg

_F0 = Fraction(0)
_F1 = Fraction(1)

# Cap on per-generator choice combinations in convex composition.
CONVEX_CHOICE_LIMIT = 200_000


@dataclass(frozen=True)
class Monad:
    """Effect-type tag: ``dist``, ``weighted`` (with its semiring) or ``convex``."""

    kind: str
    semiring: SemiringDescriptor | None = None

    def __post_init__(self):
        if self.kind not in ("dist", "weighted", "convex"):
            raise InterfaceError(f"unknown effect kind {self.kind!r}")
        if (self.kind == "weighted") != (self.semiring is not None):
            raise InterfaceError("exactly the weighted effect carries a semiring")

    def __repr__(self):
        if self.kind == "weighted":
            return f"Monad(weighted {self.semiring.name})"
        return f"Monad({self.kind})"


DIST = Monad("dist")
CONVEX = Monad("convex")


def weighted(semiring: SemiringDescriptor | str) -> Monad:
    if isinstance(semiring, str):
        semiring = semiring_builtin(semiring)
    return Monad("weighted", semiring)


class Dist:
    """Finite probability distribution with positive weights summing to one.

    Construction reads every weight by :func:`~effectfa.exactnum.rational`
    and checks the mass, in one pass: the mass is an integer numerator over
    the LCM of the denominators seen so far.  A ``Dist`` is immutable, so
    values may share one (the file readers do).
    """

    __slots__ = ("_w", "_hash")

    def __init__(self, weights):
        w = {}
        num, den = 0, 1
        for x, v in weights.items():
            if type(v) is not Fraction:
                v = rational(v, "probability", f"at {x!r}")
            n = v.numerator
            if n < 0:
                raise ValueError(f"negative probability {v} at {x!r}")
            if n:
                w[x] = v
                d = v.denominator
                if den % d:
                    k = d // gcd(den, d)
                    num *= k
                    den *= k
                num += n * (den // d)
        if num != den:
            raise ValueError(f"probability mass {Fraction(num, den)} is not 1")
        self._w = w
        self._hash = None

    def weight(self, x) -> Fraction:
        return self._w.get(x, _F0)

    def items(self):
        return tuple(self._w.items())

    def support(self):
        return tuple(self._w)

    def map(self, fn) -> "Dist":
        out = {}
        for x, v in self._w.items():
            y = fn(x)
            out[y] = out.get(y, _F0) + v
        return Dist(out)

    def is_dirac(self) -> bool:
        return len(self._w) == 1

    def __eq__(self, other):
        return isinstance(other, Dist) and self._w == other._w

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._w.items()))
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{x!r}: {v}" for x, v in self._w.items())
        return f"Dist({{{body}}})"


class WeightedVec:
    """Finite-support vector over a semiring; stored weights are non-zero."""

    __slots__ = ("semiring", "_w")

    def __init__(self, semiring: SemiringDescriptor, weights):
        self.semiring = semiring
        self._w = {x: v for x, v in weights.items() if not semiring.is_zero(v)}

    def weight(self, x):
        return self._w.get(x, self.semiring.zero)

    def items(self):
        return tuple(self._w.items())

    def support(self):
        return tuple(self._w)

    def map(self, fn) -> "WeightedVec":
        s = self.semiring
        out = {}
        for x, v in self._w.items():
            y = fn(x)
            out[y] = s.add(out[y], v) if y in out else v
        return WeightedVec(s, out)

    def is_unit_vector(self) -> bool:
        return len(self._w) == 1 and self.semiring.eq(
            next(iter(self._w.values())), self.semiring.one
        )

    def __eq__(self, other):
        if not isinstance(other, WeightedVec) or self.semiring != other.semiring:
            return False
        if set(self._w) != set(other._w):
            return False
        return all(self.semiring.eq(v, other._w[x]) for x, v in self._w.items())

    def __hash__(self):
        return hash((self.semiring, frozenset(self._w)))

    def __repr__(self):
        body = ", ".join(f"{x!r}: {self.semiring.fmt(v)}" for x, v in self._w.items())
        return f"WeightedVec[{self.semiring.name}]({{{body}}})"


class ConvexSet:
    """Non-empty convex set of distributions, given by a finite generator list.

    Generators are kept as supplied (exact duplicates dropped); the canonical
    extreme-point form is computed on demand and cached.  Equality is mutual
    hull containment, so it does not depend on the chosen generators.
    """

    __slots__ = ("generators", "_normal")

    def __init__(self, generators):
        gens = []
        for g in generators:
            if not isinstance(g, Dist):
                raise InterfaceError("convex generators must be distributions")
            if g not in gens:
                gens.append(g)
        if not gens:
            raise ValueError("a convex set needs at least one generator")
        self.generators = tuple(gens)
        self._normal = None

    def normalized(self) -> "ConvexSet":
        if self._normal is None:
            # One pass: dropping a generator in the hull of the others leaves
            # the hull unchanged, so one kept earlier stays extreme.
            gens = list(self.generators)
            i = 0
            while i < len(gens) and len(gens) > 1:
                if hull_coefficients(gens[i], gens[:i] + gens[i + 1 :]) is None:
                    i += 1
                else:
                    del gens[i]
            norm = ConvexSet(gens)
            norm._normal = norm
            self._normal = norm
        return self._normal

    def map(self, fn) -> "ConvexSet":
        return ConvexSet([g.map(fn) for g in self.generators])

    def is_singleton_dirac(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_dirac()

    def __eq__(self, other):
        if not isinstance(other, ConvexSet):
            return False
        return frozenset(self.normalized().generators) == frozenset(
            other.normalized().generators
        )

    def __hash__(self):
        return hash(frozenset(self.normalized().generators))

    def __repr__(self):
        return f"ConvexSet({list(self.generators)!r})"


def _supports(values) -> list:
    """The elements in the supports of effect values (of every generator,
    for a convex set), each once, in order of first appearance."""
    seen = {}
    for t in values:
        for d in t.generators if isinstance(t, ConvexSet) else (t,):
            seen.update(dict.fromkeys(d.support()))
    return list(seen)


def _value_kind(t) -> str:
    """The effect kind of a value; InterfaceError if it is no effect value."""
    if isinstance(t, Dist):
        return "dist"
    if isinstance(t, WeightedVec):
        return "weighted"
    if isinstance(t, ConvexSet):
        return "convex"
    raise InterfaceError(f"not an effect value: {t!r}")


def _fits(monad: Monad, t) -> bool:
    """Whether ``t`` is a value of ``monad``: the kinds agree, and so do the
    semirings of a weighted vector."""
    kind = _value_kind(t)
    return kind == monad.kind and (kind != "weighted" or t.semiring == monad.semiring)


def _value_monad(t) -> Monad:
    kind = _value_kind(t)
    if kind == "weighted":
        return Monad("weighted", t.semiring)
    return DIST if kind == "dist" else CONVEX


# The class of each effect kind's values.
_VALUE_CLASS = {"dist": Dist, "weighted": WeightedVec, "convex": ConvexSet}
_WRONG_TYPE = "has the wrong effect type"
_OUTSIDE = "puts weight outside the carrier"


def _value_fault(monad: Monad, t, carrier) -> str | None:
    """What keeps ``t`` from being a ``monad`` value supported in the set
    ``carrier``, with exact weights if it is a weighted vector; None if
    nothing does.  Something that is no effect value raises InterfaceError.

    It picks the monad's value class by ``type(t) is`` (a subclass passes
    too) and builds no set: the keys of each weight map, of every generator
    of a convex set, are compared with ``carrier`` as they are.
    """
    kind = monad.kind
    cls = _VALUE_CLASS[kind]
    if type(t) is not cls and not isinstance(t, cls):
        _value_kind(t)
        return _WRONG_TYPE
    if kind == "convex":
        for g in t.generators:
            if not g._w.keys() <= carrier:
                return _OUTSIDE
        return None
    if kind == "dist":
        return None if t._w.keys() <= carrier else _OUTSIDE
    s = monad.semiring
    if t.semiring is not s and t.semiring != s:
        return _WRONG_TYPE
    if not t._w.keys() <= carrier:
        return _OUTSIDE
    for w in t._w.values():
        if not _exact_weight(s, w):
            return f"has an inexact {s.name} weight {w!r}"
    return None


def _check_value(monad: Monad, t, carrier: set, where: str) -> None:
    """Raise InterfaceError, naming ``where``, unless ``t`` is a ``monad``
    value supported in the set ``carrier`` (see :func:`_value_fault`)."""
    fault = _value_fault(monad, t, carrier)
    if fault is not None:
        raise InterfaceError(f"{where} {fault}")


def _check_entries(monad: Monad, table: dict, carrier: set) -> None:
    """Check every entry of a channel table with :func:`_value_fault`; the
    first bad one is named by its key, and only then is its name formatted."""
    for x, t in table.items():
        fault = _value_fault(monad, t, carrier)
        if fault is not None:
            raise InterfaceError(f"entry at {x!r} {fault}")


@dataclass(frozen=True, eq=False)
class Channel:
    """Total table from a finite domain to effect values over a codomain.

    Construction checks that the table's keys are the domain and every
    entry with :func:`_check_entries` on the codomain.
    """

    monad: Monad
    domain: tuple
    codomain: tuple
    table: dict

    def __post_init__(self):
        if self.table.keys() != set(self.domain):
            raise InterfaceError("channel table must be total on its domain")
        _check_entries(self.monad, self.table, set(self.codomain))

    @classmethod
    def _of_checked(cls, monad: Monad, domain: tuple, codomain: tuple, table: dict):
        """A channel on a table that the caller has already checked as
        construction does: its keys are the domain and every entry passed
        :func:`_check_entries` on the codomain."""
        ch = object.__new__(cls)
        put = object.__setattr__
        put(ch, "monad", monad)
        put(ch, "domain", domain)
        put(ch, "codomain", codomain)
        put(ch, "table", table)
        return ch

    def __call__(self, x):
        try:
            return self.table[x]
        except KeyError:
            raise InterfaceError(f"{x!r} is not in the channel domain") from None

    def __eq__(self, other):
        return (
            isinstance(other, Channel)
            and self.monad == other.monad
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.table == other.table
        )

    def __repr__(self):
        return f"Channel({self.monad!r}, {len(self.domain)}->{len(self.codomain)})"


def product_carrier(xs: tuple, ys: tuple) -> tuple:
    return tuple((x, y) for x in xs for y in ys)


def unit(monad: Monad, x):
    """The unit value at ``x``: Dirac, characteristic vector, or singleton hull."""
    if monad.kind == "dist":
        return Dist({x: _F1})
    if monad.kind == "weighted":
        return WeightedVec(monad.semiring, {x: monad.semiring.one})
    return ConvexSet([Dist({x: _F1})])


def pure_channel(monad: Monad, mapping, domain: tuple, codomain: tuple) -> Channel:
    """Embed an ordinary function as an effect-free channel."""
    table = {x: unit(monad, mapping[x]) for x in domain}
    return Channel(monad, domain, codomain, table)


def identity_channel(monad: Monad, carrier: tuple) -> Channel:
    return Channel(monad, carrier, carrier, {x: unit(monad, x) for x in carrier})


def is_pure(value_or_channel) -> bool:
    """True iff the value (or every channel entry) is a unit value."""
    if isinstance(value_or_channel, Channel):
        return all(is_pure(t) for t in value_or_channel.table.values())
    t = value_or_channel
    if isinstance(t, Dist):
        return t.is_dirac()
    if isinstance(t, WeightedVec):
        return t.is_unit_vector()
    if isinstance(t, ConvexSet):
        return t.is_singleton_dirac()
    raise InterfaceError(f"not an effect value: {t!r}")


def _convex_bind(s: ConvexSet, k) -> ConvexSet:
    """Compose a convex value with a family of convex continuations.

    ``k(x)`` is the convex set continuing from ``x``.  The generators of the
    composite are every mix obtained by fixing one input generator and, per
    element of its support, one generator of the continuation; the resulting
    list is pruned to extreme points.
    """
    gens_out = []
    for d in s.generators:
        supp = d.items()
        option_lists = [k(x).generators for x, _ in supp]
        count = 1
        for o in option_lists:
            count *= len(o)
        if count > CONVEX_CHOICE_LIMIT:
            raise ResourceError(
                f"convex composition needs {count} generator choices "
                f"(limit {CONVEX_CHOICE_LIMIT})"
            )
        for choice in _iterproduct(*option_lists):
            acc = {}
            for (x, wx), e in zip(supp, choice):
                for y, wy in e.items():
                    acc[y] = acc.get(y, _F0) + wx * wy
            gens_out.append(Dist(acc))
    return ConvexSet(gens_out).normalized()


def bind(t, ch: Channel):
    """Feed an effect value through a channel (Kleisli extension)."""
    if not _fits(ch.monad, t):
        raise InterfaceError("effect value and channel have different effect types")
    if ch.monad.kind == "dist":
        out = {}
        for x, wx in t.items():
            for y, wy in ch(x).items():
                out[y] = out.get(y, _F0) + wx * wy
        return Dist(out)
    if ch.monad.kind == "weighted":
        s = ch.monad.semiring
        out = {}
        for x, wx in t.items():
            for y, wy in ch(x).items():
                v = s.mul(wx, wy)
                out[y] = s.add(out[y], v) if y in out else v
        return WeightedVec(s, out)
    return _convex_bind(t, ch)


def kleisli_compose(f: Channel, g: Channel) -> Channel:
    """Sequential composition of channels."""
    if f.monad != g.monad:
        raise InterfaceError("cannot compose channels of different effect types")
    if f.codomain != g.domain:
        raise InterfaceError("codomain/domain carriers do not match")
    table = {x: bind(f(x), g) for x in f.domain}
    return Channel(f.monad, f.domain, g.codomain, table)


def strength_left(x, t):
    """Pair a pure element on the left of an effect value's support."""
    return t.map(lambda y: (x, y))


def strength_right(t, x):
    """Pair a pure element on the right of an effect value's support."""
    return t.map(lambda y: (y, x))


def double_strength(t1, t2):
    """The canonical map sending two effect values to one over the pair carrier.

    For distributions this is the product distribution; for weighted vectors
    the entrywise semiring product.  For convex sets the orientation is fixed:
    first the left value resolves, then per left outcome a generator of the
    right value is chosen (the opposite order is generally different and is
    exercised only inside :func:`check_central`).
    """
    kind = _value_kind(t1)
    if kind != _value_kind(t2) or (kind == "weighted" and t1.semiring != t2.semiring):
        raise InterfaceError("double strength needs matching effect types")
    if kind == "dist":
        return Dist(
            {(x, y): wx * wy for x, wx in t1.items() for y, wy in t2.items()}
        )
    if kind == "weighted":
        s = t1.semiring
        out = {}
        for x, wx in t1.items():
            for y, wy in t2.items():
                v = s.mul(wx, wy)
                if not s.is_zero(v):
                    out[(x, y)] = v
        return WeightedVec(s, out)
    return _convex_bind(t1, lambda x: strength_left(x, t2))


def kleisli_pair(f1: Channel, f2: Channel) -> Channel:
    """Run two channels side by side on a product carrier."""
    if f1.monad != f2.monad:
        raise InterfaceError("paired channels need the same effect type")
    domain = product_carrier(f1.domain, f2.domain)
    codomain = product_carrier(f1.codomain, f2.codomain)
    table = {(x1, x2): double_strength(f1(x1), f2(x2)) for x1, x2 in domain}
    return Channel(f1.monad, domain, codomain, table)


def xi(t, domain: tuple, codomain: tuple) -> Channel:
    """Collapse an effect value over function graphs into a channel.

    Support elements of ``t`` are function graphs: tuples listing, per domain
    element in carrier order, the image in the codomain (``None`` marking an
    undefined point for the weighted case).  The channel sends ``x`` to the
    accumulated weight of the graphs through each ``(x, y)``.
    """
    monad = _value_monad(t)
    n = len(domain)
    for f in _supports([t]):
        if len(f) != n:
            raise InterfaceError("function graph arity does not match the domain")

    def dist_slice(d: Dist, i: int) -> Dist:
        out = {}
        for f, w in d.items():
            y = f[i]
            out[y] = out.get(y, _F0) + w
        return Dist(out)

    table = {}
    for i, x in enumerate(domain):
        if monad.kind == "dist":
            table[x] = dist_slice(t, i)
        elif monad.kind == "weighted":
            s = monad.semiring
            out = {}
            for f, w in t.items():
                y = f[i]
                if y is None:
                    continue
                out[y] = s.add(out[y], w) if y in out else w
            table[x] = WeightedVec(s, out)
        else:
            table[x] = ConvexSet(
                [dist_slice(d, i) for d in t.generators]
            ).normalized()
    return Channel(monad, domain, codomain, table)


def lambda_channel(g: Channel) -> Dist:
    """Distribution over function graphs measuring compatibility with ``g``.

    Each graph's weight is the product over the domain of the channel weight
    of its chosen image; graphs with a zero factor are omitted.  This is a
    section of :func:`xi`: collapsing the result reproduces ``g`` exactly.
    """
    if g.monad.kind != "dist":
        raise CapabilityError("channel-to-function-distribution needs dist")
    supports = [g(x).support() for x in g.domain]
    out = {}
    for graph in _iterproduct(*supports):
        w = _F1
        for x, y in zip(g.domain, graph):
            w *= g(x).weight(y)
        out[graph] = w
    return Dist(out)


def decompose_channel(g: Channel) -> Dist:
    """A sparse section of :func:`xi` on ``dist`` channels.

    Greedy decomposition: take the graph that sends each domain point to its
    largest remaining entry (the first in codomain order on ties), weight it
    by the smallest of those entries, subtract, and repeat.  Every row keeps
    the same remaining mass, so all rows empty at the same step.  Each step
    empties at least one entry and the last step one per row, so at most
    ``sum |supp g(x)| - n + 1`` graphs carry weight, against the product of
    the support sizes for :func:`lambda_channel`.  Collapsing the result
    reproduces ``g`` exactly.
    """
    if g.monad.kind != "dist":
        raise CapabilityError("channel-to-function-distribution needs dist")
    rows = []
    for x in g.domain:
        d = g(x)
        rows.append({y: d.weight(y) for y in g.codomain if d.weight(y)})
    out = {}
    while rows and rows[0]:
        graph = tuple(max(row, key=row.__getitem__) for row in rows)
        w = min(row[y] for row, y in zip(rows, graph))
        for row, y in zip(rows, graph):
            row[y] -= w
            if not row[y]:
                del row[y]
        out[graph] = w
    # An empty domain has one graph, the empty one.
    return Dist(out or {(): _F1})


def hull_coefficients(d: Dist, generators):
    """Convex coefficients expressing ``d`` over ``generators``, or None."""
    gens = list(generators)
    if not gens:
        return None
    carrier = list(d.support())
    for g in gens:
        for x in g.support():
            if x not in carrier:
                carrier.append(x)
    rows = [[g.weight(x) for g in gens] for x in carrier]
    rows.append([_F1] * len(gens))
    rhs = [d.weight(x) for x in carrier] + [_F1]
    return feasible_nonneg(tuple(tuple(r) for r in rows), tuple(rhs))


def hull_membership(d: Dist, s: ConvexSet) -> bool:
    """Exact test for membership of a distribution in a convex set."""
    return hull_coefficients(d, s.generators) is not None


def convex_normalize(s: ConvexSet) -> ConvexSet:
    """Drop every generator lying in the hull of the others; idempotent."""
    return s.normalized()


def _right_ext(f: Channel, zs: tuple) -> Channel:
    table = {
        (x, z): strength_right(f(x), z) for x in f.domain for z in zs
    }
    return Channel(
        f.monad, product_carrier(f.domain, zs), product_carrier(f.codomain, zs), table
    )


def _left_ext(zs: tuple, f: Channel) -> Channel:
    table = {
        (z, x): strength_left(z, f(x)) for z in zs for x in f.domain
    }
    return Channel(
        f.monad, product_carrier(zs, f.domain), product_carrier(zs, f.codomain), table
    )


def check_central(f: Channel, probes) -> list:
    """Check that ``f`` commutes with each probe in the two-sided sense.

    For a probe ``f'``, running ``f`` first and then ``f'`` on the other
    component must agree with the opposite scheduling on every input pair.
    Pure channels always pass.  Returns one violation record per disagreeing
    input: ``(probe_index, input_pair, first_f_value, first_probe_value)``.
    """
    violations = []
    for idx, probe in enumerate(probes):
        if probe.monad != f.monad:
            raise InterfaceError("probe and channel must share the effect type")
        f_first = kleisli_compose(_right_ext(f, probe.domain), _left_ext(f.codomain, probe))
        p_first = kleisli_compose(_left_ext(f.domain, probe), _right_ext(f, probe.codomain))
        for pair in f_first.domain:
            a, b = f_first(pair), p_first(pair)
            if a != b:
                violations.append((idx, pair, a, b))
    return violations


def _small_dists(carrier: tuple, max_den: int) -> list:
    """All distributions on ``carrier`` with weights of denominator <= max_den."""
    out = []
    seen = set()
    for den in range(1, max_den + 1):
        for split in _compositions(den, len(carrier)):
            d = Dist({x: Fraction(k, den) for x, k in zip(carrier, split) if k})
            if d not in seen:
                seen.add(d)
                out.append(d)
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def check_affine(monad: Monad) -> bool:
    """Decide on a finite grid whether pairing-then-projecting is the identity.

    For ``dist`` the grid is every pair of distributions on two-element
    carriers with denominators up to 4; for ``convex``, sets with up to two
    generators drawn from the halves grid.  ``weighted`` fails on a direct
    counterexample (a vector of total weight other than one).
    """
    xs, ys = ("x0", "x1"), ("y0", "y1")
    if monad.kind == "weighted":
        s = monad.semiring
        two = s.add(s.one, s.one)
        v = unit(monad, xs[0])
        w = WeightedVec(s, {ys[0]: two})
        if s.eq(two, s.one):
            w = WeightedVec(s, {})  # idempotent additions: use the empty vector
        marg = double_strength(v, w).map(lambda p: p[0])
        return marg == v
    if monad.kind == "dist":
        lefts = _small_dists(xs, 4) + _small_dists(("x0", "x1", "x2"), 3)
        for d in lefts:
            for e in _small_dists(ys, 4):
                pi = double_strength(d, e)
                if pi.map(lambda p: p[0]) != d or pi.map(lambda p: p[1]) != e:
                    return False
        return True
    if monad.kind == "convex":
        base_x = _small_dists(xs, 2)
        base_y = _small_dists(ys, 2)
        sets_x = [ConvexSet([g]) for g in base_x]
        sets_x += [ConvexSet([g, h]) for i, g in enumerate(base_x) for h in base_x[i + 1 :]]
        sets_y = [ConvexSet([g]) for g in base_y]
        sets_y += [ConvexSet([g, h]) for i, g in enumerate(base_y) for h in base_y[i + 1 :]]
        for s1 in sets_x:
            for s2 in sets_y:
                pi = double_strength(s1, s2)
                if pi.map(lambda p: p[0]) != s1 or pi.map(lambda p: p[1]) != s2:
                    return False
        return True
    raise CapabilityError(f"affinity check undefined for {monad!r}")
