"""Exact linear representations and decidable syntactic congruence.

A rational-valued language (probabilistic, or weighted over the rationals)
is packaged as a :class:`LinearRep`: an initial row, one square matrix per
letter, and a final column, so that the value of a word is
``initial @ product-of-letter-matrices @ final``.

Minimisation runs a forward pass (basis of the space reached from the
initial row under the letter matrices) and then a backward pass (the same
on the transposed representation), both with exact fraction-free
elimination and first-non-zero pivoting in
:class:`~effectfa.linalg.RowSpace`.  The forward pass stays on integers:
basis rows are integer numerators over one denominator, their images are
steps of the integer kernel, and the letter matrices of the reduced
representation are the basis coordinates of those images, read off the same
elimination that decides their membership.  `Fraction`s are built only for
the reduced representation.  The resulting dimension is the rank of the
language's word-pair value table, never larger than the input dimension.
Word values and word matrices run on the blocked integer fold of
:mod:`effectfa.linalg` (:func:`~effectfa.linalg.word_value`,
:func:`~effectfa.linalg.word_product`).

On a minimised representation, matrix equality of formal convex
combinations of words decides the syntactic congruence: the reached rows
and observed columns each span the full space, so two combinations act the
same in every two-sided context exactly when their matrices coincide.  The
congruence class structure itself is usually infinite and is never
materialised; :func:`combo_matrix` is its decidable face.  A necessary-
condition oracle that literally sums values over bounded contexts is kept
alongside for cross-checking (:func:`bounded_context_oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .automata import (
    SEMIRING_SELF,
    EffAutomaton,
    _is_linear,
    _letter_matrix,
    eval_word,
    words_upto,
)
from .effects import WeightedVec, weighted
from .errors import CapabilityError, InputError, PreconditionError
from .exactnum import rational
from .linalg import (
    RowSpace,
    _int_letters,
    _int_read,
    _int_step,
    _int_vector,
    mat_add,
    mat_mul,
    mat_scale,
    transpose,
    word_product,
    word_value,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class LinearRep:
    """Matrix presentation of a rational-valued language."""

    alphabet: tuple
    initial: tuple
    letters: dict
    final: tuple
    minimal: bool = False

    @property
    def dim(self) -> int:
        return len(self.initial)

    def _letter(self, a):
        if a not in self.letters:
            raise InputError(f"letter {a!r} is not in the alphabet")
        return self.letters[a]

    def word_matrix(self, w):
        return word_product(self.dim, w, self._letter)

    def value(self, w) -> Fraction:
        return word_value(self.initial, w, self._letter, self.final)


@dataclass(frozen=True)
class FormalCombo:
    """A formal convex combination of words (weights positive, summing to 1)."""

    terms: dict

    def __post_init__(self):
        terms = {}
        total = _F0
        for w, r in self.terms.items():
            if type(r) is not Fraction:
                r = rational(r, "combination weight", f"at {w!r}")
            if r <= 0:
                raise InputError(f"combination weight {r} at {w!r} must be positive")
            terms[w] = r
            total += r
        if total != 1:
            raise InputError(f"combination weights sum to {total}, not 1")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def dirac(cls, w) -> "FormalCombo":
        return cls({tuple(w): _F1})


def to_linear(a: EffAutomaton) -> LinearRep:
    """Read off the matrices of a dist or rational-weighted automaton."""
    if not _is_linear(a.monad):
        raise CapabilityError(
            "linear representations need rational matrices (dist or weighted rational)"
        )
    return LinearRep(
        alphabet=a.alphabet,
        initial=tuple(a.init.weight(q) for q in a.states),
        letters={x: _letter_matrix(a, x) for x in a.alphabet},
        final=tuple(a.output[q] for q in a.states),
    )


def from_linear(rep: LinearRep) -> EffAutomaton:
    """The rational-weighted automaton on states ``s0, s1, ...`` of a representation."""
    states = tuple(f"s{i}" for i in range(rep.dim))
    rational = weighted("rational")

    def vector(row):
        return WeightedVec(rational.semiring, dict(zip(states, row)))

    return EffAutomaton(
        monad=rational,
        states=states,
        alphabet=rep.alphabet,
        init=vector(rep.initial),
        trans={
            (q, x): vector(rep.letters[x][i])
            for i, q in enumerate(states)
            for x in rep.alphabet
        },
        output=dict(zip(states, rep.final)),
        output_algebra=SEMIRING_SELF,
    )


def _forward_reduce(rep: LinearRep) -> LinearRep:
    """Restrict to the span of rows reachable from the initial row.

    Basis rows are kept as integer ``(numerators, den)`` vectors, their
    images are one step of the integer kernel, and the images' coordinates
    come from :class:`RowSpace` as integer numerators over one denominator;
    `Fraction`s are built only for the returned representation.
    """
    space = RowSpace(rep.dim)
    (start,), mats, radix = _int_letters((rep.initial,), rep.letters)
    basis = [start] if space._place(*start) is None else []
    # Per letter, the basis coordinates of the images of the basis rows.  An
    # image's coordinates are taken in the basis found so far, a prefix of
    # the final one, so they are padded with zeros at the end.
    images = {a: [] for a in rep.alphabet}
    for b in basis:  # breadth first: the loop also visits rows appended below
        for a in rep.alphabet:
            w = _int_step(*b, mats[a], radix)
            c = space._place(*w)
            if c is None:
                basis.append(w)
                c = [0] * (len(basis) - 1) + [1], 1
            images[a].append(c)
    k = len(basis)
    final = _int_vector(rep.final)

    def padded(c):
        nums, den = c
        return tuple(Fraction(y, den) if y else _F0 for y in nums) + (_F0,) * (
            k - len(nums)
        )

    return LinearRep(
        alphabet=rep.alphabet,
        # The initial row is the first basis vector, if it is not zero.
        initial=padded(([1], 1)) if k else (),
        letters={a: tuple(padded(c) for c in cs) for a, cs in images.items()},
        final=tuple(_int_read(b, final) for b in basis),
    )


def _transposed(rep: LinearRep) -> LinearRep:
    return LinearRep(
        alphabet=rep.alphabet,
        initial=rep.final,
        letters={a: transpose(m) for a, m in rep.letters.items()},
        final=rep.initial,
    )


def minimize(rep: LinearRep) -> LinearRep:
    """Language-equivalent representation of minimal dimension.

    Forward-reduces, then backward-reduces via the transposed
    representation; the two passes together reach the minimal dimension.
    """
    reduced = _transposed(_forward_reduce(_transposed(_forward_reduce(rep))))
    return replace(reduced, minimal=True)


def combo_matrix(rep: LinearRep, c: FormalCombo):
    """The matrix acting like a formal combination of words."""
    acc = None
    for w, r in c.terms.items():
        term = mat_scale(r, rep.word_matrix(w))
        acc = term if acc is None else mat_add(acc, term)
    return acc


def syn_eval(rep: LinearRep, c: FormalCombo) -> Fraction:
    """The language value extended affinely to a formal combination."""
    return sum((r * rep.value(w) for w, r in c.terms.items()), _F0)


def _require_minimal(rep: LinearRep):
    if not rep.minimal:
        raise PreconditionError("minimise the representation first")


def syn_congruent(rep: LinearRep, c1: FormalCombo, c2: FormalCombo) -> bool:
    """Decide whether two formal combinations agree in every two-sided context.

    On a minimised representation this is exactly matrix equality of the two
    combinations (on a non-minimised one it would be sufficient but not
    necessary, hence the precondition).
    """
    _require_minimal(rep)
    return combo_matrix(rep, c1) == combo_matrix(rep, c2)


def bounded_context_oracle(
    a: EffAutomaton, c1: FormalCombo, c2: FormalCombo, maxctx: int
) -> bool:
    """Check the context equation literally for all contexts up to maxctx.

    A necessary condition for congruence; sound spot-check for
    :func:`syn_congruent` at bounded depth.  Values are summed exactly, so
    the automaton must produce rational numbers.
    """

    def combo_value(x, c, y):
        return sum(
            (r * eval_word(a, tuple(x) + w + tuple(y)) for w, r in c.terms.items()),
            _F0,
        )

    for x in words_upto(a.alphabet, maxctx):
        for y in words_upto(a.alphabet, maxctx):
            if combo_value(x, c1, y) != combo_value(x, c2, y):
                return False
    return True


def is_commutative(rep: LinearRep) -> bool:
    """Whether the represented language is closed under letter permutation.

    All congruence classes are generated from the letter matrices by
    products and affine combinations, and pairwise commutation survives
    both, so checking the letter matrices pairwise suffices.
    """
    _require_minimal(rep)
    letters = [rep.letters[a] for a in rep.alphabet]
    for i, m1 in enumerate(letters):
        for m2 in letters[i + 1 :]:
            if mat_mul(m1, m2) != mat_mul(m2, m1):
                return False
    return True


@dataclass(frozen=True)
class CancellativityCertificate:
    """Witness that congruence classes embed into rational matrices.

    Records the dimension and letter matrices of the minimal
    representation.  In matrix form, mixing with a common first argument is
    injective in the second: equal mixes cancel exactly.
    """

    dimension: int
    letters: dict

    def cancellation_holds(self, x, y, z, r: Fraction) -> bool:
        """Check ``r*x + (1-r)*y == r*x + (1-r)*z  implies  y == z``."""
        if not 0 < r < 1:
            raise InputError("the mixing weight must lie strictly between 0 and 1")
        left = mat_add(mat_scale(r, x), mat_scale(1 - r, y))
        right = mat_add(mat_scale(r, x), mat_scale(1 - r, z))
        if left != right:
            return True
        return y == z


def cancellativity_embedding(rep: LinearRep) -> CancellativityCertificate:
    """Emit the matrix-embedding certificate of a minimised representation."""
    _require_minimal(rep)
    return CancellativityCertificate(dimension=rep.dim, letters=dict(rep.letters))
