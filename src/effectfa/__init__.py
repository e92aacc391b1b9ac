"""Effectful finite automata over exact rational arithmetic.

The package is organised around one finite-automaton type whose transition
effect is pluggable -- probability distributions, semiring-weighted vectors,
or convex sets of distributions -- together with exact translations between
automata and algebraic recognizers, decidable syntactic congruence for
rational-valued languages, and a one-player rewriting game on distributions
over the powers of a single letter.
"""

from .automata import (
    EffAutomaton,
    INTERVAL_MAX,
    INTERVAL_MIN,
    INTERVAL_PAIR,
    OutputAlgebra,
    SEMIRING_SELF,
    UNIT_INTERVAL,
    convex_output,
    disagreements,
    eval_npfa,
    eval_pfa_pathsum,
    eval_word,
    is_pure_automaton,
    iterated_transition,
    outputs_equal,
    purify_initial,
    word_values,
    words_upto,
)
from .effects import (
    CONVEX,
    Channel,
    ConvexSet,
    DIST,
    Dist,
    Monad,
    WeightedVec,
    bind,
    check_affine,
    check_central,
    convex_normalize,
    decompose_channel,
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
from .exactnum import (
    INF,
    NEG_INF,
    Rational,
    SemiringDescriptor,
    parse_rational,
    semiring_builtin,
    semiring_check,
)
from .monoids import (
    EffMorphism,
    FinMonoid,
    classical_syntactic_monoid,
    free_extension_word,
    function_monoid,
    tm_multiply,
    transition_monoid_closure,
    verify_effectful_morphism,
)
from .recognition import (
    BialgRecognizer,
    EffRecognizer,
    automaton_to_bialgebra,
    automaton_to_recognizer,
    bialgebra_to_automaton,
    recognizer_to_automaton,
    verify_recognition,
    witness_xi0,
    xi_preimage,
)
from .syntactic import (
    FormalCombo,
    LinearRep,
    bounded_context_oracle,
    cancellativity_embedding,
    combo_matrix,
    from_linear,
    is_commutative,
    minimize,
    syn_congruent,
    syn_eval,
    to_linear,
)
from .convexgame import (
    Move,
    Position,
    apply_rule,
    canonical_rep,
    expected_value,
    find_holes,
    is_winning,
    solve,
    spread,
    sweep,
)

__version__ = "0.1.0"
