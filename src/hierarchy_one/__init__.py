"""hierarchy-one: decide level-one concatenation-hierarchy membership.

Given a regular language L and a base class of group languages G (trivial,
modular, alphabet-modular, all groups, or a custom finite group), decide
whether L belongs to Pol(G), BPol(G), Pol(G⁺), or BPol(G⁺) by checking the
characteristic inequations on the syntactic monoid of L.
"""

from .errors import AlphabetError, BudgetError, PatternError, UsageError
from .lang import (
    Dfa,
    Pattern,
    combine,
    compile_dfa,
    dfa_from_dict,
    dfa_to_dict,
    equivalent,
    includes,
    is_empty,
    is_permutation_automaton,
    minimal_dfa,
    minimize,
    normalize_alphabet,
    parse_pattern,
    pattern_to_text,
)
from .monoid import (
    OrderRelation,
    StableInfo,
    SyntacticMorphism,
    is_group,
    stable_sequence,
    syntactic_preorder,
    transition_monoid,
)
from .pairs import (
    GroupPresentation,
    PairRelation,
    amt_pairs,
    cyclic_length_group,
    group_from_dict,
    group_morphism_pairs,
    mod_pairs,
    parikh_group,
    st_pairs,
    trivial_group,
)
from .membership import (
    Report,
    Verdict,
    ViolationWitness,
    check_bpol_group,
    check_bpol_group_plus,
    check_pol_group,
    check_pol_group_plus,
    check_specialized,
    class_name,
    decide,
    verify_witness,
)
from .covers import (
    CoverResult,
    GuardedDecomposition,
    guarded_decomposition,
    pgcov_cover,
    up_arrow,
)

__version__ = "0.1.0"
