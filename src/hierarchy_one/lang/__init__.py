"""Patterns and complete DFAs: parsing, compilation, boolean algebra."""

from .patterns import (
    ALPHABET_CHARS,
    Concat,
    Empty,
    Epsilon,
    Letter,
    Pattern,
    Plus,
    Star,
    Union,
    normalize_alphabet,
    parse_pattern,
    pattern_to_text,
)
from .dfa import (
    Dfa,
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
    words_of_length,
)
