"""Separation of regular languages by piecewise testable languages:
deciders, separator construction, tower measurements, and the lower-bound
automata families."""

from .automata import (
    Automaton,
    automaton_from_dict,
    automaton_to_dict,
    complement,
    complete,
    determinize,
    includes,
    intersection,
    is_empty,
    load_automaton,
    minimal_dfa,
    normalize_alphabets,
    save_automaton,
    trim,
)
from .closures import down_determinize, is_subsequence
from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    InvalidWord,
    NotDeterministic,
    PtsepError,
    SchemaError,
)
from .families import (
    Circuit,
    DeterminizationTransform,
    FamilyInstance,
    Gate,
    eval_circuit,
    find_accepting_path,
    gen_2exp,
    gen_exp,
    gen_expdfa,
    gen_mcvp,
    gen_quadratic,
    gen_reachability,
    gen_universality,
    single_initial,
    tower_preserving_determinization,
    transform_tower,
)
from .oracles import TowerSearch, brute_max_tower_height, enumerate_language, reachability
from .prefixes import Pattern, find_pattern, materialize_prefix_tower, max_prefix_tower_height
from .ptcheck import is_piecewise_testable
from .towers import (
    RefinementChain,
    SeparationResult,
    Tower,
    check_tower,
    decide_separability,
    upper_bound_height,
    verify_tower,
)

__version__ = "0.1.0"
