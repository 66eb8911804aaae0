"""
Homomorphism-count query algorithms over finite relational structures:
structures and constructors, structural parameters, exact hom counting
with closed forms for cycle unions, adaptive/non-adaptive query
algorithm runners, a minimal Datalog evaluator, and brute-force oracles.
"""

from .structures import (
    Signature,
    Structure,
    DIGRAPH_SIG,
    GuardExceeded,
    complete_pair,
    complete_singleton,
    decode_structure,
    digraph,
    direct_product,
    directed_cycle,
    directed_path,
    disjoint_union,
    encode_structure,
    guards_lifted,
    isomorphic,
    make_structure,
    n_ary_cycle,
    scalar_multiple,
)
from .analysis import (
    component_count,
    core,
    gamma,
    hom_equiv_to_acyclic,
    is_berge_acyclic,
    star_transform,
)
from .homs import (
    BOOLEAN,
    COUNT,
    WorkBudgetExceeded,
    hom_count,
    hom_exists,
    hom_into_cycle_union_formula,
    hom_into_nary_cycle_union_formula,
)
from .query import (
    LEFT,
    RIGHT,
    NonAdaptiveAlgorithm,
    RunReport,
    StrategyContractError,
    flatten_adaptive_boolean,
    run_adaptive,
    run_non_adaptive,
)
from .oracle import oracle_gamma, oracle_hom_count
from .catalog import enumerate_digraphs, enumerate_digraphs_upto
from .datalog import builtin_programs, classify_program, evaluate, parse_program
from .registry import REGISTRY, run_registered
