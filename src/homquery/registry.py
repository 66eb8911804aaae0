"""
Stable algorithm registry for the CLI and the experiment harness.

Each entry states its orientation and semiring, how to build the
runnable (non-adaptive algorithm or adaptive strategy) and, for an
adaptive one, a safe step cap on a given input and parameters.  These are
the one statement of each: run_registered passes the orientation and
semiring to either runner and the cap to run_adaptive, and the
experiments run the registered algorithms through it, which builds each
entry once per parameter set.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from . import algorithms as alg
from .catalog import enumerate_digraphs_upto
from .homs import BOOLEAN, COUNT
from .oracle import has_directed_cycle
from .query import (
    LEFT,
    RIGHT,
    NonAdaptiveAlgorithm,
    RunReport,
    run_adaptive,
    run_non_adaptive,
)
from .structures import CACHE_SIZE, Signature, Structure, _guards_lifted


class AlgorithmEntry(NamedTuple):
    orientation: str
    semiring: str
    build: Callable[..., object]          # (**params) -> strategy or NonAdaptiveAlgorithm
    step_cap: Optional[Callable[..., int]] = None   # (input, **params); adaptive entries only


UNARY_PQ_SIG = Signature((("P", 1), ("Q", 1)))
DN_DEFAULT_N = 2  # n of dn-sep and dn-binsearch when none is given


def some_element_in_all_predicates(s: Structure) -> bool:
    return any(all((e,) in s.relations[name] for name in s.signature.names)
               for e in s.domain)


REGISTRY: dict[str, AlgorithmEntry] = {
    "cycle2q": AlgorithmEntry(
        LEFT, COUNT,
        build=alg.cycle_detector_2query,
        step_cap=lambda s: 2),
    "lovasz": AlgorithmEntry(
        LEFT, COUNT,
        build=lambda: alg.lovasz_universal_decider(has_directed_cycle),
        step_cap=lambda s: 1 + len(enumerate_digraphs_upto(s.domain_size))),
    "dn-sep": AlgorithmEntry(
        LEFT, COUNT,
        build=lambda n=DN_DEFAULT_N: alg.dn_nonadaptive_separator(n)),
    "dn-binsearch": AlgorithmEntry(
        LEFT, COUNT,
        build=lambda n=DN_DEFAULT_N: alg.dn_adaptive_binary_search(n),
        step_cap=lambda s, n=DN_DEFAULT_N: n + 1),  # D_n's member count > n.bit_length()
    "unary-full": AlgorithmEntry(
        LEFT, COUNT,
        build=lambda: alg.unary_full_decider(UNARY_PQ_SIG, some_element_in_all_predicates)),
    "right2q": AlgorithmEntry(
        RIGHT, COUNT,
        build=lambda: alg.right_two_query_decider(has_directed_cycle),
        step_cap=lambda s: 2),
    "ub-bool-cycle": AlgorithmEntry(
        LEFT, BOOLEAN,
        build=alg.unbounded_boolean_cycle_detector,
        step_cap=lambda s: 2 * (s.domain_size + 1)),
    "ub-bool-netcycle": AlgorithmEntry(
        RIGHT, BOOLEAN,
        build=alg.unbounded_boolean_nonzero_net_cycle_detector,
        step_cap=lambda s: 2 * max(s.domain_size + 1, 2)),
}


# Every build is a stateless closure or a frozen NonAdaptiveAlgorithm whose
# probes depend on the parameters alone, so one build serves every input.  A
# build checks its parameters' guards, so a build made with the guards lifted
# is kept apart from one made without.
@lru_cache(maxsize=CACHE_SIZE)
def _built(name: str, params: tuple, lifted: bool):
    return REGISTRY[name].build(**dict(params))


def run_registered(name: str, input_structure: Structure, **params) -> RunReport:
    "Run the named algorithm, built once per parameter set, on the input."
    entry = REGISTRY[name]
    runnable = _built(name, tuple(sorted(params.items())), _guards_lifted.get())
    if isinstance(runnable, NonAdaptiveAlgorithm):
        return run_non_adaptive(runnable, input_structure, entry.orientation,
                                entry.semiring)
    return run_adaptive(runnable, input_structure, entry.orientation,
                        entry.semiring, max_steps=entry.step_cap(input_structure, **params))
