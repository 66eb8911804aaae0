"""
Stable algorithm registry for the CLI and the experiment harness.

Each entry knows its orientation, semiring, how to build the runnable
(non-adaptive algorithm or adaptive strategy) and a safe step cap for
adaptive runs on a given input.  These caps are the one statement of
each step cap: the experiments run the adaptive algorithms through
run_registered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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
from .structures import Signature, Structure


@dataclass(frozen=True)
class AlgorithmEntry:
    name: str
    orientation: str
    semiring: str
    adaptive: bool
    build: Callable[..., object]          # (**params) -> strategy or NonAdaptiveAlgorithm
    step_cap: Optional[Callable[[Structure], int]] = None
    description: str = ""


DEFAULT_DIGRAPH_CLASS = alg.ClassPredicate("has-directed-cycle", has_directed_cycle)

UNARY_PQ_SIG = Signature((("P", 1), ("Q", 1)))
DEFAULT_UNARY_CLASS = alg.ClassPredicate(
    "some-element-in-all-predicates",
    lambda s: any(all((e,) in s.relations[name] for name in s.signature.names)
                  for e in s.domain))


def _lovasz_cap(size_cap: int) -> Callable[[Structure], int]:
    return lambda s: 1 + len(enumerate_digraphs_upto(min(s.domain_size, size_cap)))


REGISTRY: dict[str, AlgorithmEntry] = {}


def _register(entry: AlgorithmEntry):
    REGISTRY[entry.name] = entry


_register(AlgorithmEntry(
    "cycle2q", LEFT, COUNT, adaptive=True,
    build=lambda **_: alg.cycle_detector_2query(),
    step_cap=lambda s: 2,
    description="two counting queries deciding 'has a directed cycle'"))

_register(AlgorithmEntry(
    "lovasz", LEFT, COUNT, adaptive=True,
    build=lambda predicate=DEFAULT_DIGRAPH_CLASS, size_cap=3, **_:
        alg.lovasz_universal_decider(predicate, size_cap=size_cap),
    step_cap=_lovasz_cap(3),
    description="identify the input up to isomorphism, then apply the class predicate"))

_register(AlgorithmEntry(
    "dn-sep", LEFT, COUNT, adaptive=False,
    build=lambda n=2, **_: alg.dn_nonadaptive_separator(n),
    description="n fixed cycle queries separating the even/odd power-cycle families"))

_register(AlgorithmEntry(
    "dn-binsearch", LEFT, COUNT, adaptive=True,
    build=lambda n=2, **_: alg.dn_adaptive_binary_search(n),
    step_cap=lambda s: max(1, (s.domain_size + 1).bit_length()),
    description="binary search over the power-cycle promise family"))

_register(AlgorithmEntry(
    "unary-full", LEFT, COUNT, adaptive=False,
    build=lambda sig=UNARY_PQ_SIG, predicate=DEFAULT_UNARY_CLASS, **_:
        alg.unary_full_decider(sig, predicate),
    description="2^k singleton queries deciding any class over a unary signature"))

_register(AlgorithmEntry(
    "right2q", RIGHT, COUNT, adaptive=True,
    build=lambda predicate=DEFAULT_DIGRAPH_CLASS, size_cap=2, **_:
        alg.right_two_query_decider(predicate, size_cap=size_cap),
    step_cap=lambda s: 2,
    description="size from the complete pair, then one distinguishing query"))

_register(AlgorithmEntry(
    "ub-bool-cycle", LEFT, BOOLEAN, adaptive=True,
    build=lambda **_: alg.unbounded_boolean_cycle_detector(),
    step_cap=lambda s: 2 * (s.domain_size + 1),
    description="unbounded Boolean left detector for directed cycles"))

_register(AlgorithmEntry(
    "ub-bool-netcycle", RIGHT, BOOLEAN, adaptive=True,
    build=lambda **_: alg.unbounded_boolean_nonzero_net_cycle_detector(),
    step_cap=lambda s: 2 * max(s.domain_size + 1, 2),
    description="unbounded Boolean right detector for nonzero-net-length cycles"))


def run_registered(name: str, input_structure: Structure, **params) -> RunReport:
    entry = REGISTRY[name]
    runnable = entry.build(**params)
    if entry.adaptive:
        cap = entry.step_cap(input_structure) if entry.step_cap else None
        return run_adaptive(runnable, input_structure, entry.orientation,
                            entry.semiring, max_steps=cap)
    if not isinstance(runnable, NonAdaptiveAlgorithm):
        raise TypeError(f"{name} did not build a non-adaptive algorithm")
    return run_non_adaptive(runnable, input_structure, entry.semiring)
