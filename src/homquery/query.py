"""
Query algorithms over hom counts: non-adaptive algorithms as a fixed
query tuple plus an acceptance predicate, adaptive algorithms as decision
callbacks over the transcript of answers so far.

Orientation LEFT asks hom(F, input); RIGHT asks hom(input, F).  Answers
are exact integers under the counting semiring and 0/1 under the Boolean
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .homs import COUNT, hom_value
from .structures import SignatureMismatch, Structure

LEFT = "left"
RIGHT = "right"

Transcript = tuple[int, ...]


class StrategyContractError(Exception):
    "The strategy violated the decision-tree contract (leaf condition etc.)."


class StepLimitExceeded(Exception):
    "An adaptive run issued more queries than its step cap allows."


@dataclass(frozen=True)
class Query:
    structure: Structure


@dataclass(frozen=True)
class Halt:
    verdict: bool


StrategyDecision = Union[Query, Halt]
Strategy = Callable[[Transcript], StrategyDecision]


@dataclass(frozen=True)
class NonAdaptiveAlgorithm:
    orientation: str
    queries: tuple[Structure, ...]
    # either a finite set of accepted answer vectors or a predicate
    accept: Union[frozenset, Callable[[Transcript], bool]]

    def __post_init__(self):
        if self.orientation not in (LEFT, RIGHT):
            raise ValueError("orientation must be left or right")
        if len(self.queries) < 1:
            raise ValueError("at least one query is required")

    def accepts(self, answers: Transcript) -> bool:
        if callable(self.accept):
            return bool(self.accept(answers))
        return tuple(answers) in self.accept


@dataclass(frozen=True)
class RunReport:
    verdict: bool
    transcript: Transcript
    queries_issued: tuple[Structure, ...] = field(hash=False)

    @property
    def query_count(self) -> int:
        return len(self.transcript)


def _answer(query: Structure, input_structure: Structure,
            orientation: str, semiring: str) -> int:
    # as in homs._run: most probes share the input's Signature object
    if (query.signature is not input_structure.signature
            and query.signature != input_structure.signature):
        raise SignatureMismatch("query signature does not match the input")
    if orientation == LEFT:
        return hom_value(query, input_structure, semiring)
    return hom_value(input_structure, query, semiring)


def run_non_adaptive(alg: NonAdaptiveAlgorithm, input_structure: Structure,
                     semiring: str = COUNT) -> RunReport:
    answers = tuple(_answer(q, input_structure, alg.orientation, semiring)
                    for q in alg.queries)
    return RunReport(alg.accepts(answers), answers, alg.queries)


def default_step_cap(input_structure: Structure) -> int:
    n = input_structure.domain_size
    return 2 * n + n * n


def run_adaptive(strategy: Strategy, input_structure: Structure,
                 orientation: str, semiring: str = COUNT,
                 max_steps: Optional[int] = None) -> RunReport:
    """
    Iterate the strategy on the growing transcript until it halts.
    max_steps=None applies default_step_cap, 2*|input| + |input|^2;
    exceeding the cap is an error, never a verdict.  A LookupError raised
    by the strategy means it is undefined on a transcript the run reached,
    and becomes StrategyContractError; every other exception keeps its type.
    """
    if max_steps is None:
        max_steps = default_step_cap(input_structure)
    transcript: Transcript = ()
    issued: list[Structure] = []
    while True:
        try:
            decision = strategy(transcript)
        except LookupError as exc:
            raise StrategyContractError(
                f"strategy undefined on reachable transcript {transcript}") from exc
        if isinstance(decision, Halt):
            return RunReport(decision.verdict, transcript, tuple(issued))
        if not isinstance(decision, Query):
            raise StrategyContractError(f"invalid decision {decision!r}")
        if len(issued) >= max_steps:
            raise StepLimitExceeded(f"exceeded step cap {max_steps}")
        answer = _answer(decision.structure, input_structure, orientation, semiring)
        issued.append(decision.structure)
        transcript = transcript + (answer,)


def flatten_adaptive_boolean(strategy: Strategy, k: int,
                             orientation: str) -> NonAdaptiveAlgorithm:
    """
    Turn a depth-<=k Boolean adaptive strategy into a non-adaptive
    algorithm by materializing every query reachable within k steps
    (at most 2^k - 1 of them, one per internal tree node).  As in
    run_adaptive, only a LookupError from the strategy becomes
    StrategyContractError.
    """
    nodes: dict[Transcript, Structure] = {}

    def explore(transcript: Transcript):
        try:
            decision = strategy(transcript)
        except LookupError as exc:
            raise StrategyContractError(
                f"strategy undefined on transcript {transcript}") from exc
        if isinstance(decision, Halt):
            return
        if len(transcript) >= k:
            raise StrategyContractError(
                f"strategy exceeds depth {k} on transcript {transcript}")
        nodes[transcript] = decision.structure
        for bit in (0, 1):
            explore(transcript + (bit,))

    explore(())
    ordered = sorted(nodes)  # breadth-like, deterministic
    ordered.sort(key=len)
    index = {t: i for i, t in enumerate(ordered)}
    queries = tuple(nodes[t] for t in ordered)

    def accept(answers: Transcript) -> bool:
        transcript: Transcript = ()
        while True:
            decision = strategy(transcript)
            if isinstance(decision, Halt):
                return decision.verdict
            transcript = transcript + (answers[index[transcript]],)

    return NonAdaptiveAlgorithm(orientation, queries, accept)
