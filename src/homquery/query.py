"""
Runners of query algorithms over hom counts: non-adaptive algorithms as
a fixed query tuple plus an acceptance predicate, adaptive algorithms as
decision callbacks over the transcript of answers so far, each returning
the next probe structure or, at a leaf of the decision tree, its bool
verdict.

Both runners take the orientation at run time: LEFT asks hom(F, input),
RIGHT asks hom(input, F).  Answers are exact integers under the counting
semiring and 0/1 under the Boolean one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

from .homs import COUNT, hom_value
from .structures import Structure

LEFT = "left"
RIGHT = "right"

Transcript = tuple[int, ...]


class StrategyContractError(Exception):
    "The strategy violated the decision-tree contract (leaf condition etc.)."


class StepLimitExceeded(Exception):
    "An adaptive run issued more queries than its step cap allows."


StrategyDecision = Union[Structure, bool]  # the next probe, or the verdict
Strategy = Callable[[Transcript], StrategyDecision]


def _check_orientation(orientation: str):
    if orientation not in (LEFT, RIGHT):
        raise ValueError("orientation must be left or right")


def _decide(strategy: Strategy, transcript: Transcript) -> StrategyDecision:
    """
    The strategy's decision on a transcript the run reached.  A LookupError
    from the strategy means it is undefined there, and a decision that is
    neither a Structure nor a bool (an int or None is no verdict) breaks
    the contract: both become StrategyContractError.  Every other
    exception keeps its type.
    """
    try:
        decision = strategy(transcript)
    except LookupError as exc:
        raise StrategyContractError(
            f"strategy undefined on reachable transcript {transcript}") from exc
    if not isinstance(decision, (Structure, bool)):
        raise StrategyContractError(f"invalid decision {decision!r}")
    return decision


@dataclass(frozen=True)
class NonAdaptiveAlgorithm:
    # none decides a constant class: accept reads the empty transcript
    queries: tuple[Structure, ...]
    # either a finite set of accepted answer vectors or a predicate
    accept: Union[frozenset, Callable[[Transcript], bool]]

    def __post_init__(self):
        object.__setattr__(self, "queries", tuple(self.queries))

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
    if orientation == LEFT:
        return hom_value(query, input_structure, semiring)
    return hom_value(input_structure, query, semiring)


def run_non_adaptive(alg: NonAdaptiveAlgorithm, input_structure: Structure,
                     orientation: str, semiring: str = COUNT) -> RunReport:
    _check_orientation(orientation)
    answers = tuple(_answer(q, input_structure, orientation, semiring)
                    for q in alg.queries)
    return RunReport(alg.accepts(answers), answers, alg.queries)


def run_adaptive(strategy: Strategy, input_structure: Structure,
                 orientation: str, semiring: str = COUNT, *,
                 max_steps: int) -> RunReport:
    """
    Iterate the strategy on the growing transcript until it halts.  There
    is no default step cap: the caller states it (run_registered passes its
    registry entry's), and exceeding it is an error, never a verdict.  Each
    step goes through _decide: a LookupError from the strategy, or a
    decision that is neither a Structure nor a bool, becomes
    StrategyContractError.
    """
    _check_orientation(orientation)
    transcript: Transcript = ()
    issued: list[Structure] = []
    while True:
        decision = _decide(strategy, transcript)
        if isinstance(decision, bool):
            return RunReport(decision, transcript, tuple(issued))
        if len(issued) >= max_steps:
            raise StepLimitExceeded(f"exceeded step cap {max_steps}")
        answer = _answer(decision, input_structure, orientation, semiring)
        issued.append(decision)
        transcript = transcript + (answer,)


def flatten_adaptive_boolean(strategy: Strategy, k: int) -> NonAdaptiveAlgorithm:
    """
    Turn a depth-<=k Boolean adaptive strategy into a non-adaptive
    algorithm by materializing every query reachable within k steps (at
    most 2^k - 1, one per internal tree node, none if it halts at once),
    breadth first, so by transcript length and then lexicographically.
    Exploring the tree and replaying it in the acceptance predicate both
    step through _decide, so a strategy breaks the contract here exactly
    when it would in run_adaptive.  The result runs in either orientation,
    as the strategy does.
    """
    index: dict[Transcript, int] = {}
    queries: list[Structure] = []
    frontier: list[Transcript] = [()]
    for transcript in frontier:  # the loop reaches the children it appends
        decision = _decide(strategy, transcript)
        if isinstance(decision, bool):
            continue
        if len(transcript) >= k:
            raise StrategyContractError(
                f"strategy exceeds depth {k} on transcript {transcript}")
        index[transcript] = len(queries)
        queries.append(decision)
        frontier += (transcript + (0,), transcript + (1,))

    def accept(answers: Transcript) -> bool:
        transcript: Transcript = ()
        while True:
            decision = _decide(strategy, transcript)
            if isinstance(decision, bool):
                return decision
            transcript = transcript + (answers[index[transcript]],)

    return NonAdaptiveAlgorithm(queries, accept)
