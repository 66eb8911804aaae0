import re

import pytest
from hypothesis import given, settings

from conftest import small_digraphs
from homquery.homs import BOOLEAN, WorkBudgetExceeded, hom_count, hom_exists
from homquery.query import (
    LEFT,
    RIGHT,
    NonAdaptiveAlgorithm,
    StepLimitExceeded,
    StrategyContractError,
    flatten_adaptive_boolean,
    run_adaptive,
    run_non_adaptive,
)
from homquery.structures import (
    Signature,
    complete_singleton,
    digraph,
    directed_cycle,
    directed_path,
)


def test_non_adaptive_validation():
    # the orientation is checked before any query: this one would not fit the input
    unary = NonAdaptiveAlgorithm((complete_singleton(Signature((("P", 1),))),), frozenset())
    with pytest.raises(ValueError, match="^orientation must be left or right$"):
        run_non_adaptive(unary, directed_cycle(3), "sideways")
    # no query decides a constant class, under either form of accept
    for accept, verdict in ((frozenset({()}), True), (frozenset(), False),
                            (lambda t: t == (), True)):
        report = run_non_adaptive(NonAdaptiveAlgorithm((), accept), directed_cycle(3), LEFT)
        assert (report.verdict, report.transcript, report.queries_issued) == (verdict, (), ())
    # queries are frozen, so the algorithm hashes
    q = (directed_path(1),)
    listed = NonAdaptiveAlgorithm(list(q), frozenset())
    assert listed.queries == q and hash(listed) == hash(NonAdaptiveAlgorithm(q, frozenset()))
    # an adaptive run reads its orientation through the same check
    with pytest.raises(ValueError, match="^orientation must be left or right$"):
        run_adaptive(even_edge_strategy, directed_cycle(3), "sideways", max_steps=1)


def test_run_non_adaptive_left_and_right():
    count_edges = NonAdaptiveAlgorithm((directed_path(1),), lambda t: t[0] >= 3)
    report = run_non_adaptive(count_edges, directed_cycle(3), LEFT)
    assert report.verdict and report.transcript == (3,)
    assert report.query_count == 1

    fits_in_c2 = NonAdaptiveAlgorithm((directed_cycle(2),), lambda t: t[0] > 0)
    assert run_non_adaptive(fits_in_c2, directed_cycle(4), RIGHT).verdict
    assert not run_non_adaptive(fits_in_c2, directed_cycle(3), RIGHT).verdict


def test_run_non_adaptive_accept_set_and_boolean():
    alg = NonAdaptiveAlgorithm((directed_path(1), directed_cycle(2)), frozenset({(1, 1)}))
    report = run_non_adaptive(alg, directed_cycle(2), LEFT, semiring=BOOLEAN)
    assert report.verdict and report.transcript == (1, 1)
    assert not run_non_adaptive(alg, directed_path(3), LEFT, semiring=BOOLEAN).verdict


def test_signature_mismatch_rejected():
    unary = complete_singleton(Signature((("P", 1),)))
    alg = NonAdaptiveAlgorithm((unary,), lambda t: True)
    with pytest.raises(ValueError):
        run_non_adaptive(alg, directed_cycle(2), LEFT)


def even_edge_strategy(transcript):
    # one query: is the number of edges even?
    if not transcript:
        return directed_path(1)
    if len(transcript) == 1:
        return transcript[0] % 2 == 0
    raise StrategyContractError("probed past halt")


def test_run_adaptive_basic():
    report = run_adaptive(even_edge_strategy, directed_cycle(4), LEFT, max_steps=1)
    assert report.verdict and report.transcript == (4,)
    report = run_adaptive(even_edge_strategy, directed_cycle(3), LEFT, max_steps=1)
    assert not report.verdict


def test_run_adaptive_default_step_cap():
    def never_halts(transcript):
        return directed_path(1)

    # there is no default cap: the caller states it
    with pytest.raises(TypeError):
        run_adaptive(never_halts, directed_cycle(2), LEFT)
    # a generous explicit cap is honored
    with pytest.raises(StepLimitExceeded):
        run_adaptive(never_halts, directed_cycle(2), LEFT, max_steps=50)


def test_run_adaptive_contract_errors():
    def undefined(transcript):
        raise KeyError(transcript)

    with pytest.raises(StrategyContractError):
        run_adaptive(undefined, directed_cycle(2), LEFT, max_steps=4)


def _one_probe_then(leaf):
    "A strategy that asks P_1 and then decides leaf."
    return lambda transcript: leaf if transcript else directed_path(1)


@pytest.mark.parametrize("verdict", [True, False])
def test_a_structure_and_a_bool_are_decisions(verdict):
    strategy = _one_probe_then(verdict)
    report = run_adaptive(strategy, directed_cycle(2), LEFT, max_steps=1)
    assert (report.verdict, report.transcript, report.queries_issued) == \
        (verdict, (2,), (directed_path(1),))
    flat = flatten_adaptive_boolean(strategy, 1)
    assert flat.queries == (directed_path(1),)
    assert run_non_adaptive(flat, directed_cycle(2), LEFT, BOOLEAN).verdict is verdict


@pytest.mark.parametrize("leaf", [1, 0, None, "halt"], ids=["1", "0", "None", "str"])
def test_other_decisions_break_the_contract(leaf):
    # a truthy or falsy int is no verdict, and neither is None or a string
    message = f"^invalid decision {re.escape(repr(leaf))}$"
    with pytest.raises(StrategyContractError, match=message):
        run_adaptive(_one_probe_then(leaf), directed_cycle(2), LEFT, max_steps=4)
    with pytest.raises(StrategyContractError, match=message):
        flatten_adaptive_boolean(_one_probe_then(leaf), 1)


def _raising(exc):
    def strategy(transcript):
        raise exc
    return strategy


@pytest.mark.parametrize("exc", [KeyError((1,)), IndexError("transcript index")],
                         ids=["KeyError", "IndexError"])
def test_lookup_errors_become_contract_errors(exc):
    # a lookup failure means the strategy is undefined on a reached transcript
    with pytest.raises(StrategyContractError) as info:
        run_adaptive(_raising(exc), directed_cycle(2), LEFT, max_steps=4)
    assert info.value.__cause__ is exc
    with pytest.raises(StrategyContractError):
        flatten_adaptive_boolean(_raising(exc), 2)


@pytest.mark.parametrize("exc", [WorkBudgetExceeded("search exceeded 10 nodes"),
                                 StepLimitExceeded("exceeded step cap 4"),
                                 TypeError("bug in the strategy")],
                         ids=["WorkBudgetExceeded", "StepLimitExceeded", "TypeError"])
def test_refusals_and_bugs_keep_their_type(exc):
    with pytest.raises(type(exc)) as info:
        run_adaptive(_raising(exc), directed_cycle(2), LEFT, max_steps=4)
    assert info.value is exc
    with pytest.raises(type(exc)) as info:
        flatten_adaptive_boolean(_raising(exc), 2)
    assert info.value is exc


def adaptive_loop_then_c2(transcript):
    # asks for a loop first; only loop-free inputs get the second query
    if not transcript:
        return directed_cycle(1)
    if transcript[0] == 1:
        return False
    if len(transcript) == 1:
        return directed_cycle(2)
    return transcript[1] == 1


def test_flatten_adaptive_boolean():
    # one flattening runs in either orientation, as the strategy does
    flat = flatten_adaptive_boolean(adaptive_loop_then_c2, 2)
    assert flat.queries == (directed_cycle(1), directed_cycle(2))
    for orientation in (LEFT, RIGHT):
        for s in (directed_cycle(1), directed_cycle(2), directed_cycle(3),
                  directed_path(2), digraph(2, set())):
            adaptive = run_adaptive(adaptive_loop_then_c2, s, orientation, BOOLEAN,
                                    max_steps=2)
            assert run_non_adaptive(flat, s, orientation, BOOLEAN).verdict == adaptive.verdict


def test_flatten_orders_queries_by_length_then_lexicographically():
    # the full depth-3 tree asks P_r at the r-th transcript in that order
    order = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]

    def full_tree(t):
        return directed_path(order.index(t)) if len(t) < 3 else sum(t) == 3

    flat = flatten_adaptive_boolean(full_tree, 3)
    assert flat.queries == tuple(directed_path(r) for r in range(7))
    # the replay reads each answer at its transcript's place in that order
    for s in (directed_cycle(1), directed_path(2), directed_path(5)):
        adaptive = run_adaptive(full_tree, s, LEFT, BOOLEAN, max_steps=3)
        assert run_non_adaptive(flat, s, LEFT, BOOLEAN).verdict == adaptive.verdict


def test_flatten_a_strategy_that_halts_at_once():
    # a constant class is decided with no query, so its flattening asks none
    for verdict in (True, False):
        flat = flatten_adaptive_boolean(lambda t: verdict, 1)
        assert flat.queries == ()
        for orientation in (LEFT, RIGHT):
            for s in (directed_cycle(1), directed_path(2), digraph(2, set())):
                report = run_non_adaptive(flat, s, orientation, BOOLEAN)
                assert (report.verdict, report.transcript) == (verdict, ())
        # a run of the zero-query result still checks its orientation
        with pytest.raises(ValueError):
            run_non_adaptive(flat, directed_cycle(1), "sideways", BOOLEAN)


def test_flatten_rejects_deep_strategies():
    with pytest.raises(StrategyContractError):
        flatten_adaptive_boolean(adaptive_loop_then_c2, 1)


@settings(max_examples=60, deadline=None)
@given(small_digraphs(max_vertices=3), small_digraphs(max_vertices=3))
def test_boolean_runs_are_hom_equivalence_invariant(a, b):
    # Boolean answers only see the hom-equivalence class of the input
    if not (hom_exists(a, b) and hom_exists(b, a)):
        return
    alg = NonAdaptiveAlgorithm((directed_path(1), directed_cycle(2), directed_cycle(3)),
                               lambda t: sum(t) % 2 == 0)
    assert run_non_adaptive(alg, a, LEFT, BOOLEAN).transcript == \
        run_non_adaptive(alg, b, LEFT, BOOLEAN).transcript


def test_run_reports_are_deterministic():
    alg = NonAdaptiveAlgorithm((directed_path(2),), lambda t: t[0] > 0)
    r1 = run_non_adaptive(alg, directed_cycle(3), LEFT)
    r2 = run_non_adaptive(alg, directed_cycle(3), LEFT)
    assert r1 == r2
    assert hom_count(directed_path(2), directed_cycle(3)) == r1.transcript[0]
