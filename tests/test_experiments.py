import pytest

from conftest import (
    adaptive_not_better_report,
    cycle_formula_report,
    nary_report,
    unbounded_boolean_report,
)
from homquery import algorithms as alg
from homquery import experiments, registry
from homquery.algorithms import ParameterError
from homquery.experiments import (
    EXPERIMENTS,
    ExperimentReport,
    _least_queries,
    experiment_cycle_formula,
    experiment_adaptive_not_better,
    experiment_dn,
    experiment_nary,
    experiment_unbounded_boolean,
)
from homquery.query import NonAdaptiveAlgorithm
from homquery.structures import directed_cycle, directed_path

DN_3_TEXT = """\
experiment: dn
param.n: 3
member.m=0: vector=(8, 8, 8) verdict=True adaptive_queries=2
member.m=1: vector=(0, 8, 8) verdict=False adaptive_queries=2
member.m=2: vector=(0, 0, 8) verdict=True adaptive_queries=2
member.m=3: vector=(0, 0, 0) verdict=False adaptive_queries=2
separator-correct: ok
vectors-pairwise-distinct: ok
vectors-match-oracle: ok
adaptive-correct: ok
adaptive-query-bound: 2
adaptive-within-bound: ok
least-non-adaptive-queries: 3
least-adaptive-queries: 2
upper-bounds-optimal: ok
types-match-engine: ok
lower-bound-status: exhaustive over probe types, given the closed form
result: PASS
"""

UNBOUNDED_BOOLEAN_3_TEXT = """\
experiment: unbounded-boolean
param.max_vertices: 3
inputs: 116
left-detector-disagreements: 0
left-detector-correct: ok
left-detector-within-bound: ok
right-detector-disagreements: 0
right-detector-correct: ok
right-detector-within-bound: ok
datalog-disagreements: 0
datalog-cross-check: ok
result: PASS
"""

UNBOUNDED_BOOLEAN_TEXT = """\
experiment: unbounded-boolean
param.max_vertices: 4
inputs: 3160
left-detector-disagreements: 0
left-detector-correct: ok
left-detector-within-bound: ok
right-detector-disagreements: 0
right-detector-correct: ok
right-detector-within-bound: ok
datalog-disagreements: 0
datalog-cross-check: ok
result: PASS
"""

ADAPTIVE_NOT_BETTER_TEXT = """\
experiment: adaptive-not-better
param.k: 1
param.primes: (2, 3)
member.j=1: vector=(36,) accepted=True
member.j=2: vector=(0,) accepted=False
matrix-nonzero-exactly-on-diagonal: ok
accepts-exactly-first-k: ok
brute-force-matrix: [[36, 0]]
brute-force-diagonal-value-36: ok
brute-force-off-diagonal-zero: ok
least-non-adaptive-queries: 1
least-adaptive-queries: 1
upper-bounds-optimal: ok
types-match-engine: ok
lower-bound-status: exhaustive over probe types, given the closed form
result: PASS
"""

CYCLE_FORMULA_TEXT = """\
experiment: cycle-formula
param.max_m: 3
param.max_n: 4
param.max_vertices: 4
cases: 37920
mismatches: 0
formula-matches-oracle: ok
result: PASS
"""

NARY_TEXT = """\
experiment: nary
param.d_max: 3
param.n: 3
cases: 22122
mismatches: 0
formula-matches-oracle: ok
star-of-nary-cycle-is-cycle: ok
result: PASS
"""

DN_6_TEXT = """\
experiment: dn
param.n: 6
member.m=0: vector=(64, 64, 64, 64, 64, 64) verdict=True adaptive_queries=3
member.m=1: vector=(0, 64, 64, 64, 64, 64) verdict=False adaptive_queries=3
member.m=2: vector=(0, 0, 64, 64, 64, 64) verdict=True adaptive_queries=3
member.m=3: vector=(0, 0, 0, 64, 64, 64) verdict=False adaptive_queries=3
member.m=4: vector=(0, 0, 0, 0, 64, 64) verdict=True adaptive_queries=3
member.m=5: vector=(0, 0, 0, 0, 0, 64) verdict=False adaptive_queries=3
member.m=6: vector=(0, 0, 0, 0, 0, 0) verdict=True adaptive_queries=2
separator-correct: ok
vectors-pairwise-distinct: ok
adaptive-correct: ok
adaptive-query-bound: 3
adaptive-within-bound: ok
least-non-adaptive-queries: 6
least-adaptive-queries: 3
upper-bounds-optimal: ok
types-match-engine: ok
lower-bound-status: exhaustive over probe types, given the closed form
result: PASS
"""

ADAPTIVE_NOT_BETTER_2_TEXT = """\
experiment: adaptive-not-better
param.k: 2
param.primes: (2, 3, 5, 7)
member.j=1: vector=(44100, 0) accepted=True
member.j=2: vector=(0, 9261000) accepted=True
member.j=3: vector=(0, 0) accepted=False
member.j=4: vector=(0, 0) accepted=False
matrix-nonzero-exactly-on-diagonal: ok
accepts-exactly-first-k: ok
least-non-adaptive-queries: 2
least-adaptive-queries: 2
upper-bounds-optimal: ok
types-match-engine: ok
lower-bound-status: exhaustive over probe types, given the closed form
result: PASS
"""


def test_report_rendering_and_checks():
    r = ExperimentReport("demo", {"n": 2})
    r.add("value", 7)
    r.check("good", True)
    text = r.render()
    assert "experiment: demo" in text
    assert "param.n: 2" in text
    assert "value: 7" in text
    assert text.rstrip().endswith("PASS")
    # one output form: render takes no format
    with pytest.raises(TypeError):
        r.render("machine")

    r.check("bad", False)
    assert not r.passed
    assert r.render().rstrip().endswith("FAIL")


def test_registered_experiment_ids():
    assert set(EXPERIMENTS) == {"cycle-formula", "dn", "adaptive-not-better",
                                "nary", "unbounded-boolean"}


def test_dn_experiment_passes_for_small_n():
    for n in (1, 2, 3):
        report = experiment_dn(n)
        assert report.passed, report.render()


def test_dn_experiment_guard():
    from homquery.structures import GuardExceeded
    with pytest.raises(GuardExceeded):
        experiment_dn(7)


def test_out_of_range_parameters_raise_parameter_error():
    for call in (lambda: experiment_dn(0),
                 lambda: experiment_cycle_formula(max_vertices=0),
                 lambda: experiment_adaptive_not_better(k=0),
                 lambda: experiment_adaptive_not_better(k=3),
                 lambda: experiment_nary(n=0),
                 lambda: experiment_unbounded_boolean(max_vertices=0)):
        with pytest.raises(ParameterError):
            call()


def test_adaptive_not_better_passes():
    report = adaptive_not_better_report()
    assert report.passed, report.render()


@pytest.mark.parametrize("n, least", [
    (1, (1, 1)), (2, (2, 2)), (3, (3, 2)), (4, (4, 3)), (5, (5, 3)), (6, (6, 3))])
def test_least_queries_on_dn_outcomes(n, least):
    # a probe of type tau = 0..n shows which members m <= tau; members of
    # even m are accepted
    outcomes = [set(range(tau + 1)) for tau in range(n + 1)]
    assert _least_queries(outcomes, [m % 2 == 0 for m in range(n + 1)]) == least


@pytest.mark.parametrize("k, least", [(1, (1, 1)), (2, (2, 2))])
def test_least_queries_on_the_instance_outcomes(k, least):
    # a probe shows no member, one member or all 2k; the first k are accepted
    members = range(2 * k)
    outcomes = [set(), set(members), *({j} for j in members)]
    assert _least_queries(outcomes, [j < k for j in members]) == least


def test_optimality_fails_for_a_separator_one_query_short(monkeypatch):
    full = alg.dn_nonadaptive_separator(3)
    short = NonAdaptiveAlgorithm(full.queries[:-1], frozenset(v[:-1] for v in full.accept))
    built = registry._built
    monkeypatch.setattr(registry, "_built", lambda name, params, lifted:
                        short if name == "dn-sep" else built(name, params, lifted))
    rows = dict(experiment_dn(3).rows)
    assert rows["least-non-adaptive-queries"] == "3"
    assert rows["upper-bounds-optimal"] == "FAILED"


@pytest.mark.parametrize("experiment", [lambda: experiment_dn(3),
                                        experiment_adaptive_not_better],
                         ids=["dn", "adaptive-not-better"])
def test_types_match_engine_fails_for_a_wrong_gamma_zero_probe(monkeypatch, experiment):
    # C_1 has gamma 1, not 0: it maps into no member but D_n's m = 0, while
    # a gamma-0 probe maps into every member
    monkeypatch.setattr(experiments, "directed_path", lambda length: directed_cycle(1))
    rows = dict(experiment().rows)
    assert rows["upper-bounds-optimal"] == "ok"
    assert rows["types-match-engine"] == "FAILED"


def test_nary_experiment_passes():
    report = nary_report()
    assert report.passed, report.render()


def test_experiments_render_deterministically():
    first = experiment_dn(2).render()
    second = experiment_dn(2).render()
    assert first == second


def test_reports_match_frozen_text():
    assert experiment_dn(3).render() == DN_3_TEXT
    assert experiment_unbounded_boolean(3).render() == UNBOUNDED_BOOLEAN_3_TEXT
    assert unbounded_boolean_report().render() == UNBOUNDED_BOOLEAN_TEXT
    assert adaptive_not_better_report().render() == ADAPTIVE_NOT_BETTER_TEXT
    assert cycle_formula_report().render() == CYCLE_FORMULA_TEXT
    assert nary_report().render() == NARY_TEXT
    assert experiment_dn(6).render() == DN_6_TEXT
    assert experiment_adaptive_not_better(k=2).render() == ADAPTIVE_NOT_BETTER_2_TEXT


def _rebuild(monkeypatch, name, wrap):
    "Make the registry build the entry name as wrap of its own build."
    built = registry._built
    monkeypatch.setattr(registry, "_built", lambda entry, params, lifted: (
        wrap(built(entry, params, lifted)) if entry == name else built(entry, params, lifted)))


def pad_left_detector(monkeypatch):
    """
    Make ub-bool-cycle ask two extra queries first.  The experiment's check
    is 2|A| queries, two below the entry's step cap 2(|A|+1): the padded
    detector stays under the cap, and fails the check on the loop, where
    the detector alone takes all 2|A|.
    """
    _rebuild(monkeypatch, "ub-bool-cycle",
             lambda detector: lambda t: directed_path(0) if len(t) < 2 else detector(t[2:]))


def test_left_detector_bound_fails_a_detector_two_queries_longer(monkeypatch):
    pad_left_detector(monkeypatch)
    rows = dict(experiment_unbounded_boolean(1).rows)
    assert rows["left-detector-correct"] == "ok"
    assert rows["left-detector-within-bound"] == "FAILED"


def _negated(strategy):
    "strategy with every verdict turned round."
    def flipped(t):
        decision = strategy(t)
        return not decision if isinstance(decision, bool) else decision
    return flipped


def _slow_to_say_no(strategy):
    "strategy, asking two more queries (P_0) before each NO."
    def delayed(t):
        for back in (2, 1, 0):
            if len(t) >= back and strategy(t[:len(t) - back]) is False:
                return False if back == 2 else directed_path(0)
        return strategy(t)
    return delayed


def _reversed_instance(monkeypatch):
    build = alg.adaptive_not_better_instance

    def reversed_members(k):
        algorithm, structures = build(k)
        return algorithm, structures[::-1]
    monkeypatch.setattr(alg, "adaptive_not_better_instance", reversed_members)


# Each check a report makes, with a fault it must report: the oracle off by
# one, an algorithm that answers wrongly or asks too many queries, a
# Datalog program that answers wrongly, or members out of their order.
FAULTY_RUNS = [
    ("dn", {"n": 3}, "vectors-match-oracle", lambda mp: mp.setattr(
        experiments, "oracle_hom_count",
        lambda a, b, count=experiments.oracle_hom_count: count(a, b) + 1)),
    ("dn", {"n": 3}, "adaptive-correct", lambda mp: _rebuild(mp, "dn-binsearch", _negated)),
    # the entry's step cap n + 1 leaves room for one query past the bound
    ("dn", {"n": 3}, "adaptive-within-bound", lambda mp: _rebuild(
        mp, "dn-binsearch", lambda search: lambda t: directed_cycle(1) if not t else search(t[1:]))),
    ("adaptive-not-better", {}, "matrix-nonzero-exactly-on-diagonal", _reversed_instance),
    ("adaptive-not-better", {}, "accepts-exactly-first-k", _reversed_instance),
    ("unbounded-boolean", {"max_vertices": 1}, "left-detector-correct",
     lambda mp: _rebuild(mp, "ub-bool-cycle", _negated)),
    ("unbounded-boolean", {"max_vertices": 1}, "right-detector-correct",
     lambda mp: _rebuild(mp, "ub-bool-netcycle", _negated)),
    # the loop takes the entry's whole step cap of 4 queries, but the edgeless
    # vertex says NO after 1: delayed, it takes 2 rounds against a bound of 1
    ("unbounded-boolean", {"max_vertices": 1}, "right-detector-within-bound",
     lambda mp: _rebuild(mp, "ub-bool-netcycle", _slow_to_say_no)),
    ("unbounded-boolean", {"max_vertices": 1}, "datalog-cross-check", lambda mp: mp.setattr(
        experiments, "evaluate",
        lambda program, s, evaluate=experiments.evaluate: not evaluate(program, s))),
]


@pytest.mark.parametrize("experiment_id, params, row, fault", FAULTY_RUNS,
                         ids=[f"{e}-{row}" for e, _, row, _ in FAULTY_RUNS])
def test_every_check_fails_on_a_fault(monkeypatch, experiment_id, params, row, fault):
    fault(monkeypatch)
    text = EXPERIMENTS[experiment_id](**params).render()
    assert f"\n{row}: FAILED\n" in text, text
    assert text.endswith("\nresult: FAIL\n")
