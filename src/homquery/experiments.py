"""
Reproducible desk-scale experiments cross-checking every closed form
against brute force and the separation constructions' query counts
against exact lower bounds over probe types.  Each experiment is a pure
function of its parameters and renders to a stable report of
"key: value" lines, split at the first ": ", ending in PASS/FAIL.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache

from . import algorithms as alg
from .analysis import gamma, star_transform
from .catalog import enumerate_digraphs_upto
from .datalog import builtin_programs, evaluate
from .homs import (
    hom_count,
    hom_into_cycle_union_formula,
    hom_into_nary_cycle_union_formula,
)
from .oracle import has_directed_cycle, oracle_hom_count
from .query import LEFT, run_non_adaptive
from .registry import run_registered
from .structures import (
    Signature,
    Structure,
    check_guard,
    directed_cycle,
    directed_path,
    isomorphic,
    n_ary_cycle,
    scalar_multiple,
)


@dataclass
class ExperimentReport:
    experiment: str
    parameters: dict
    rows: list = field(default_factory=list)
    passed: bool = True

    def add(self, key, value):
        self.rows.append((str(key), str(value)))

    def check(self, key, ok: bool):
        self.add(key, "ok" if ok else "FAILED")
        if not ok:
            self.passed = False

    def render(self) -> str:
        rows = [("experiment", self.experiment),
                *((f"param.{key}", self.parameters[key]) for key in sorted(self.parameters)),
                *self.rows, ("result", "PASS" if self.passed else "FAIL")]
        return "".join(f"{key}: {value}\n" for key, value in rows)


def _tally_formula(report: ExperimentReport, pairs) -> None:
    "Report the cases and mismatches of (closed form, oracle) count pairs; none may differ."
    cases = mismatches = 0
    for observed, expected in pairs:
        cases += 1
        mismatches += observed != expected
    report.add("cases", cases)
    report.add("mismatches", mismatches)
    report.check("formula-matches-oracle", mismatches == 0)


def experiment_cycle_formula(max_vertices: int = 4, max_m: int = 3,
                       max_n: int = 4) -> ExperimentReport:
    """
    Sweep every digraph iso-class up to max_vertices against every target
    m copies of C_n; the closed form must match the full-enumeration
    oracle everywhere.
    """
    alg.check_positive(max_vertices=max_vertices, max_m=max_m, max_n=max_n)
    report = ExperimentReport(
        "cycle-formula", {"max_vertices": max_vertices, "max_m": max_m, "max_n": max_n})
    targets = [(m, n, scalar_multiple(m, directed_cycle(n)))
               for m in range(1, max_m + 1) for n in range(1, max_n + 1)]
    _tally_formula(report, (
        (hom_into_cycle_union_formula(a, m, n), oracle_hom_count(a, target))
        for a in enumerate_digraphs_upto(max_vertices) for m, n, target in targets))
    return report


def experiment_dn(n: int) -> ExperimentReport:
    """
    Run the non-adaptive separator and the adaptive binary search over
    the full promise family, and check over every probe type that no
    algorithm needs fewer queries than they make; for n <= 3 also
    cross-check every answer against the brute-force oracle.  The
    family's builders refuse an n outside its range (algorithms.DN_GUARD).
    """
    alg.check_positive(n=n)
    report = ExperimentReport("dn", {"n": n})
    members = [(m, alg.dn_member(n, m)) for m in range(n + 1)]
    max_queries = n.bit_length()  # ceil(log2(n+1))

    vectors = {}
    all_correct = True
    oracle_agree = True
    adaptive_correct = True
    within_bound = True
    for m, member in members:
        expected = m % 2 == 0
        rep = run_registered("dn-sep", member, n=n)
        vectors[m] = rep.transcript
        if rep.verdict != expected:
            all_correct = False
        if n <= 3:
            oracle_vector = tuple(oracle_hom_count(q, member) for q in rep.queries_issued)
            if oracle_vector != rep.transcript:
                oracle_agree = False
        arep = run_registered("dn-binsearch", member, n=n)
        if arep.verdict != expected:
            adaptive_correct = False
        if arep.query_count > max_queries:
            within_bound = False
        report.add(f"member.m={m}",
                   f"vector={rep.transcript} verdict={rep.verdict} "
                   f"adaptive_queries={arep.query_count}")
    report.check("separator-correct", all_correct)
    report.check("vectors-pairwise-distinct",
                 len(set(vectors.values())) == len(vectors))
    if n <= 3:
        report.check("vectors-match-oracle", oracle_agree)
    report.check("adaptive-correct", adaptive_correct)
    report.add("adaptive-query-bound", max_queries)
    report.check("adaptive-within-bound", within_bound)
    # the separator asks every input the same queries, so any run counts them
    _check_lower_bounds(report, [(2 ** m, member, m % 2 == 0) for m, member in members],
                        (rep.query_count, max_queries))
    return report


def experiment_adaptive_not_better(k: int = 1) -> ExperimentReport:
    """
    Build the k-query instance on the primes (2, 3, 5, 7)[:2k], verify the
    hom matrix is nonzero exactly on the diagonal and the classification
    accepts exactly j <= k, and check over every probe type that no
    algorithm, adaptive or not, decides the family in fewer than k
    queries; for k=1 also brute-force the matrix.
    """
    primes = (2, 3, 5, 7)[:2 * k]
    if k < 1 or len(primes) != 2 * k:
        raise alg.ParameterError(f"k={k} needs 2k distinct primes, got primes={primes}")
    report = ExperimentReport("adaptive-not-better", {"k": k, "primes": primes})
    algorithm, structures = alg.adaptive_not_better_instance(k, primes)

    diagonal_ok = True
    classification_ok = True
    for j, member in enumerate(structures):
        rep = run_non_adaptive(algorithm, member, LEFT)
        for i, value in enumerate(rep.transcript):
            if (value != 0) != (i == j):
                diagonal_ok = False
        if rep.verdict != (j < k):
            classification_ok = False
        report.add(f"member.j={j + 1}", f"vector={rep.transcript} accepted={rep.verdict}")
    report.check("matrix-nonzero-exactly-on-diagonal", diagonal_ok)
    report.check("accepts-exactly-first-k", classification_ok)

    if k == 1:
        brute = [[oracle_hom_count(q, member) for member in structures]
                 for q in algorithm.queries]
        report.add("brute-force-matrix", brute)
        report.check("brute-force-diagonal-value-36", brute[0][0] == 36)
        report.check("brute-force-off-diagonal-zero", brute[0][1] == 0)
    _check_lower_bounds(report, [(math.prod(primes) // p, member, j < k)
                                 for j, (p, member) in enumerate(zip(primes, structures))],
                        (len(algorithm.queries), k))
    return report


def _least_queries(outcomes, accept) -> tuple:
    """
    (fewest non-adaptive probes, least adaptive depth) that decide accept[i]
    on members i when a probe shows only which members its outcome holds:
    by brute force over sets of outcomes, and by a DP over member subsets.
    """
    masks = {sum(1 << i for i in outcome) for outcome in outcomes}
    yes = sum(1 << i for i, accepted in enumerate(accept) if accepted)
    pairs = [(a, r) for a, r in itertools.product(range(len(accept)), repeat=2)
             if accept[a] and not accept[r]]
    non_adaptive = next((
        size for size in range(len(masks) + 1)
        if any(all(any(((o >> a) ^ (o >> r)) & 1 for o in chosen) for a, r in pairs)
               for chosen in itertools.combinations(masks, size))), math.inf)

    @cache
    def depth(alive: int):
        if (alive & yes) in (0, alive):
            return 0
        return min((1 + max(depth(alive & o), depth(alive & ~o))
                    for o in masks if 0 != alive & o != alive), default=math.inf)
    return non_adaptive, depth((1 << len(accept)) - 1)


def _check_lower_bounds(report, family, upper_bounds):
    """
    Exact lower bounds on a family of (L, N/L copies of C_L, accepted)
    triples, N = lcm of the L.  hom(F, c·C_L) is (cL)^c(F) if L divides
    gamma(F), else 0, so a probe shows only its type, gamma(F) mod N,
    which C_gamma or (for gamma = 0) P_1 realizes.  The least queries over
    all types must be the upper bounds (non-adaptive, adaptive), and the
    engine must agree with each outcome on one probe that realizes it.
    """
    lengths, members, accept = zip(*family)
    types = {}
    for g in range(math.lcm(*lengths)):
        types.setdefault(frozenset(i for i, L in enumerate(lengths) if g % L == 0), g)
    least = _least_queries(types, accept)
    report.add("least-non-adaptive-queries", least[0])
    report.add("least-adaptive-queries", least[1])
    report.check("upper-bounds-optimal", least == upper_bounds)
    report.check("types-match-engine", all(
        {i for i, member in enumerate(members) if hom_count(probe, member)} == outcome
        for outcome, g in types.items()
        for probe in [directed_cycle(g) if g else directed_path(1)]))
    report.add("lower-bound-status", "exhaustive over probe types, given the closed form")


NARY_ARITY_GUARD = 3  # n
NARY_DOMAIN_GUARD = 4  # d_max


def experiment_nary(n: int = 3, d_max: int = 3) -> ExperimentReport:
    """
    Sweep one-relation structures of arity up to n over small domains,
    comparing the closed form against the oracle, and confirm the star
    transform of the n-ary cycle is the plain cycle.
    """
    alg.check_positive(n=n, d_max=d_max)
    check_guard("experiment_nary guard: n", n, NARY_ARITY_GUARD)
    check_guard("experiment_nary guard: d_max", d_max, NARY_DOMAIN_GUARD)
    report = ExperimentReport("nary", {"n": n, "d_max": d_max})

    def pairs():
        for arity in range(1, n + 1):
            max_tuples = 4 if arity <= 2 else 3
            targets = [(d, m, scalar_multiple(m, n_ary_cycle(d, arity)))
                       for d in range(1, d_max + 1) for m in (1, 2)]
            for domain in (1, 2, 3):
                all_tuples = list(itertools.product(range(domain), repeat=arity))
                for count in range(0, max_tuples + 1):
                    for chosen in itertools.combinations(all_tuples, count):
                        s = Structure._trusted(Signature((("R", arity),)), domain, {"R": chosen})
                        for d, m, target in targets:
                            yield (hom_into_nary_cycle_union_formula(s, m, d),
                                   oracle_hom_count(s, target))

    _tally_formula(report, pairs())

    star_ok = all(
        isomorphic(star_transform(n_ary_cycle(d, arity)), directed_cycle(d))
        for d in range(1, 5) for arity in range(2, n + 1))
    report.check("star-of-nary-cycle-is-cycle", star_ok)
    return report


def experiment_unbounded_boolean(max_vertices: int = 4) -> ExperimentReport:
    """
    Run both unbounded Boolean detectors over the full catalog, checking
    agreement with ground truth, the halting bounds, and the Datalog
    programs on the same inputs.
    """
    alg.check_positive(max_vertices=max_vertices)
    report = ExperimentReport("unbounded-boolean", {"max_vertices": max_vertices})
    programs = builtin_programs()

    left_bad = right_bad = datalog_bad = 0
    left_bound_ok = right_bound_ok = True
    for d in enumerate_digraphs_upto(max_vertices):
        n = d.domain_size
        truth_cycle = has_directed_cycle(d)
        g = gamma(d)

        rep = run_registered("ub-bool-cycle", d)
        if rep.verdict != truth_cycle:
            left_bad += 1
        if rep.query_count > 2 * n:
            left_bound_ok = False

        rep = run_registered("ub-bool-netcycle", d)
        if rep.verdict != (g != 0):
            right_bad += 1
        rounds = (rep.query_count + 1) // 2
        if rounds > max(n - 1, g + 1):
            right_bound_ok = False

        if evaluate(programs["directed-cycle"], d) != truth_cycle:
            datalog_bad += 1
        if evaluate(programs["nonzero-net-cycle"], d) != (g != 0):
            datalog_bad += 1

    report.add("inputs", len(enumerate_digraphs_upto(max_vertices)))
    report.add("left-detector-disagreements", left_bad)
    report.check("left-detector-correct", left_bad == 0)
    report.check("left-detector-within-bound", left_bound_ok)
    report.add("right-detector-disagreements", right_bad)
    report.check("right-detector-correct", right_bad == 0)
    report.check("right-detector-within-bound", right_bound_ok)
    report.add("datalog-disagreements", datalog_bad)
    report.check("datalog-cross-check", datalog_bad == 0)
    return report


EXPERIMENTS = {
    "cycle-formula": experiment_cycle_formula,
    "dn": experiment_dn,
    "adaptive-not-better": experiment_adaptive_not_better,
    "nary": experiment_nary,
    "unbounded-boolean": experiment_unbounded_boolean,
}
