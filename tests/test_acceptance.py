"""
Acceptance suite: sixteen end-to-end criteria, each printing a single
pass/fail line (run with -s to see them).  Every derived value is checked
against an independent brute-force oracle or an exhaustive sweep.
"""

import itertools
import random
from functools import lru_cache

from conftest import (
    adaptive_not_better_report,
    cycle_formula_report,
    hom_vector,
    nary_report,
    shortest_cycle_is_power_of_four,
    unbounded_boolean_report,
)
from homquery import algorithms as alg
from homquery.analysis import (
    core,
    gamma,
    hom_equiv_to_acyclic,
    is_berge_acyclic,
)
from homquery.catalog import enumerate_digraphs_upto
from homquery.datalog import builtin_programs, evaluate
from homquery.experiments import experiment_adaptive_not_better, experiment_dn
from homquery.homs import COUNT, hom_count, hom_exists
from homquery.oracle import oracle_gamma, oracle_hom_count
from homquery.query import LEFT, RIGHT, run_adaptive, run_non_adaptive
from homquery.registry import UNARY_PQ_SIG
from homquery.structures import (
    Signature,
    canonical_key,
    digraph,
    directed_cycle,
    directed_path,
    isomorphic,
    make_structure,
    scalar_multiple,
)

SEED = 20260823


def _report(number: int, label: str, ok: bool):
    print(f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number:02d} {label} failed"


@lru_cache(maxsize=None)
def _dn_report(n: int):
    return experiment_dn(n)


def test_criterion_01_cycle_union_formula_matches_oracle():
    report = cycle_formula_report()
    _report(1, "closed-form cycle-union counts match the enumeration oracle",
            report.passed)


def test_criterion_02_cycle_target_existence_iff_gamma_divisible():
    ok = True
    for a in enumerate_digraphs_upto(4):
        for n in range(1, 7):
            if (gamma(a) % n == 0) != (oracle_hom_count(a, directed_cycle(n)) > 0):
                ok = False
    _report(2, "hom into C_n exists iff n divides gamma (catalog <= 4, n <= 6)", ok)


def test_criterion_03_gamma_potential_method_matches_cycle_enumeration():
    ok = True
    for n in range(1, 5):  # exhaustive: every labeled digraph up to 4 vertices
        pairs = list(itertools.product(range(n), repeat=2))
        for bits in range(2 ** len(pairs)):
            d = digraph(n, {p for i, p in enumerate(pairs) if bits >> i & 1})
            if gamma(d) != oracle_gamma(d):
                ok = False
    rng = random.Random(SEED)  # seeded 5-vertex sample (full sweep infeasible)
    for _ in range(2000):
        edges = {(rng.randrange(5), rng.randrange(5))
                 for _ in range(rng.randrange(0, 26))}
        if gamma(digraph(5, edges)) != oracle_gamma(digraph(5, edges)):
            ok = False
    _report(3, "potential-method gamma equals cycle-enumeration gcd "
               "(all labeled <= 4, seeded 5-vertex sample)", ok)


def test_criterion_04_power_cycle_separator():
    ok = all(_dn_report(n).passed for n in (1, 2, 3))
    _report(4, "non-adaptive power-cycle separator distinct vectors, "
               "correct verdicts, oracle-checked entries (n <= 3)", ok)


def test_criterion_05_power_cycle_binary_search():
    ok = True
    for n in range(1, 7):
        search = alg.dn_adaptive_binary_search(n)
        bound = n.bit_length()  # ceil(log2(n+1))
        for m in range(n + 1):
            member = scalar_multiple(2 ** (n - m), directed_cycle(2 ** m))
            rep = run_adaptive(search, member, LEFT, COUNT, max_steps=bound + 1)
            if rep.verdict != (m % 2 == 0) or rep.query_count > bound:
                ok = False
    _report(5, "adaptive binary search correct on the full promise family "
               "within ceil(log2(n+1)) queries (n <= 6)", ok)


def test_criterion_06_one_query_instance_diagonal_matrix():
    report = adaptive_not_better_report()
    rows = dict(report.rows)
    ok = (report.passed
          and rows.get("brute-force-diagonal-value-36") == "ok"
          and rows.get("brute-force-off-diagonal-zero") == "ok")
    _report(6, "prime-cofactor cycle family: brute-force hom matrix nonzero "
               "exactly on the diagonal (value 36), accepts exactly j <= k", ok)


def test_criterion_07_two_query_cycle_detection():
    from homquery.oracle import has_directed_cycle
    detector = alg.cycle_detector_2query()
    ok = True
    for s in enumerate_digraphs_upto(4):
        rep = run_adaptive(detector, s, LEFT, COUNT, max_steps=2)
        if rep.query_count != 2 or rep.verdict != has_directed_cycle(s):
            ok = False
    _report(7, "two-query counting detector agrees with DFS cycle detection "
               "on every iso-class <= 4 vertices", ok)


def _five_predicates():
    from homquery.oracle import has_directed_cycle
    return (
        has_directed_cycle,
        shortest_cycle_is_power_of_four,
        is_berge_acyclic,
        lambda s: any(a == b for a, b in s.relations["R"]),  # has a loop
        lambda s: len(s.relations["R"]) <= 2,                # at most two edges
    )


def test_criterion_08_identify_then_decide():
    predicates = _five_predicates()
    ok = True
    for s in enumerate_digraphs_upto(3):
        n = s.domain_size
        probes = enumerate_digraphs_upto(n)
        candidate = alg.identify_by_hom_vector(hom_vector(probes, s), n)
        if not isomorphic(candidate, s):
            ok = False
        for predicate in predicates:
            if predicate(candidate) != predicate(s):
                ok = False
        # the full strategy reaches the same verdict
        rep = run_adaptive(alg.lovasz_universal_decider(predicates[0]), s,
                           LEFT, COUNT, max_steps=len(probes) + 1)
        if rep.verdict != predicates[0](s):
            ok = False
    _report(8, "hom-vector identification matches the input up to isomorphism "
               "for five class predicates (all iso-classes <= 3 vertices)", ok)


def _checked(report, *rows) -> bool:
    "The report passed and each named check row reads ok."
    values = dict(report.rows)
    return report.passed and all(values.get(row) == "ok" for row in rows)


def test_criterion_09_unbounded_boolean_cycle_detector():
    # the experiment runs the detector under the registry's step cap,
    # 2(|A|+1), and checks its verdict against DFS and its query count
    # against 2|A| on every class
    ok = _checked(unbounded_boolean_report(),
                  "left-detector-correct", "left-detector-within-bound")
    _report(9, "left Boolean detector agrees with DFS and halts within "
               "2|A| queries (all iso-classes <= 4 vertices)", ok)


def test_criterion_10_unbounded_boolean_net_cycle_detector():
    # the experiment checks the verdict against gamma != 0 and the rounds
    # against max(|A|-1, gamma+1) on every class
    ok = _checked(unbounded_boolean_report(),
                  "right-detector-correct", "right-detector-within-bound")
    _report(10, "right Boolean detector decides gamma != 0 within "
                "max(|A|-1, gamma+1) rounds (all iso-classes <= 4 vertices)", ok)


def _undirected_reach(n, edges, sources, targets):
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, frontier = set(sources), list(sources)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return bool(seen & set(targets))


def test_criterion_11_datalog_programs_match_their_counterparts():
    # the catalog half: on every class <= 4 vertices the experiment checks
    # directed-cycle against DFS and nonzero-net-cycle against gamma != 0
    ok = _checked(unbounded_boolean_report(), "datalog-cross-check")
    programs = builtin_programs()
    sig = Signature((("R", 2), ("P", 1), ("Q", 1)))
    for n in (1, 2, 3):  # every labeled {R,P,Q}-structure on <= 3 elements
        pairs = list(itertools.product(range(n), repeat=2))
        for rbits in range(2 ** len(pairs)):
            edges = {p for i, p in enumerate(pairs) if rbits >> i & 1}
            for pbits in range(2 ** n):
                sources = [i for i in range(n) if pbits >> i & 1]
                for qbits in range(2 ** n):
                    targets = [i for i in range(n) if qbits >> i & 1]
                    s = make_structure(sig, n, {
                        "R": edges,
                        "P": {(i,) for i in sources},
                        "Q": {(i,) for i in targets}})
                    if evaluate(programs["pq-reachability"], s) != \
                            _undirected_reach(n, edges, sources, targets):
                        ok = False
    _report(11, "builtin Datalog programs match DFS cycle detection, "
                "gamma != 0, and undirected P-to-Q reachability", ok)


def test_criterion_12_right_two_query_decider():
    # the decider's queries and answers do not depend on its predicate, so one
    # run per class, whose predicate holds exactly on that class, shows that
    # the class is identified and that every class predicate is decided
    ok = True
    for s in enumerate_digraphs_upto(3):
        key = canonical_key(s)
        strategy = alg.right_two_query_decider(lambda c, key=key: canonical_key(c) == key)
        rep = run_adaptive(strategy, s, RIGHT, COUNT, max_steps=2)
        if rep.query_count != 2 or not rep.verdict:
            ok = False
    _report(12, "right two-query decider identifies every iso-class of 1-3 "
                "vertices, always in exactly 2 queries", ok)


def test_criterion_13_unary_full_reconstruction():
    sig = UNARY_PQ_SIG

    def predicate(s):  # P holds on more elements than Q
        return len(s.relations["P"]) > len(s.relations["Q"])
    decider = alg.unary_full_decider(sig, predicate)
    ok = len(decider.queries) == 4
    for n in (1, 2):  # every labeled {P,Q}-structure on <= 2 elements
        for pbits in range(2 ** n):
            for qbits in range(2 ** n):
                s = make_structure(sig, n, {
                    "P": {(i,) for i in range(n) if pbits >> i & 1},
                    "Q": {(i,) for i in range(n) if qbits >> i & 1}})
                rep = run_non_adaptive(decider, s, LEFT, COUNT)
                rebuilt = alg.reconstruct_unary_structure(sig, rep.transcript)
                if not isomorphic(rebuilt, s) or rep.verdict != predicate(s):
                    ok = False
                if rep.query_count != 4:
                    ok = False
    _report(13, "unary inclusion-exclusion decider reconstructs every small "
                "{P,Q}-structure exactly with 4 queries", ok)


def test_criterion_14_nary_sweep_and_star_transform():
    report = nary_report()
    _report(14, "n-ary closed form matches the oracle and the star transform "
                "of the n-ary cycle is the plain cycle", report.passed)


def test_criterion_15_acyclic_core_characterization():
    ok = True
    for s in enumerate_digraphs_upto(4):
        c = core(s)
        if not (hom_exists(c, s) and hom_exists(s, c)):
            ok = False
        if is_berge_acyclic(s) and not hom_equiv_to_acyclic(s):
            ok = False
        has_loop = any(a == b for a, b in s.relations["R"])
        if has_loop and hom_equiv_to_acyclic(s):
            ok = False
    for n in (1, 2, 3):
        if hom_equiv_to_acyclic(directed_cycle(n)):
            ok = False
    _report(15, "core is hom-equivalent both ways on every tested input; "
                "acyclic-equivalence holds exactly where expected", ok)


def test_criterion_16_declared_desk_scale_limits():
    # given the closed form hom(F, m.C_L) = (mL)^c(F) or 0, a probe's
    # outcome on these families is its type, so the lower bounds are checked
    # over every type; each report must pass and say so
    reports = [*(_dn_report(n) for n in (1, 2, 3)), adaptive_not_better_report(),
               experiment_adaptive_not_better(k=2)]
    ok = all(r.passed and dict(r.rows).get("lower-bound-status")
             == "exhaustive over probe types, given the closed form" for r in reports)
    _report(16, "lower bounds exhaustive over probe types, given the closed "
                "form, which pass", ok)
