"""
The benchmark's three workloads and the independent checks of their outputs.

A workload is a list of operations, one *round*.  The timed pass repeats
whole rounds, so every run attempts the same operations in the same
proportions.  Each operation calls into homquery through a module
attribute looked up at call time (``homs.hom_count(...)``, never a bound
copy), so the traced run sees the calls it wraps.

Every output is checked after the timed pass by code that does not go
through the engine that produced it: adjacency-matrix powers with Python
ints, the brute-force oracles of ``homquery.oracle``, the product law of
hom counts, the benchmark's own union-find and BFS, and the bounds the
paper's algorithms must meet.  Nothing is compared with stored results.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from homquery import analysis, catalog, datalog, homs, oracle, registry
from homquery.structures import (
    Signature,
    Structure,
    digraph,
    directed_cycle,
    directed_path,
    disjoint_union,
    make_structure,
    n_ary_cycle,
    scalar_multiple,
)


@dataclass
class Op:
    "One operation: `run` calls into homquery, `check` judges its output independently."
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------- helpers

def _edges(d: Structure):
    return sorted(d.relations["R"])


def weak_components(domain_size: int, tuples) -> int:
    "Number of classes when every tuple merges its elements (union-find)."
    parent = list(range(domain_size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    classes = domain_size
    for t in tuples:
        for e in t[1:]:
            ra, rb = find(t[0]), find(e)
            if ra != rb:
                parent[ra] = rb
                classes -= 1
    return classes


def adjacency_powers(d: Structure, kmax: int) -> list[list[list[int]]]:
    "A^0 .. A^kmax of the digraph d as Python-int matrices."
    n = d.domain_size
    edges = _edges(d)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(kmax):
        prev = powers[-1]
        nxt = [[0] * n for _ in range(n)]
        for u in range(n):
            row, out = prev[u], nxt[u]
            for v, w in edges:
                if row[v]:
                    out[w] += row[v]
        powers.append(nxt)
    return powers


def walk_count(powers, k: int) -> int:
    "hom(P_k, G): all walks with k edges, the sum of the entries of A^k."
    return sum(map(sum, powers[k]))


def closed_walk_count(powers, k: int) -> int:
    "hom(C_k, G): closed walks of length k, the trace of A^k."
    return sum(powers[k][i][i] for i in range(len(powers[k])))


def random_digraph(rng: random.Random, n: int, density: float) -> Structure:
    "Each of the n^2 possible edges, loops included, with probability density."
    return digraph(n, {(u, v) for u in range(n) for v in range(n)
                       if rng.random() < density})


def out_regular_digraph(rng: random.Random, n: int, degree: int) -> Structure:
    "Loopless; every vertex has exactly `degree` out-neighbours."
    edges = set()
    for u in range(n):
        for v in rng.sample([w for w in range(n) if w != u], degree):
            edges.add((u, v))
    return digraph(n, edges)


def random_dag(rng: random.Random, n: int, m: int) -> Structure:
    "m edges, all along one random vertex order, so no directed cycle."
    order = rng.sample(range(n), n)
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    return digraph(n, rng.sample(pairs, m))


def planted_core_digraph(rng: random.Random, core_size: int, twins: int) -> Structure:
    """
    A random tournament on core_size vertices plus `twins` copies of its
    vertices (same in- and out-neighbours, not adjacent to each other), with
    the vertices shuffled.  The twins retract onto their originals, and a
    loopless tournament is its own core (every endomorphism is injective),
    so the core is the tournament: its size is fixed by construction.
    """
    n = core_size + twins
    tournament = {(u, v) if rng.random() < 0.5 else (v, u)
                  for u in range(core_size) for v in range(u + 1, core_size)}
    edges = set(tournament)
    for x in range(core_size, n):
        original = rng.randrange(core_size)
        edges |= {(x, v) for u, v in tournament if u == original}
        edges |= {(u, x) for u, v in tournament if v == original}
    perm = rng.sample(range(n), n)
    return digraph(n, {(perm[u], perm[v]) for u, v in edges})


def power_cycle_member(n: int, m: int) -> Structure:
    "2^(n-m) disjoint copies of the directed cycle C_{2^m}."
    return scalar_multiple(2 ** (n - m), directed_cycle(2 ** m))


def _sample_catalog(rng, per_size: dict[int, int]) -> list[Structure]:
    """
    A seeded sample of catalog iso-classes, k of each size, stratified by
    edge count: every seed draws the same number of classes of each edge
    count, so what a sample costs depends little on the seed.
    """
    out = []
    for size, k in sorted(per_size.items()):
        reps = catalog.enumerate_digraphs(size).representatives
        if k >= len(reps):
            out.extend(reps)
            continue
        strata = defaultdict(list)
        for r in reps:
            strata[len(r.relations["R"])].append(r)
        quota = {e: k * len(group) // len(reps) for e, group in strata.items()}
        by_remainder = sorted(strata, key=lambda e: (-(k * len(strata[e]) % len(reps)), e))
        for e in by_remainder[:k - sum(quota.values())]:
            quota[e] += 1
        for e in sorted(strata):
            out.extend(rng.sample(strata[e], quota[e]))
    return out


# ------------------------------------------------------------- crosscheck

# (m, n): the target m copies of C_n, and m copies of the n-ary cycle of length d
CYCLE_UNIONS = [(m, n) for m in range(1, 4) for n in range(1, 5)]
NARY_TARGETS = [(m, d) for d in range(1, 4) for m in (1, 2)]
RPQ_SIG = Signature((("R", 2), ("P", 1), ("Q", 1)))


def _digraph_crosscheck(a: Structure, programs, targets) -> Op:
    def run():
        formula = tuple(homs.hom_into_cycle_union_formula(a, m, n)
                        for m, n in CYCLE_UNIONS)
        brute = tuple(oracle.oracle_hom_count(a, targets[mn]) for mn in CYCLE_UNIONS)
        g = analysis.gamma(a)
        og = oracle.oracle_gamma(a)
        dc = datalog.evaluate(programs["directed-cycle"], a)
        has_cycle = oracle.has_directed_cycle(a)
        nz = datalog.evaluate(programs["nonzero-net-cycle"], a)
        return formula, brute, g, og, dc, has_cycle, nz

    components = weak_components(a.domain_size, _edges(a))

    def check(out) -> bool:
        formula, brute, g, og, dc, has_cycle, nz = out
        by_target = dict(zip(CYCLE_UNIONS, brute))
        scaling = all(by_target[m, n] == m ** components * by_target[1, n]
                      for m, n in CYCLE_UNIONS)
        return (formula == brute and scaling and g == og
                and dc == has_cycle and nz == (og != 0))

    return Op("crosscheck.digraph", run, check)


def _nary_crosscheck(s: Structure, targets_by_arity) -> Op:
    arity = s.signature.relations[0][1]
    targets = targets_by_arity[arity]

    def run():
        formula = tuple(homs.hom_into_nary_cycle_union_formula(s, m, d)
                        for m, d in NARY_TARGETS)
        brute = tuple(oracle.oracle_hom_count(s, targets[md]) for md in NARY_TARGETS)
        return formula, brute

    components = weak_components(s.domain_size, s.relations["R"])

    def check(out) -> bool:
        formula, brute = out
        by_target = dict(zip(NARY_TARGETS, brute))
        scaling = all(by_target[m, d] == m ** components * by_target[1, d]
                      for m, d in NARY_TARGETS)
        return formula == brute and scaling

    return Op("crosscheck.nary", run, check)


def pq_reachable(s: Structure) -> bool:
    "Some Q element lies in the undirected R-component of some P element (BFS)."
    adjacent = {e: set() for e in s.domain}
    for u, v in s.relations["R"]:
        adjacent[u].add(v)
        adjacent[v].add(u)
    frontier = [t[0] for t in s.relations["P"]]
    seen = set(frontier)
    while frontier:
        v = frontier.pop()
        for w in adjacent[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return any(t[0] in seen for t in s.relations["Q"])


def _rpq_crosscheck(s: Structure, programs) -> Op:
    def run():
        return datalog.evaluate(programs["pq-reachability"], s)

    return Op("crosscheck.pq-reachability", run, lambda out: out == pq_reachable(s))


def _random_nary(rng) -> Structure:
    arity = rng.randint(1, 3)
    domain = rng.randint(1, 3)
    all_tuples = [tuple(rng.randrange(domain) for _ in range(arity))
                  for _ in range(4 if arity <= 2 else 3)]
    chosen = set(all_tuples[:rng.randint(0, len(all_tuples))])
    return make_structure(Signature((("R", arity),)), domain, {"R": chosen})


def _random_rpq(rng) -> Structure:
    n = rng.randint(1, 4)
    return make_structure(RPQ_SIG, n, {
        "R": {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n + 1))},
        "P": {(e,) for e in range(n) if rng.random() < 0.3},
        "Q": {(e,) for e in range(n) if rng.random() < 0.3},
    })


def crosscheck_ops(seed: int) -> list[Op]:
    rng = _rng("crosscheck", seed)
    programs = datalog.builtin_programs()
    sources = _sample_catalog(rng, {1: 2, 2: 4, 3: 12, 4: 64})
    sources += [random_digraph(rng, 5, 0.25) for _ in range(3)]
    cycle_unions = {(m, n): scalar_multiple(m, directed_cycle(n)) for m, n in CYCLE_UNIONS}
    nary_unions = {arity: {(m, d): scalar_multiple(m, n_ary_cycle(d, arity))
                           for m, d in NARY_TARGETS} for arity in (1, 2, 3)}
    ops = [_digraph_crosscheck(a, programs, cycle_unions) for a in sources]
    ops += [_nary_crosscheck(_random_nary(rng), nary_unions) for _ in range(16)]
    ops += [_rpq_crosscheck(_random_rpq(rng), programs) for _ in range(16)]
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------- decide

UNARY_PQ_SIG = Signature((("P", 1), ("Q", 1)))


def _registry_op(name: str, a: Structure, truth: Callable[[Structure], bool],
                 queries_ok: Callable[[int], bool], **params) -> Op:
    def run():
        report = registry.run_registered(name, a, **params)
        return report.verdict, report.query_count

    def check(out) -> bool:
        verdict, queries = out
        return verdict == truth(a) and queries_ok(queries)

    return Op(f"decide.{name}", run, check)


def _induced_without(s: Structure, drop: int) -> Structure:
    keep = [e for e in s.domain if e != drop]
    index = {e: i for i, e in enumerate(keep)}
    return digraph(len(keep), {(index[u], index[v]) for u, v in s.relations["R"]
                               if u != drop and v != drop})


def is_core_of(c: Structure, a: Structure) -> bool:
    "c is hom-equivalent to a and has no proper retract (brute-force oracle)."
    if c.domain_size > a.domain_size:
        return False
    if not (oracle.oracle_hom_count(a, c) and oracle.oracle_hom_count(c, a)):
        return False
    return c.domain_size == 1 or all(
        oracle.oracle_hom_count(c, _induced_without(c, v)) == 0 for v in c.domain)


def _core_op(a: Structure) -> Op:
    return Op("decide.core", lambda: analysis.core(a), lambda c: is_core_of(c, a))


def _unary_structure(rng) -> Structure:
    n = rng.randint(1, 6)
    return make_structure(UNARY_PQ_SIG, n, {
        "P": {(e,) for e in range(n) if rng.random() < 0.5},
        "Q": {(e,) for e in range(n) if rng.random() < 0.4},
    })


def net_cycle(a: Structure) -> bool:
    return oracle.oracle_gamma(a) != 0


def some_element_in_p_and_q(s: Structure) -> bool:
    return bool({t[0] for t in s.relations["P"]} & {t[0] for t in s.relations["Q"]})


def decide_ops(seed: int) -> list[Op]:
    rng = _rng("decide", seed)
    cyclic = oracle.has_directed_cycle
    ops = []
    # the sample sizes set how many ops lie near p50 and p90, and so how
    # little those percentiles move with the seed
    digraphs = _sample_catalog(rng, {2: 6, 3: 8, 4: 10})
    for n in (5, 6, 7, 8) * 2:
        digraphs += [out_regular_digraph(rng, n, 2), random_dag(rng, n, 3 * n // 2)]
    for a in digraphs:
        size = a.domain_size
        ops.append(_registry_op("cycle2q", a, cyclic, lambda q: q == 2))
        ops.append(_registry_op("ub-bool-cycle", a, cyclic,
                                lambda q, size=size: q <= 2 * (size + 1)))
        ops.append(_registry_op("ub-bool-netcycle", a, net_cycle, lambda q: True))
    for a in _sample_catalog(rng, {1: 2, 2: 6, 3: 12}):
        ops.append(_registry_op("lovasz", a, cyclic, lambda q: True))
    for a in _sample_catalog(rng, {1: 2, 2: 10}):
        ops.append(_registry_op("right2q", a, cyclic, lambda q: q == 2))
    for n in range(1, 6):
        for m in range(n + 1):
            member = power_cycle_member(n, m)
            bound = math.ceil(math.log2(n + 1))
            even = lambda _, m=m: m % 2 == 0
            ops.append(_registry_op("dn-sep", member, even, lambda q, n=n: q == n, n=n))
            ops.append(_registry_op("dn-binsearch", member, even,
                                    lambda q, bound=bound: q <= bound, n=n))
    for _ in range(24):
        s = _unary_structure(rng)
        ops.append(_registry_op("unary-full", s, some_element_in_p_and_q, lambda q: q == 4))
    for core_size, twins in [(3, 2), (4, 2), (5, 1), (4, 3), (5, 2), (6, 1)] * 4:
        ops.append(_core_op(planted_core_digraph(rng, core_size, twins)))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------ count-large

def count_large_ops(seed: int) -> list[Op]:
    rng = _rng("count-large", seed)
    paths = {k: directed_path(k) for k in range(1, 5)}
    cycles = {k: directed_cycle(k) for k in range(2, 6)}
    three = list(catalog.enumerate_digraphs(3).representatives)

    # exactly n*d^k walks of length k: path costs do not depend on the seed
    sparse = [out_regular_digraph(rng, n, 2) for n in (16, 24, 32, 40)]
    dense = [out_regular_digraph(rng, n, 4) for n in (16, 24, 32, 40)]
    unions5 = [power_cycle_member(5, m) for m in range(1, 6)]
    unions6 = [power_cycle_member(6, m) for m in range(1, 7)]
    targets = sparse + dense + unions5 + unions6
    powers = {}

    def independent(parts, g) -> int:
        "hom(F, G) for F given by its components, by the product law."
        if id(g) not in powers:
            powers[id(g)] = adjacency_powers(g, 5)
        total = 1
        for kind, arg in parts:
            if kind == "P":
                total *= walk_count(powers[id(g)], arg)
            elif kind == "C":
                total *= closed_walk_count(powers[id(g)], arg)
            else:
                total *= oracle.oracle_hom_count(arg, g)
        return total

    def structure(kind, arg):
        return paths[arg] if kind == "P" else cycles[arg] if kind == "C" else arg

    ops = []

    def add(g, *parts, exists=False):
        f = structure(*parts[0])
        for part in parts[1:]:
            f = disjoint_union(f, structure(*part))
        if exists:
            ops.append(Op("count-large.hom_exists", lambda: homs.hom_exists(f, g),
                          lambda out: out == (independent(parts, g) > 0)))
        else:
            ops.append(Op("count-large.hom_count", lambda: homs.hom_count(f, g),
                          lambda out: out == independent(parts, g)))

    every_path = [("P", k) for k in range(1, 5)]
    every_cycle = [("C", k) for k in range(2, 6)]
    for g in sparse + dense[:1] + unions5:
        for part in every_path + every_cycle:
            add(g, part)
    for g in dense[1:2]:
        for part in every_path[:3] + every_cycle[:3]:
            add(g, part)
    for g in dense[2:]:
        for part in every_path[:2] + every_cycle[:2]:
            add(g, part)
    for g in unions6:
        add(g, ("C", 4))
    # every 3-vertex class once, against the targets in turn
    for i, f in enumerate(three):
        add(targets[i % len(targets)], ("F", f))
    # counts far beyond the oracle's range, through the product over components
    for g in sparse + dense:
        add(g, ("P", 2), ("C", 3))
    for g in sparse + dense[:1]:
        add(g, ("P", 3), ("P", 3))
    # empty cases search everything; the rest stop at the first witness
    for g in sparse:
        add(g, ("C", 5), exists=True)
        add(g, ("P", 4), exists=True)
    for g in unions5:
        add(g, ("C", 3), exists=True)
        add(g, ("C", 4), ("C", 2), exists=True)
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "crosscheck": crosscheck_ops,
    "decide": decide_ops,
    "count-large": count_large_ops,
}
