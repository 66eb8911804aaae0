"""
Brute-force oracles, kept deliberately independent of the optimized code
paths (nothing here imports the engines): the hom-count oracle checks
every one of the |B|^|A| maps against every fact of A, with no pruning,
no early exit, no component factorization and no cache across calls,
the gamma oracle enumerates oriented cycles explicitly instead of using
potentials, and is_core_of checks a core through hom counts alone, with
no retraction search.
"""

from __future__ import annotations

import math

from .structures import (GuardExceeded, SignatureMismatch, Structure, edges_of, guard_limit,
                         make_structure)

ORACLE_GUARD = 20_000_000  # maps checked per call


def oracle_hom_count(a: Structure, b: Structure) -> int:
    """
    Count homomorphisms by checking all |B|^|A| maps.

    The maps are the cells of a boolean array of shape (|B|,) * |A|, one
    axis per element of A: cell (h_0, ..., h_{|A|-1}) is the map e -> h_e.
    For each relation, B's tuples form a truth table with one axis of
    size |B| per position.  A fact t of A is checked on every cell at
    once through a strided view of that table: the view's axis for
    element e steps through each position of t holding e together (a
    diagonal when e repeats, as in R(x, x)), and has stride 0 when e is
    absent from t.  Every fact is evaluated on every cell.

    A one-element B has one map, the constant one; it is checked directly,
    since numpy arrays have at most 64 axes.
    """
    if a.signature != b.signature:
        raise SignatureMismatch("signature mismatch")
    na, nb = a.domain_size, b.domain_size
    # multiply only until past the limit: |B|^|A| can run to a thousand digits
    limit, maps = guard_limit(ORACLE_GUARD), 1
    for _ in range(na):
        maps *= nb
        if maps > limit:
            raise GuardExceeded(f"oracle guard: maps = {nb}^{na} > {limit}")
    if nb == 1:
        return int(all((0,) * arity in b.relations[name]
                       for name, arity in a.signature.relations if a.relations[name]))

    import numpy as np  # here, its only use: processes that never call the oracle skip loading it

    shape = (nb,) * na
    ok = np.ones(shape, dtype=bool)
    for name, arity in a.signature.relations:
        table = np.zeros((nb,) * arity, dtype=bool)
        for t in b.relations[name]:
            table[t] = True
        for t in a.relations[name]:
            strides = [0] * na
            for e, step in zip(t, table.strides):
                strides[e] += step
            # positional (shape, dtype, buffer, offset, strides): the keyword
            # form costs nearly twice as much per fact on small calls
            ok &= np.ndarray(shape, bool, table, 0, strides)
    return int(np.count_nonzero(ok))


def is_core_of(c: Structure, a: Structure) -> bool:
    """
    Whether c is a core of a: c and a map to each other, and c has no hom
    into c less any one element (an endomorphism of c that missed an
    element would be one), so every endomorphism of c is onto.
    """
    if not (oracle_hom_count(c, a) and oracle_hom_count(a, c)):
        return False
    return c.domain_size == 1 or not any(oracle_hom_count(c, _without(c, v)) for v in c.domain)


def _without(s: Structure, v: int) -> Structure:
    "s less the element v, the elements above it relabelled one down."
    rels = {name: {tuple(e - (e > v) for e in t) for t in ts if v not in t}
            for name, ts in s.relations.items()}
    return make_structure(s.signature, s.domain_size - 1, rels)


def oracle_gamma(d: Structure) -> int:
    """
    gcd of net lengths of positive-net-length oriented cycles, found by
    exhaustively enumerating simple cycles of the underlying multigraph
    (arcs usable in either direction, each arc at most once per cycle).
    """
    edges = sorted(edges_of(d))
    # steps[v] = list of (neighbor, arc id, net contribution)
    steps: dict[int, list[tuple[int, int, int]]] = {v: [] for v in d.domain}
    for arc_id, (u, v) in enumerate(edges):
        steps[u].append((v, arc_id, 1))
        steps[v].append((u, arc_id, -1))

    g = 0

    def walk(start, current, net, visited, used_arcs):
        nonlocal g
        for nxt, arc_id, delta in steps[current]:
            if arc_id in used_arcs:
                continue
            if nxt == start:
                if net + delta > 0:
                    g = math.gcd(g, net + delta)
                continue
            if nxt in visited or nxt < start:
                continue
            visited.add(nxt)
            used_arcs.add(arc_id)
            walk(start, nxt, net + delta, visited, used_arcs)
            used_arcs.discard(arc_id)
            visited.discard(nxt)

    for start in d.domain:
        walk(start, start, 0, {start}, set())
    return g


def has_directed_cycle(d: Structure) -> bool:
    """
    Sink peeling: a vertex with no out-edge left is on no cycle, so remove
    it and its in-edges; a cycle remains iff some vertex is never removed
    (a loop never is).
    """
    out_degree = [0] * d.domain_size
    predecessors: list[list[int]] = [[] for _ in d.domain]
    for u, v in edges_of(d):
        out_degree[u] += 1
        predecessors[v].append(u)
    sinks = [v for v in d.domain if not out_degree[v]]
    for v in sinks:
        for u in predecessors[v]:
            out_degree[u] -= 1
            if not out_degree[u]:
                sinks.append(u)
    return len(sinks) < d.domain_size
