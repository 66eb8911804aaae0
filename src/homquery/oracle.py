"""
Brute-force oracles, kept deliberately independent of the optimized code
paths (nothing here imports the engines): the hom-count oracle checks
every one of the |B|^|A| maps against every fact of A, with no pruning,
no early exit, no component factorization and no cache across calls,
and the gamma oracle enumerates oriented cycles explicitly instead of
using potentials.
"""

from __future__ import annotations

import math
from collections import deque

from .structures import GuardExceeded, Structure, edges_of


def oracle_hom_count(a: Structure, b: Structure, guard: int = 20_000_000) -> int:
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
        raise ValueError("signature mismatch")
    na, nb = a.domain_size, b.domain_size
    if nb ** na > guard:
        raise GuardExceeded(f"oracle guard: {nb}^{na} maps > {guard}")
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


def oracle_hom_exists(a: Structure, b: Structure, guard: int = 20_000_000) -> bool:
    return oracle_hom_count(a, b, guard=guard) > 0


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
    "Iterative DFS three-color check for a directed cycle (loops included)."
    adj: dict[int, list[int]] = {v: [] for v in d.domain}
    for u, v in edges_of(d):
        adj[u].append(v)
    state = {v: 0 for v in d.domain}  # 0 new, 1 on stack, 2 done
    for root in d.domain:
        if state[root]:
            continue
        stack = [(root, iter(adj[root]))]
        state[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if state[w] == 1:
                    return True
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                stack.pop()
    return False


def shortest_directed_cycle(d: Structure):
    "Length of the shortest directed cycle, or None if the digraph is acyclic."
    adj: dict[int, list[int]] = {v: [] for v in d.domain}
    for u, v in edges_of(d):
        adj[u].append(v)
    best = None
    for start in d.domain:
        dist = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w == start:
                    length = dist[v] + 1
                    if best is None or length < best:
                        best = length
                elif w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
    return best
