"""
Brute-force oracles, kept deliberately independent of the optimized code
paths: the hom-count oracle enumerates every one of the |B|^|A| maps with
no pruning and no component factorization, and the gamma oracle
enumerates oriented cycles explicitly instead of using potentials.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .structures import GuardExceeded, Structure, edges_of


def oracle_hom_count(a: Structure, b: Structure, guard: int = 20_000_000) -> int:
    "Count homomorphisms by checking all |B|^|A| maps (vectorized)."
    if a.signature != b.signature:
        raise ValueError("signature mismatch")
    na, nb = a.domain_size, b.domain_size
    total_maps = nb ** na
    if total_maps > guard:
        raise GuardExceeded(f"oracle guard: {nb}^{na} maps > {guard}")

    # the map grid, one contiguous row per source element: maps[e, i] is
    # the image of e under map i, maps enumerated in mixed radix base nb
    maps = np.indices((nb,) * na).reshape(na, total_maps)
    ok = np.ones(total_maps, dtype=bool)
    for name, arity in a.signature.relations:
        # target tuple set as a flat lookup table in mixed radix base nb
        table = np.zeros(nb ** arity, dtype=bool)
        for t in b.relations[name]:
            idx = 0
            for e in t:
                idx = idx * nb + e
            table[idx] = True
        for t in a.relations[name]:
            idx = maps[t[0]]
            for e in t[1:]:
                idx = idx * nb + maps[e]
            ok &= table[idx]
    return int(ok.sum())


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
