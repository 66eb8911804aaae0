import itertools
import sys
from collections import deque
from functools import lru_cache

from hypothesis import strategies as st

from homquery.experiments import (
    experiment_adaptive_not_better,
    experiment_cycle_formula,
    experiment_nary,
    experiment_unbounded_boolean,
)
from homquery.homs import find_hom, hom_count
from homquery.structures import Structure, canonical_form, digraph, edges_of, make_structure

# The library's own builders skip the boundary check (Structure._trusted).  In
# the tests every such build is checked as well, so a builder that emits a bad
# tuple, or a missing or extra relation, fails the suite.  The wrap is made
# when this module is imported, before collection, so it also covers the
# structures that test modules build at import time and the caches keep.
_trusted = Structure._trusted.__func__


def _trusted_then_checked(cls, signature, domain_size, relations):
    s = _trusted(cls, signature, domain_size, relations)
    s._check(s.relations)
    return s


Structure._trusted = classmethod(_trusted_then_checked)


@st.composite
def small_digraphs(draw, max_vertices=4, min_vertices=1):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(itertools.product(range(n), repeat=2))
    edges = draw(st.sets(st.sampled_from(pairs)))
    return digraph(n, edges)


# References that only tests use.

def relabel(s: Structure, perm) -> Structure:
    "Apply the domain permutation perm (element i becomes perm[i])."
    rels = {name: {tuple(perm[e] for e in t) for t in ts}
            for name, ts in s.relations.items()}
    return make_structure(s.signature, s.domain_size, rels)


def core_reference(s: Structure) -> Structure:
    """
    The plain retraction loop: try to drop each element in turn, restrict to
    the image of the first endomorphism that misses one, and start over from
    the first element until none is missed.  In canonical form.
    """
    def without(a: Structure, keep: list[int]) -> Structure:
        index = {e: i for i, e in enumerate(keep)}
        rels = {name: {tuple(index[e] for e in t) for t in ts if all(e in index for e in t)}
                for name, ts in a.relations.items()}
        return make_structure(a.signature, len(keep), rels)

    current, shrunk = s, True
    while shrunk and current.domain_size > 1:
        shrunk = False
        for drop in current.domain:
            keep = [e for e in current.domain if e != drop]
            witness = find_hom(current, without(current, keep))
            if witness is not None:
                current = without(current, sorted({keep[witness[e]] for e in current.domain}))
                shrunk = True
                break
    return canonical_form(current)


def digraph_to_mask(d: Structure, perm=None) -> int:
    "Adjacency bit-mask: bit u*n+v set iff edge (u, v), after relabeling by perm."
    n = d.domain_size
    perm = perm or range(n)
    return sum(1 << (perm[u] * n + perm[v]) for u, v in d.relations["R"])


def canonical_mask(d: Structure) -> int:
    "The least adjacency mask over all vertex permutations."
    return min(digraph_to_mask(d, perm) for perm in itertools.permutations(d.domain))


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


def shortest_cycle_is_power_of_four(s) -> bool:
    """
    Class predicate: the shortest directed cycle's length is a power of
    four; cycle-free digraphs are members (vacuous reading).
    """
    length = shortest_directed_cycle(s)
    if length is None:
        return True
    while length % 4 == 0:
        length //= 4
    return length == 1


# Reports that several test modules check, built once per session.

@lru_cache(maxsize=None)
def adaptive_not_better_report():
    return experiment_adaptive_not_better()


@lru_cache(maxsize=None)
def nary_report():
    return experiment_nary()


@lru_cache(maxsize=None)
def cycle_formula_report():
    return experiment_cycle_formula()


@lru_cache(maxsize=None)
def unbounded_boolean_report():
    return experiment_unbounded_boolean()


def count_calls(monkeypatch, fn) -> list[int]:
    "Count calls of fn at every homquery module attribute that binds it; returns [count]."
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "homquery" or name.startswith("homquery."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def hom_vector(probes, target: Structure) -> tuple[int, ...]:
    "The hom counts from each probe into target, in probe order."
    return tuple(hom_count(p, target) for p in probes)
