"""
Structural parameters: component count, Berge-acyclicity, the cycle-gcd
parameter gamma, the star transform of an n-ary relation, cores, and
acyclic-up-to-hom-equivalence.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import repeat

from .structures import DIGRAPH_SIG, Structure, canonical_form, check_guard, edges_of


# core's size guard, which hom_equiv_to_acyclic reaches through core
CORE_GUARD = 7


def components_of(domain_size: int, relations) -> list[list[int]]:
    """
    The element lists of the connected components of the incidence
    multigraph of these relations (iterables of tuples) over 0..domain_size-1,
    in ascending order of their least element; each lists a BFS from it that
    visits neighbours in ascending order, the order homs._plan searches in.
    """
    adjacency: list[set[int]] = [set() for _ in range(domain_size)]
    for tuples in relations:
        for t in tuples:
            for a in t:
                adjacency[a].update(t)
    seen = [False] * domain_size
    out = []
    for start in range(domain_size):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for v in component:
            for w in sorted(adjacency[v]):
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
        out.append(component)
    return out


def component_count(s: Structure) -> int:
    "Number of connected components of the incidence multigraph."
    return len(components_of(s.domain_size, s.relations.values()))


def is_berge_acyclic(s: Structure) -> bool:
    """
    True iff the incidence multigraph (elements vs facts, one edge per
    position of a fact's tuple) has no cycle.  A multigraph is a forest iff
    its edges number its vertices less its components: the fact arities
    summed equal |A| + #facts - components, i.e. (arity - 1) summed over
    the facts plus the components equals |A|.  Every fact lies in its
    elements' component, so the components are those of components_of.  A
    repeated element within one fact gives parallel edges, a cycle.
    """
    return sum((arity - 1) * len(s.relations[name])
               for name, arity in s.signature.relations) + component_count(s) == s.domain_size


def gamma(d: Structure) -> int:
    """
    gcd of the net lengths of all positive-net-length oriented cycles;
    0 when there are none (gcd of the empty set).  Potentials go +1 along
    a forward edge and -1 along a backward one from a root per weak
    component; every edge's discrepancy |pot(u)+1-pot(v)| is the net
    length of some closed oriented walk, and their gcd is the answer.
    """
    edges = edges_of(d)
    adjacency: dict[int, list[tuple[int, int]]] = {v: [] for v in d.domain}
    for u, v in edges:
        adjacency[u].append((v, 1))
        adjacency[v].append((u, -1))
    pot: dict[int, int] = {}
    for start in d.domain:
        if start in pot:
            continue
        pot[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w, step in adjacency[v]:
                if w not in pot:
                    pot[w] = pot[v] + step
                    queue.append(w)
    g = 0
    for u, v in edges:
        g = math.gcd(g, pot[u] + 1 - pot[v])
    return g


def star_transform(s: Structure) -> Structure:
    """
    For a structure with one relation of arity >= 2: the digraph on the
    same domain with an edge (a, b) whenever a and b occur consecutively
    in some tuple.
    """
    if len(s.signature.relations) != 1:
        raise ValueError("star transform needs exactly one relation")
    name, arity = s.signature.relations[0]
    if arity < 2:
        raise ValueError("star transform needs arity >= 2")
    edges = set()
    for t in s.relations[name]:
        for i in range(arity - 1):
            edges.add((t[i], t[i + 1]))
    return Structure._trusted(DIGRAPH_SIG, s.domain_size, {"R": edges})


def induced_substructure(s: Structure, keep) -> Structure:
    "Substructure on the element subset keep, relabeled to 0..|keep|-1."
    keep = sorted(set(keep))
    index = [-1] * s.domain_size
    for i, e in enumerate(keep):
        index[e] = i
    # one pass per relation: relabel each tuple in C, drop those that lost an element
    relabel = repeat(index.__getitem__)
    rels = {name: frozenset([t for t in map(tuple, map(map, relabel, ts)) if -1 not in t])
            for name, ts in s.relations.items()}
    return Structure._trusted(s.signature, len(keep), rels)


def _folded(s: Structure) -> Structure:
    """
    s less each element v, in ascending order, that another live element w
    dominates: every fact of the live substructure that holds v is still a
    fact with v replaced by w.  Then v -> w, every other element fixed, is a
    retraction onto the live elements less v, so the core does not change.
    """
    live = set(s.domain)
    for v in s.domain:
        facts = [(ts, t) for ts in s.relations.values() for t in ts
                 if v in t and live.issuperset(t)]
        if any(all(tuple([w if e == v else e for e in t]) in ts for ts, t in facts)
               for w in live if w != v):
            live.discard(v)
    return s if len(live) == s.domain_size else induced_substructure(s, live)


def core(s: Structure) -> Structure:
    """
    The core of s (Hell and Nesetril, The core of a graph, Discrete Math.
    1992): a minimal retract, returned in canonical form (cores are unique
    up to isomorphism, so the retract found does not matter).

    Dominated elements are folded first (_folded), with no search.  A stage
    A whose only endomorphism is the identity has no proper retract, so it
    is the core: hom_count(A, A) is read once after folding and again after
    each retraction, while elements are left to try.  Otherwise the
    elements of A are tried in ascending order: a hom A -> A - v is
    searched for, and on a witness A shrinks to the substructure induced by
    its image.  An element once refuted is not tried again.  If A has no
    hom to A - v, then v is in the image of every endomorphism of A, which
    would otherwise be such a hom.  A later stage A' holds the image of an
    endomorphism of A (the witnesses composed), so v is in A'; and A' has
    no hom to A' - v either, since composed with the witnesses from A to A'
    it would give a hom A -> A - v.  Relabelling keeps the order, so the
    refuted elements stay the elements below the next one to try.  The
    searches are thus at most |core| refutations (none for a one-element
    or rigid core) plus one per retraction.
    """
    from .homs import find_hom, hom_count  # deferred: homs imports analysis for the closed forms

    check_guard("core guard: |s|", s.domain_size, CORE_GUARD)
    current, drop, counted = _folded(s), 0, False
    while 1 < current.domain_size and drop < current.domain_size:
        if not counted and hom_count(current, current) == 1:
            break
        counted = True
        keep = [e for e in current.domain if e != drop]
        witness = find_hom(current, induced_substructure(current, keep))
        if witness is None:
            drop += 1
        else:
            current = induced_substructure(current, map(keep.__getitem__, witness.values()))
            counted = False
    return canonical_form(current)


def hom_equiv_to_acyclic(s: Structure) -> bool:
    "Whether s is homomorphically equivalent to a Berge-acyclic structure."
    return is_berge_acyclic(core(s))
