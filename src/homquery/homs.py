"""
Homomorphism counting and existence between finite relational structures,
plus the closed-form counts into disjoint unions of (n-ary) cycles.

The general engine is exact (Python integers).  It is a dynamic program
over the source's elements, taken component by component in BFS order
(adjacency = shared facts); a fact is checked at the position of its last
element.  The *frontier* of a position is the set of earlier elements that
facts checked there or later still read.  The number of ways to extend a
partial map from a position on depends only on the frontier's images, so
it is computed once per frontier image tuple and cached: variable
elimination along the order (Diaz, Serna and Thilikos, TCS 2002; Dalmau
and Jonsson, TCS 2004).  The images an element may take are read from
lookup tables over the target's relations, keyed on the images already
fixed in each fact checked at its position, and intersected in ascending
order.  Counts of components multiply.

find_hom runs the same search in ascending candidate order, stops at the
first complete map (the lexicographically least one in that order) and
caches only the frontier states that have no extension.  The work budget
counts candidate images tried; exceeding it raises WorkBudgetExceeded.
Plans are cached per source and tables per (target relation, mask), both
keyed on relation contents and bounded at 1024 entries, so that a sweep of
probes over a few dozen targets finds its tables still built.

The closed forms never run the search; property tests compare the two
code paths.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache
from operator import itemgetter

from .analysis import component_count, gamma, star_transform
from .structures import Structure


class WorkBudgetExceeded(Exception):
    "The search tried more candidate images than its budget; this is never a count."


COUNT = "count"
BOOLEAN = "boolean"

DEFAULT_BUDGET = 10_000_000


def _no_images(img) -> tuple:
    "Key of the fixed images of a fact that holds only the element being placed."
    return ()


@lru_cache(maxsize=1024)
def _plan(domain_size: int, relations: tuple[frozenset, ...]):
    """
    Search plan of a source with these relations (in signature order).

    Returns (needs, components).  needs lists the (relation index, mask)
    tables the plan reads; mask marks the tuple positions that hold the
    element being placed.  Each component is (order, frontier, checks):
    order is its BFS element order; frontier[i] gives the key of the
    frontier's images at position i, or None where every earlier element
    is still read, so that no two partial maps share a key and caching
    would only cost memory; checks[i] lists (table slot, key of the fixed
    images) for each fact checked at position i.
    """
    facts = [(r, t) for r, tuples in enumerate(relations) for t in sorted(tuples)]
    adjacency: list[set[int]] = [set() for _ in range(domain_size)]
    for _, t in facts:
        for e in t:
            adjacency[e].update(t)
    position: list[int | None] = [None] * domain_size
    component_of = [0] * domain_size
    orders: list[list[int]] = []
    for start in range(domain_size):
        if position[start] is not None:
            continue
        order = [start]
        position[start] = 0
        for v in order:
            component_of[v] = len(orders)
            for w in sorted(adjacency[v]):
                if position[w] is None:
                    position[w] = len(order)
                    order.append(w)
        orders.append(order)

    slots: dict[tuple[int, int], int] = {}
    checks: list[list[list]] = [[[] for _ in order] for order in orders]
    last_read: list[list[int]] = [list(range(len(order))) for order in orders]
    for r, t in facts:
        c = component_of[t[0]]
        at = max(position[e] for e in t)
        new = orders[c][at]
        mask = sum(1 << k for k, e in enumerate(t) if e == new)
        fixed = [position[e] for e in t if e != new]
        slot = slots.setdefault((r, mask), len(slots))
        checks[c][at].append((slot, itemgetter(*fixed) if fixed else _no_images))
        for p in fixed:
            last_read[c][p] = max(last_read[c][p], at)

    components = []
    for c, order in enumerate(orders):
        frontier = []
        for i in range(len(order)):
            live = [p for p in range(i) if last_read[c][p] >= i]
            frontier.append(None if len(live) == i else itemgetter(*live))
        components.append((tuple(order), tuple(frontier),
                           tuple(tuple(at) for at in checks[c])))
    return tuple(slots), tuple(components)


# Tables are kept for a whole sweep of targets: in one round, count-large's 23
# targets read 57 tables and decide's catalog probes about 400, and a bound
# below that rebuilds tables on almost every probe.  A table is no larger than
# its target relation, which its cache key holds anyway.
TABLE_CACHE_SIZE = 1024


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _table(relation: frozenset, mask: int) -> dict:
    """
    For facts whose positions in mask hold the element being placed: the
    images it may take (an ascending tuple), keyed on the images at the
    other positions, a scalar for one other position and a tuple otherwise.
    Callers must not mutate it.
    """
    if not relation:
        return {}
    arity = len(next(iter(relation)))
    new = [k for k in range(arity) if mask >> k & 1]
    fixed = [k for k in range(arity) if not mask >> k & 1]
    key = itemgetter(*fixed) if fixed else _no_images
    grouped: defaultdict[object, list[int]] = defaultdict(list)
    if len(new) == 1:
        image = itemgetter(new[0])
        for t in relation:
            grouped[key(t)].append(image(t))
    else:
        # the element fills several positions, as in R(x, x): only tuples
        # that agree on them are facts about it
        images = itemgetter(*new)
        for t in relation:
            vs = images(t)
            if vs.count(vs[0]) == len(vs):
                grouped[key(t)].append(vs[0])
    return {k: tuple(sorted(vs)) for k, vs in grouped.items()}


class _Budget:
    def __init__(self, limit):
        self.limit = math.inf if limit is None else limit
        self.used = 0

    def spend(self, nodes=1):
        self.used += nodes
        if self.used > self.limit:
            raise WorkBudgetExceeded(f"search exceeded {self.limit} nodes")


def _search(component, tables, domain: range, budget: _Budget, find: bool):
    """
    (number of homomorphisms of one source component into the target whose
    tables are given, images by position).  With find set the number is 1
    or 0, and on 1 the images are the first homomorphism found.
    """
    order, frontier, checks = component
    last = len(order) - 1
    img = [0] * len(order)
    memo: list[dict] = [{} for _ in order]

    def candidates(i):
        at = checks[i]
        if not at:
            return domain
        if len(at) == 1:
            slot, key = at[0]
            return tables[slot].get(key(img), ())
        options = sorted((tables[slot].get(key(img), ()) for slot, key in at), key=len)
        images = options[0]
        for other in options[1:]:
            images = [v for v in images if v in other]
        return images

    def extend(i) -> int:
        images = candidates(i)
        if i == last:
            if not find:
                budget.spend(len(images))
                return len(images)
            for v in images:
                budget.spend()
                img[i] = v
                return 1
            return 0
        seen, key = memo[i + 1], frontier[i + 1]
        total = 0
        for v in images:
            budget.spend()
            img[i] = v
            if key is not None:
                k = key(img)
                n = seen.get(k)
                if n is not None:
                    total += n
                    continue
            n = extend(i + 1)
            if n and find:
                return 1
            if key is not None:
                seen[k] = n
            total += n
        return total

    try:
        return extend(0), img
    finally:
        del extend  # extend's closure holds extend: free the cycle now, not at the next collection


def _prepare(a: Structure, b: Structure):
    "The components of a's plan, and the tables of b they read."
    if a.signature != b.signature:
        raise ValueError("signature mismatch")
    needs, components = _plan(a.domain_size,
                              tuple(a.relations[name] for name in a.signature.names))
    b_relations = tuple(b.relations[name] for name in b.signature.names)
    tables = [_table(b_relations[r], mask) for r, mask in needs]
    return components, tables


def hom_count(a: Structure, b: Structure, budget: int | None = DEFAULT_BUDGET) -> int:
    "Exact number of homomorphisms a -> b."
    components, tables = _prepare(a, b)
    state = _Budget(budget)
    total = 1
    for component in components:
        count, _ = _search(component, tables, b.domain, state, find=False)
        if count == 0:
            return 0
        total *= count
    return total


def find_hom(a: Structure, b: Structure, budget: int | None = DEFAULT_BUDGET):
    "One homomorphism a -> b as a dict, or None."
    components, tables = _prepare(a, b)
    state = _Budget(budget)
    witness: dict[int, int] = {}
    for component in components:
        found, images = _search(component, tables, b.domain, state, find=True)
        if not found:
            return None
        witness.update(zip(component[0], images))
    return witness


def hom_exists(a: Structure, b: Structure, budget: int | None = DEFAULT_BUDGET) -> bool:
    return find_hom(a, b, budget=budget) is not None


def hom_equivalent(a: Structure, b: Structure, budget: int | None = DEFAULT_BUDGET) -> bool:
    return hom_exists(a, b, budget=budget) and hom_exists(b, a, budget=budget)


def hom_value(a: Structure, b: Structure, semiring: str,
              budget: int | None = DEFAULT_BUDGET) -> int:
    "hom count under COUNT, 0/1 existence under BOOLEAN."
    if semiring == COUNT:
        return hom_count(a, b, budget=budget)
    if semiring == BOOLEAN:
        return 1 if hom_exists(a, b, budget=budget) else 0
    raise ValueError(f"unknown semiring {semiring!r}")


def hom_into_cycle_union_formula(a: Structure, m: int, n: int) -> int:
    """
    hom(a, m copies of the directed n-cycle), in closed form:
    0 unless n divides gamma(a), else (m*n)^(number of components of a).
    """
    if not a.is_digraph():
        raise ValueError("closed form applies to digraphs")
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if gamma(a) % n != 0:
        return 0
    return (m * n) ** component_count(a)


def hom_into_nary_cycle_union_formula(a: Structure, m: int, d: int) -> int:
    """
    hom(a, m copies of the n-ary cycle of length d) for a one-relation
    structure a: 0 unless d divides gamma of a's star transform, else
    (m*d)^(components of a).  Arity 1 degenerates to an edgeless star
    transform (gamma 0), matching direct counting.
    """
    if len(a.signature.relations) != 1:
        raise ValueError("closed form needs a one-relation signature")
    if m < 1 or d < 1:
        raise ValueError("m and d must be >= 1")
    arity = a.signature.relations[0][1]
    g = 0 if arity == 1 else gamma(star_transform(a))
    if g % d != 0:
        return 0
    return (m * d) ** component_count(a)


def nu2(k: int):
    "2-adic valuation; nu2(0) is +infinity."
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return math.inf
    return (k & -k).bit_length() - 1
