"""
Homomorphism counting and existence between finite relational structures,
plus the closed-form counts into disjoint unions of (n-ary) cycles.

The general engine is exact (Python integers).  Source and target are
split alike into parts: components whose relations are equal once each is
relabelled by its ascending elements are copies of one part, and a
connected structure is one part.  Counts of source components multiply,
and a connected one's count into a disjoint union is a weighted sum
(Lovasz, Large networks and graph limits, AMS 2012, ch. 5), so a source
part with k copies counts (sum of m_i hom(C, H_i)) ** k into target parts
H_i with m_i copies each: one search per pair of distinct parts, however
many copies either side holds.  A source part that reads a table which is
empty for a target part, such as a relation the part lacks, counts 0 into
it without a search.

The search is a dynamic program over a connected source part's elements
in the BFS order of analysis.components_of (adjacency = shared facts),
which the part's plan works out from its relations; a fact is checked at
the position of its last element.  The *frontier* of a position is the set
of earlier elements that facts checked there or later still read.  The
number of ways to extend a partial map from a position on depends only on
the frontier's images, so it is computed once per frontier image tuple and
cached: variable elimination along the order (Diaz, Serna
and Thilikos, TCS 2002; Dalmau and Jonsson, TCS 2004).  The images an
element may take are read from lookup tables over the target part's
relations, keyed on the images already fixed in each fact checked at its
position, and intersected in ascending order.

The search is one flat loop over a stack of open positions, so Python's
recursion limit puts no bound on source size.  find_hom and hom_exists
run it in ascending candidate order over the target parts in ascending
order of their least element, stop at the first complete map (the
lexicographically least one within the first target part that has one)
and cache only the frontier states that have no extension.  find_hom maps
that map back through the target part's first copy; relabelling by
ascending element keeps components_of's order, so every copy of a source
part has that least witness, and it is applied to each.  hom_exists, which
serves every BOOLEAN hom_value, builds no witness.  The budget is a count
of candidate images tried, summed over the distinct parts of source and
target: past DEFAULT_BUDGET a call raises WorkBudgetExceeded.

A query's fixed cost is paid once per structure and per pair of parts.
A structure's parts are kept on the object (outside its fields, so
equality, hash, repr and its JSON form never see them) and come from a
cache keyed on its relation contents, which an equal structure built
afresh, such as a drop target of analysis.core, still hits.  Plans are
cached per source part (a miss runs one BFS of the part), tables per
(target relation, mask), and the tables a plan reads in a target part, or
None when one is empty, per (target part's relations, the plan's needs).
These four caches are keyed on relation contents and bounded at
structures.CACHE_SIZE entries, so that a sweep of probes over a few dozen
targets finds its parts and tables still built.

The closed forms never run the search; property tests compare the two
code paths.  They read a source's gamma and component count from a cache
keyed on its relation, so a sweep over many cycle-union targets computes
them once per source.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from operator import itemgetter

from .analysis import component_count, components_of, gamma, star_transform
from .structures import CACHE_SIZE, Signature, SignatureMismatch, Structure


class WorkBudgetExceeded(Exception):
    "The search tried more candidate images than its budget; this is never a count."


COUNT = "count"
BOOLEAN = "boolean"

DEFAULT_BUDGET = 10_000_000


def _no_images(img) -> tuple:
    "Key of the fixed images of a fact that holds only the element being placed."
    return ()


@lru_cache(maxsize=CACHE_SIZE)
def _plan(domain_size: int, relations: tuple[frozenset, ...]):
    """
    Search plan of a connected source with this many elements and these
    relations (in signature order), placing its elements in the BFS order
    of components_of.

    Returns (needs, plan).  needs lists the (relation index, mask) tables
    the plan reads; mask marks the tuple positions that hold the element
    being placed.  plan is (order, frontier, checks): order lists the
    elements by position; frontier[i] gives the key of the frontier's
    images at position i, or None where every earlier element is still
    read, so that no two partial maps share a key and caching would only
    cost memory; checks[i] lists (table slot, key of the fixed images) for
    each fact checked at position i, a slot being an index into needs.
    """
    order, = components_of(domain_size, relations)
    position = {v: i for i, v in enumerate(order)}

    needs: dict[tuple[int, int], int] = {}
    checks: list[list] = [[] for _ in order]
    last_read = list(range(domain_size))
    for r, tuples in enumerate(relations):
        for t in sorted(tuples):
            at = max(map(position.__getitem__, t))
            new = order[at]
            mask = sum(1 << k for k, e in enumerate(t) if e == new)
            fixed = [position[e] for e in t if e != new]
            slot = needs.setdefault((r, mask), len(needs))
            checks[at].append((slot, itemgetter(*fixed) if fixed else _no_images))
            for p in fixed:
                last_read[p] = max(last_read[p], at)

    frontier, live = [None], []
    for i in range(1, domain_size):
        # an element still read at i is i - 1 or was still read at i - 1
        live = [p for p in live + [i - 1] if last_read[p] >= i]
        frontier.append(None if len(live) == i else itemgetter(*live))
    return tuple(needs), (tuple(order), tuple(frontier), tuple(map(tuple, checks)))


@lru_cache(maxsize=CACHE_SIZE)
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


@lru_cache(maxsize=CACHE_SIZE)
def _tables(relations: tuple[frozenset, ...], needs: tuple[tuple[int, int], ...]):
    """
    The tables needs reads in a target part with these relations, in needs'
    order, or None when one is empty: a fact of the source part then has no
    image in the target part.
    """
    tables = tuple(_table(relations[r], mask) for r, mask in needs)
    return tables if all(tables) else None


def _search(plan, tables, domain: range, find: bool, used: int):
    """
    (number of homomorphisms of a connected source part into the target part
    whose tables are given, images by position, used plus the candidates tried).
    With find set the number is 1 or 0, and on 1 the images are the first
    homomorphism found.
    """
    order, frontier, checks = plan
    budget, last = DEFAULT_BUDGET, len(order) - 1
    img = [0] * len(order)
    # memo[i] caches counts from position i on, keyed on the frontier's images
    memo = [None if key is None else {} for key in frontier]

    # one open frame per position below the one entered: its untried images,
    # its count so far and the memo key of its current image
    untried, totals, keys = [], [], []
    i = 0
    while True:
        at = checks[i]
        if not at:
            images = domain
        elif len(at) == 1:
            slot, fixed = at[0]
            images = tables[slot].get(fixed(img), ())
        else:
            options = sorted((tables[slot].get(fixed(img), ()) for slot, fixed in at), key=len)
            images = options[0]
            for other in options[1:]:
                images = [v for v in images if v in other]
        if i < last:
            untried.append(iter(images))
            totals.append(0)
            keys.append(None)
            n = 0
        else:
            # the last position's images are counted, not tried one by one
            n = min(len(images), 1) if find else len(images)
            used += n
            if used > budget:
                raise WorkBudgetExceeded(f"search exceeded {budget} nodes")
            if find and n:
                img[i] = images[0]
                return 1, img, used
        # add n to the innermost frame and enter its next image; a frame out
        # of images closes and adds its total to the frame below
        while untried:
            j = len(untried) - 1
            if keys[j] is not None:
                memo[j + 1][keys[j]] = n
            totals[j] += n
            key, seen = frontier[j + 1], memo[j + 1]
            for v in untried[j]:
                used += 1
                if used > budget:
                    raise WorkBudgetExceeded(f"search exceeded {budget} nodes")
                img[j] = v
                if key is not None:
                    keys[j] = key(img)
                    cached = seen.get(keys[j])
                    if cached is not None:
                        totals[j] += cached
                        continue
                i = j + 1
                break
            else:
                untried.pop()
                keys.pop()
                n = totals.pop()
                continue
            break
        else:
            return n, img, used


@lru_cache(maxsize=CACHE_SIZE)
def _parts(domain_size: int, relations: tuple[frozenset, ...]):
    """
    The distinct components of a structure with these relations, in
    ascending order of their least element: (size, relations, copies) for
    each.  Components whose relations are equal once each is relabelled by
    its ascending elements are copies of one part, which holds them so
    relabelled; copies lists each copy's elements by new label.  A
    connected structure is one part that keeps its own relations.
    """
    found = components_of(domain_size, relations)
    if len(found) == 1:
        return ((domain_size, relations, (range(domain_size),)),)
    label, owner = [0] * domain_size, [0] * domain_size
    ascending = [tuple(sorted(elements)) for elements in found]
    for c, elements in enumerate(ascending):
        for i, e in enumerate(elements):
            label[e], owner[e] = i, c
    facts = [[set() for _ in relations] for _ in found]
    for r, tuples in enumerate(relations):
        for t in tuples:
            facts[owner[t[0]]][r].add(tuple(map(label.__getitem__, t)))
    parts: dict[tuple, list] = {}
    for elements, rels in zip(ascending, facts):
        parts.setdefault((len(elements), tuple(map(frozenset, rels))), []).append(elements)
    return tuple((size, rels, tuple(same)) for (size, rels), same in parts.items())


def _parts_of(s: Structure):
    "_parts of s, resolved once per structure object and kept outside its fields."
    try:
        return s._homs_parts
    except AttributeError:
        parts = _parts(s.domain_size, tuple(map(s.relations.__getitem__, s.signature.names)))
        s.__dict__["_homs_parts"] = parts
        return parts


def _run(a: Structure, b: Structure, find: bool, witness: dict | None = None) -> int:
    """
    The hom count a -> b, or with find set 1 if a hom exists and 0 if not;
    a witness dict passed with find set receives the hom found.
    """
    # most calls share one Signature object, and comparing its fields is slow
    if a.signature is not b.signature and a.signature != b.signature:
        raise SignatureMismatch("signature mismatch")
    targets = _parts_of(b)
    total, used = 1, 0
    for size, relations, copies in _parts_of(a):
        needs, plan = _plan(size, relations)
        # a source part is connected, so its count into a disjoint union is
        # the sum of its counts into the union's components
        count = 0
        for target_size, target_relations, target_copies in targets:
            tables = _tables(target_relations, needs)
            if tables is None:
                continue
            n, images, used = _search(plan, tables, range(target_size), find, used)
            if find and n:
                if witness is not None:
                    # every copy has the same least witness
                    images = list(map(target_copies[0].__getitem__, images))
                    for copy in copies:
                        witness.update(zip(map(copy.__getitem__, plan[0]), images))
                count = 1
                break
            count += len(target_copies) * n
        if not count:
            return 0
        total *= count ** len(copies)
    return total


def hom_count(a: Structure, b: Structure) -> int:
    "Exact number of homomorphisms a -> b."
    return _run(a, b, False)


def find_hom(a: Structure, b: Structure):
    "One homomorphism a -> b as a dict, or None."
    witness: dict[int, int] = {}
    return witness if _run(a, b, True, witness) else None


def hom_exists(a: Structure, b: Structure) -> bool:
    "Whether a homomorphism a -> b exists: find_hom's search, building no witness."
    return bool(_run(a, b, True))


def hom_value(a: Structure, b: Structure, semiring: str) -> int:
    "hom count under COUNT, 0/1 existence under BOOLEAN."
    if semiring == COUNT:
        return hom_count(a, b)
    if semiring == BOOLEAN:
        return 1 if hom_exists(a, b) else 0
    raise ValueError(f"unknown semiring {semiring!r}")


@lru_cache(maxsize=CACHE_SIZE)
def _cycle_invariants(domain_size: int, arity: int, relation: frozenset) -> tuple[int, int]:
    """
    (gamma of the star transform, number of components) of the structure
    with one relation of this arity: for arity 2 the star transform is the
    digraph itself, and for arity 1 it has no edges (gamma 0).  A structure
    and its star transform have the same components.
    """
    s = Structure._trusted(Signature((("R", arity),)), domain_size, {"R": relation})
    g = 0 if arity == 1 else gamma(s if arity == 2 else star_transform(s))
    return g, component_count(s)


def _cycle_union_count(a: Structure, m: int, length: int) -> int:
    "The body of both closed forms, for a one-relation source a."
    (name, arity), = a.signature.relations
    g, components = _cycle_invariants(a.domain_size, arity, a.relations[name])
    if g % length != 0:
        return 0
    return (m * length) ** components


def hom_into_cycle_union_formula(a: Structure, m: int, n: int) -> int:
    """
    hom(a, m copies of the directed n-cycle), in closed form:
    0 unless n divides gamma(a), else (m*n)^(number of components of a).
    """
    if not a.is_digraph():
        raise ValueError("closed form applies to digraphs")
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    return _cycle_union_count(a, m, n)


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
    return _cycle_union_count(a, m, d)
