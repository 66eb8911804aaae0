import ast
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homquery
from conftest import shortest_directed_cycle
from homquery.homs import hom_count
from homquery.oracle import has_directed_cycle, oracle_gamma, oracle_hom_count
from homquery.structures import (
    GuardExceeded,
    Signature,
    digraph,
    directed_cycle,
    directed_path,
    disjoint_union,
    make_structure,
)


def test_oracle_hom_count_frozen_values():
    assert oracle_hom_count(directed_cycle(3), directed_cycle(3)) == 3
    assert oracle_hom_count(directed_cycle(3), directed_cycle(2)) == 0
    assert oracle_hom_count(directed_path(2), directed_cycle(3)) == 3
    assert oracle_hom_count(digraph(2, set()), digraph(3, set())) == 9
    tern = Signature((("T", 3),))
    a = make_structure(tern, 2, {"T": {(0, 1, 1)}})
    b = make_structure(tern, 2, {"T": {(0, 0, 0), (0, 1, 1), (1, 0, 0)}})
    assert oracle_hom_count(a, b) == 3


def test_oracle_hom_count_hand_counted():
    # (h0, h1, h0) must be a T tuple of b: (0, 0, 0) and (1, 0, 1) are,
    # (0, 1, 1) and (1, 1, 0) are not; a third, isolated element of a
    # may go anywhere
    tern = Signature((("T", 3),))
    b = make_structure(tern, 2, {"T": {(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0)}})
    assert oracle_hom_count(make_structure(tern, 2, {"T": {(0, 1, 0)}}), b) == 2
    assert oracle_hom_count(make_structure(tern, 3, {"T": {(0, 1, 0)}}), b) == 4
    # R alone allows the 3 arcs of b; P keeps those whose tail is 1 or 2
    rp = Signature((("R", 2), ("P", 1)))
    a = make_structure(rp, 2, {"R": {(0, 1)}, "P": {(0,)}})
    b = make_structure(rp, 3, {"R": {(0, 1), (1, 2), (2, 2)}, "P": {(1,), (2,)}})
    assert oracle_hom_count(a, b) == 2
    assert oracle_hom_count(make_structure(rp, 2, {"R": {(0, 1)}}), b) == 3
    # one source element: a loop goes to a loop of b, a bare element anywhere
    loops = digraph(3, {(0, 0), (1, 1), (0, 1)})
    assert oracle_hom_count(directed_cycle(1), loops) == 2
    assert oracle_hom_count(digraph(1, set()), loops) == 3
    # one target element: everything maps to it iff it has a loop or a has no arcs
    assert oracle_hom_count(directed_cycle(3), directed_cycle(1)) == 1
    assert oracle_hom_count(digraph(4, set()), digraph(1, set())) == 1
    assert oracle_hom_count(directed_path(2), digraph(1, set())) == 0
    assert oracle_hom_count(directed_cycle(1), digraph(1, set())) == 0


def test_oracle_one_element_targets_of_large_sources():
    # one map, the constant one, even where (1,) * |A| has more axes than
    # numpy allows
    assert oracle_hom_count(directed_cycle(100), directed_cycle(1)) == 1
    assert oracle_hom_count(directed_path(69), digraph(1, set())) == 0
    assert oracle_hom_count(digraph(70, set()), digraph(1, set())) == 1
    # a 60-element source with repeated-element facts
    tern = Signature((("R", 2), ("T", 3)))
    a = make_structure(tern, 60, {"R": {(i, i + 1) for i in range(59)},
                                  "T": {(0, 59, 0), (7, 7, 7)}})
    full = make_structure(tern, 1, {"R": {(0, 0)}, "T": {(0, 0, 0)}})
    no_t = make_structure(tern, 1, {"R": {(0, 0)}})
    assert oracle_hom_count(a, full) == 1
    assert oracle_hom_count(a, no_t) == 0
    assert oracle_hom_count(make_structure(tern, 60, {"R": {(3, 4)}}), no_t) == 1


RPT_SIG = Signature((("R", 2), ("P", 1), ("T", 3)))


def _reference_hom_count(a, b) -> int:
    "Count maps that send every fact of a to a fact of b, one map at a time."
    facts = [(name, t) for name in RPT_SIG.names for t in a.relations[name]]
    return sum(
        all(tuple(h[e] for e in t) in b.relations[name] for name, t in facts)
        for h in itertools.product(range(b.domain_size), repeat=a.domain_size))


@st.composite
def rpt_structures(draw):
    n = draw(st.integers(1, 4))
    element = st.integers(0, n - 1)
    return make_structure(RPT_SIG, n, {
        "R": draw(st.sets(st.tuples(element, element), max_size=6)),
        "P": draw(st.sets(st.tuples(element), max_size=3)),
        "T": draw(st.sets(st.tuples(element, element, element), max_size=6)),
    })


@settings(max_examples=200, deadline=None)
@given(rpt_structures(), rpt_structures())
@example(make_structure(RPT_SIG, 2, {"R": {(1, 1)}, "T": {(0, 1, 0)}}),
         make_structure(RPT_SIG, 3, {"R": {(0, 0), (2, 2), (0, 1)},
                                     "T": {(1, 2, 1), (2, 2, 2), (0, 1, 2)}}))
@example(make_structure(RPT_SIG, 3, {"P": {(2,)}, "T": {(2, 0, 2), (1, 1, 0)}}),
         make_structure(RPT_SIG, 2, {"P": {(0,)}, "T": {(0, 1, 0), (1, 1, 0)}}))
@example(make_structure(RPT_SIG, 4, {"R": {(3, 1)}}),
         make_structure(RPT_SIG, 4, {}))
@example(make_structure(RPT_SIG, 3, {}), make_structure(RPT_SIG, 1, {}))
def test_oracle_hom_count_matches_reference(a, b):
    assert oracle_hom_count(a, b) == _reference_hom_count(a, b)


def test_oracle_walk_count_over_a_million_maps():
    # hom(P_5, G) counts the walks of length 5 in G, the sum of the
    # entries of A^5; P_5 has 6 vertices, so the oracle checks 10^6 maps
    rng = random.Random(5)
    n = 10
    edges = {(u, v) for u in range(n) for v in range(n) if rng.random() < 0.3}
    adjacency = [[int((u, v) in edges) for v in range(n)] for u in range(n)]
    power = adjacency
    for _ in range(4):
        power = [[sum(power[u][w] * adjacency[w][v] for w in range(n))
                  for v in range(n)] for u in range(n)]
    walks = sum(map(sum, power))
    assert oracle_hom_count(directed_path(5), digraph(n, edges)) == walks
    assert walks == 5094  # pins the seeded draw


def test_numpy_is_loaded_only_by_the_oracle():
    # a fresh interpreter: this one may have loaded numpy and the experiments
    # already.  The library leaves the experiment harness to the CLI.
    script = (
        "import sys\n"
        "import homquery\n"
        "assert 'homquery.experiments' not in sys.modules, 'experiments loaded by the library'\n"
        "import homquery.cli\n"
        "assert 'homquery.experiments' in sys.modules, 'experiments not loaded by the CLI'\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded on import'\n"
        "from homquery import directed_cycle, hom_count, oracle_hom_count\n"
        "assert hom_count(directed_cycle(6), directed_cycle(3)) == 3\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by the engine'\n"
        "assert oracle_hom_count(directed_cycle(6), directed_cycle(3)) == 3\n"
        "assert 'numpy' in sys.modules\n"
    )
    src = str(Path(homquery.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_oracle_imports_only_structures_stdlib_and_numpy():
    # the oracle is the reference the engines are checked against: it must
    # share none of their code
    tree = ast.parse(Path(homquery.__file__).with_name("oracle.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add("." * node.level + node.module)
        elif isinstance(node, ast.ImportFrom):
            imported.update("." * node.level + alias.name for alias in node.names)
    package = {m for m in imported if m.startswith((".", "homquery"))}
    assert package == {".structures"}
    assert {m.split(".")[0] for m in imported - package} <= sys.stdlib_module_names | {"numpy"}


def test_oracle_guard():
    with pytest.raises(GuardExceeded):
        oracle_hom_count(digraph(10, set()), digraph(10, set()))


def test_engine_matches_oracle_on_random_pairs():
    rng = random.Random(20240817)
    for _ in range(500):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        ea = {(rng.randrange(na), rng.randrange(na))
              for _ in range(rng.randint(0, na * na))}
        eb = {(rng.randrange(nb), rng.randrange(nb))
              for _ in range(rng.randint(0, nb * nb))}
        a, b = digraph(na, ea), digraph(nb, eb)
        assert hom_count(a, b) == oracle_hom_count(a, b)


def test_oracle_gamma_frozen_values():
    for n in range(1, 6):
        assert oracle_gamma(directed_cycle(n)) == n
    assert oracle_gamma(directed_path(4)) == 0
    assert oracle_gamma(disjoint_union(directed_cycle(2), directed_cycle(3))) == 1
    assert oracle_gamma(digraph(4, {(0, 1), (2, 1), (2, 3), (0, 3)})) == 0


def test_has_directed_cycle():
    assert has_directed_cycle(directed_cycle(1))
    assert has_directed_cycle(directed_cycle(4))
    assert not has_directed_cycle(directed_path(5))
    assert not has_directed_cycle(digraph(3, {(0, 1), (0, 2), (1, 2)}))
    assert has_directed_cycle(digraph(3, {(0, 1), (1, 2), (2, 0)}))


def test_shortest_directed_cycle():
    assert shortest_directed_cycle(directed_path(3)) is None
    assert shortest_directed_cycle(directed_cycle(4)) == 4
    mixed = disjoint_union(directed_cycle(5), directed_cycle(2))
    assert shortest_directed_cycle(mixed) == 2
    with_chord = digraph(4, {(0, 1), (1, 2), (2, 3), (3, 0), (2, 0)})
    assert shortest_directed_cycle(with_chord) == 3


def test_has_directed_cycle_matches_shortest():
    for n in range(1, 4):
        pairs = list(itertools.product(range(n), repeat=2))
        for bits in range(2 ** len(pairs)):
            edges = {p for i, p in enumerate(pairs) if bits >> i & 1}
            d = digraph(n, edges)
            assert has_directed_cycle(d) == (shortest_directed_cycle(d) is not None)
