import itertools
from functools import lru_cache

from hypothesis import strategies as st

from homquery.experiments import (
    experiment_adaptive_not_better,
    experiment_cycle_formula,
    experiment_nary,
)
from homquery.oracle import shortest_directed_cycle
from homquery.structures import digraph


@st.composite
def small_digraphs(draw, max_vertices=4, min_vertices=1):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(itertools.product(range(n), repeat=2))
    edges = draw(st.sets(st.sampled_from(pairs)))
    return digraph(n, edges)


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
