"""The graph-search module: reach, shortest_path and UnionFind."""

import pytest

from invsem.pbij import PartialBijection
from invsem.automata import (InverseAutomaton, ProductCapExceeded,
                             intersect_nonempty)
from invsem.search import (SearchCapExceeded, UnionFind, reach,
                           shortest_path)


def _cycle_successors(n):
    # node i steps to i+1 (label "+") and i-1 (label "-") modulo n
    return lambda i: [((i + 1) % n, "+"), ((i - 1) % n, "-")]


def test_reach_follows_every_map():
    double = [(2 * i) % 10 for i in range(10)]
    plus5 = [(i + 5) % 10 for i in range(10)]
    assert reach([1], [double]) == {1, 2, 4, 8, 6}
    assert reach([1], [double, plus5]) == set(range(10)) - {0, 5}
    assert reach([], [double]) == set()


def test_reach_skips_none_images():
    # a partial map: 0 -> 1 -> 2, undefined at 2 and 3
    p = PartialBijection(4, (1, 2, None, None))
    assert reach([0], [p]) == {0, 1, 2}
    assert reach([3], [p]) == {3}
    assert reach([0], [[1, None, 0]]) == {0, 1}


def test_reach_adds_to_a_given_set():
    succ = [1, 2, 3, 3]
    reached = {7}
    out = reach([0], [succ], reached)
    assert out is reached
    assert out == {7, 0, 1, 2, 3}
    # nodes already reached are not expanded again
    assert reach([0], [succ], {0, 1}) == {0, 1}


def test_shortest_path_start_is_goal():
    assert shortest_path(3, _cycle_successors(8), lambda i: i == 3) == ()
    # the start is tested before the cap is looked at
    assert shortest_path(3, _cycle_successors(8), lambda i: i == 3,
                         cap=0) == ()


def test_shortest_path_returns_labels_of_a_shortest_path():
    succ = _cycle_successors(8)
    assert shortest_path(0, succ, lambda i: i == 3) == ("+", "+", "+")
    assert shortest_path(0, succ, lambda i: i == 6) == ("-", "-")
    # at a tie the first path in successor order wins
    assert shortest_path(0, succ, lambda i: i == 4) == ("+",) * 4


def test_shortest_path_goal_unreachable():
    succ = {0: [(1, "a")], 1: [(0, "b")], 2: []}.__getitem__
    assert shortest_path(0, succ, lambda i: i == 2) is None
    assert shortest_path(2, succ, lambda i: i == 0) is None


def test_shortest_path_cap():
    succ = _cycle_successors(100)
    # five nodes are seen (the start and 1, 99, 2, 98) before 3
    assert shortest_path(0, succ, lambda i: i == 3, cap=6) == ("+",) * 3
    with pytest.raises(SearchCapExceeded):
        shortest_path(0, succ, lambda i: i == 3, cap=4)
    # a goal is returned even when it is the node past the cap
    assert shortest_path(0, succ, lambda i: i == 1, cap=1) == ("+",)
    with pytest.raises(SearchCapExceeded):
        shortest_path(0, succ, lambda i: i == 50, cap=10)


def test_intersect_cap_keeps_its_exception_and_message():
    def counter(n, accept):
        p = PartialBijection(n, tuple((i + 1) % n for i in range(n)))
        return InverseAutomaton(n, ("a", "A"), {"a": "A", "A": "a"},
                                {"a": p, "A": p.inverse()}, 0,
                                frozenset([accept]))

    # the search sees the 33 states of a^k, -16 <= k <= 16, before the
    # accepted a^17
    automata = [counter(5, 2), counter(7, 3)]
    assert intersect_nonempty(automata, cap=33) == ("a",) * 17
    with pytest.raises(ProductCapExceeded,
                       match=r"^product BFS exceeded 32 states$"):
        intersect_nonempty(automata, cap=32)


def test_union_find():
    uf = UnionFind()
    assert uf.find("x") == "x"
    uf.union(1, 2)
    uf.union(3, 4)
    assert uf.find(1) == uf.find(2) != uf.find(3) == uf.find(4)
    uf.union(2, 4)
    assert len({uf.find(i) for i in (1, 2, 3, 4)}) == 1
    assert uf.find(5) != uf.find(1)
