"""Inverse automata: validation, intersection, and the total view."""

import itertools
import random

import pytest

from invsem.pbij import PartialBijection
from invsem.automata import (InverseAutomaton, ProductCapExceeded,
                             validate, intersect_nonempty)

from reference import as_dfa


def _letter_pair(states, images):
    p = PartialBijection(states, images)
    return p, p.inverse()


def _simple(states, images, start, accepting):
    p, q = _letter_pair(states, images)
    return InverseAutomaton(
        states, ("a", "A"), {"a": "A", "A": "a"},
        {"a": p, "A": q}, start, frozenset(accepting))


def test_validate_accepts_good_automaton():
    A = _simple(3, (1, 2, None), 0, [2])
    assert validate(A) == []


def test_validate_flags_problems():
    p, q = _letter_pair(2, (1, 0))
    bad_start = InverseAutomaton(2, ("a", "A"), {"a": "A", "A": "a"},
                                 {"a": p, "A": q}, 5, frozenset([0]))
    assert any("start" in m for m in validate(bad_start))

    no_partner = InverseAutomaton(2, ("a",), {}, {"a": p}, 0,
                                  frozenset([0]))
    assert any("involution" in m for m in validate(no_partner))

    not_converse = InverseAutomaton(2, ("a", "A"), {"a": "A", "A": "a"},
                                    {"a": p, "A": p}, 0, frozenset([0]))
    # the shift map is self-inverse here, so force a mismatch instead
    r = PartialBijection(2, (0, None))
    not_converse = InverseAutomaton(2, ("a", "A"), {"a": "A", "A": "a"},
                                    {"a": p, "A": r}, 0, frozenset([0]))
    assert any("converse" in m for m in validate(not_converse))

    wrong_degree = InverseAutomaton(2, ("a", "A"), {"a": "A", "A": "a"},
                                    {"a": PartialBijection(3, (0, 1, 2)),
                                     "A": PartialBijection(3, (0, 1, 2))},
                                    0, frozenset([0]))
    assert any("partial bijection" in m for m in validate(wrong_degree))


def test_accepts_and_step():
    A = _simple(3, (1, 2, None), 0, [2])
    assert A.accepts(("a", "a"))
    assert not A.accepts(("a",))
    assert not A.accepts(("a", "a", "a"))  # undefined transition
    assert A.accepts(("a", "A", "a", "a"))


def test_intersect_empty_word_and_ordering():
    A = _simple(2, (1, 0), 0, [0])
    B = _simple(2, (1, 0), 1, [1])
    assert intersect_nonempty([A, B]) == ()
    # shortest witness, lexicographically least by alphabet position
    C = _simple(2, (1, 0), 0, [1])
    D = _simple(2, (1, 0), 0, [1])
    word = intersect_nonempty([C, D])
    assert word == ("a",)
    assert C.accepts(word) and D.accepts(word)


def test_intersect_none_when_disjoint():
    # one automaton demands an even number of letters, the other odd
    even = _simple(2, (1, 0), 0, [0])
    odd = _simple(2, (1, 0), 0, [1])
    assert intersect_nonempty([even, odd]) is None
    # an accepting state with no incident transition is unreachable
    blocked = _simple(2, (None, None), 0, [1])
    assert intersect_nonempty([blocked]) is None


def test_intersect_witness_accepted_by_all_random():
    rng = random.Random(0)
    for _ in range(200):
        k = rng.randrange(1, 4)
        automata = []
        for _ in range(k):
            states = rng.randrange(1, 5)
            targets = list(range(states))
            rng.shuffle(targets)
            images = [targets.pop() if rng.random() < 0.8 else None
                      for _ in range(states)]
            automata.append(_simple(states, tuple(images),
                                    rng.randrange(states),
                                    [q for q in range(states)
                                     if rng.random() < 0.4]))
        word = intersect_nonempty(automata)
        if word is None:
            # confirm by exhausting all short words
            for length in range(7):
                for w in itertools.product(("a", "A"), repeat=length):
                    assert not all(A.accepts(w) for A in automata)
        else:
            assert all(A.accepts(word) for A in automata)
            # minimality: no strictly shorter word works
            for length in range(len(word)):
                for w in itertools.product(("a", "A"), repeat=length):
                    assert not all(A.accepts(w) for A in automata)


def test_intersect_requires_shared_alphabet():
    A = _simple(2, (1, 0), 0, [0])
    p, q = _letter_pair(2, (1, 0))
    B = InverseAutomaton(2, ("b", "B"), {"b": "B", "B": "b"},
                         {"b": p, "B": q}, 0, frozenset([0]))
    with pytest.raises(ValueError):
        intersect_nonempty([A, B])
    with pytest.raises(ValueError):
        intersect_nonempty([])


def test_product_cap():
    # two counters with coprime cycle lengths need many product states
    A = _simple(5, (1, 2, 3, 4, 0), 0, [2])
    B = _simple(7, (1, 2, 3, 4, 5, 6, 0), 0, [3])
    with pytest.raises(ProductCapExceeded):
        intersect_nonempty([A, B], cap=3)


def test_as_dfa_totalizes():
    A = _simple(3, (1, 2, None), 0, [2])
    n, trans, start, accepting = as_dfa(A)
    assert n == 4 and start == 0 and accepting == frozenset([2])
    assert trans["a"] == (1, 2, 3, 3)
    assert trans["A"] == (3, 0, 1, 3)
    # the failure state absorbs every letter
    for row in trans.values():
        assert row[3] == 3
