"""Inverse automata: validation, the view of letters as partial
bijections on states, and intersection non-emptiness as a shortest
path (`search.shortest_path`) over the product state space, whose edge
labels spell the witness word.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem

from .pbij import PartialBijection
from .search import SearchCapExceeded, shortest_path

PRODUCT_CAP = 10**7


class ProductCapExceeded(Exception):
    """The product BFS explored more states than the cap allows."""


@dataclass(frozen=True)
class InverseAutomaton:
    """A partial deterministic automaton whose letters act as partial
    bijections on the states.

    alphabet: tuple of symbol labels; involution maps each symbol to
    its inverse symbol; transitions maps each symbol to a
    PartialBijection on the states (0-based).
    """

    states: int
    alphabet: tuple
    involution: dict
    transitions: dict
    start: int
    accepting: frozenset

    def step(self, q, a):
        return self.transitions[a][q]

    def accepts(self, word):
        q = self.start
        for a in word:
            q = self.step(q, a)
            if q is None:
                return False
        return q in self.accepting


def validate(A):
    """Check the inverse-automaton conditions; returns a list of
    violation strings (empty means ok)."""
    problems = []
    if not (0 <= A.start < A.states):
        problems.append("start state out of range")
    for q in A.accepting:
        if not (0 <= q < A.states):
            problems.append("accepting state %r out of range" % (q,))
    for a in A.alphabet:
        if a not in A.involution:
            problems.append("symbol %r: no involution partner" % (a,))
            continue
        b = A.involution[a]
        if b not in A.transitions or a not in A.transitions:
            problems.append("symbol %r: missing transition map" % (a,))
            continue
        if A.involution.get(b) != a:
            problems.append("symbol %r: involution is not involutive" % (a,))
        da = A.transitions[a]
        if not isinstance(da, PartialBijection) or da.degree != A.states:
            problems.append("symbol %r: transition is not a partial "
                            "bijection on the states" % (a,))
            continue
        # injectivity is structural for PartialBijection; check the
        # inverse-letter condition
        if A.transitions[b] != da.inverse():
            problems.append(
                "symbol %r: transition of %r is not the converse" % (a, b))
    return problems


def intersect_nonempty(automata, cap=PRODUCT_CAP):
    """The lexicographically least shortest word accepted by every
    automaton, or None.  The empty word counts (all starts accepting).

    Symbols are ordered by their position in the shared alphabet.
    """
    if not automata:
        raise ValueError("need at least one automaton")
    alphabet = automata[0].alphabet
    involution = automata[0].involution
    for A in automata[1:]:
        if A.alphabet != alphabet or A.involution != involution:
            raise ValueError("automata do not share an alphabet")
    start = tuple(A.start for A in automata)

    def accepted(qs):
        return all(q in A.accepting for q, A in zip(qs, automata))

    letters = [(a, [A.transitions[a] for A in automata]) for a in alphabet]

    def successors(qs):
        for a, maps in letters:
            nxt = tuple(map(getitem, maps, qs))
            if None not in nxt:
                yield nxt, a

    try:
        return shortest_path(start, successors, accepted, cap)
    except SearchCapExceeded:
        raise ProductCapExceeded(
            "product BFS exceeded %d states" % cap) from None
