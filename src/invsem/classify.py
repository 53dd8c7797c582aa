"""Variety classification of a finite inverse semigroup, used to route
instances to the matching fast solver.

The tags, from most to least specific on the chain actually used for
dispatch: Trivial, Semilattice, Group, Clifford, StrictInverse, General.
"""

from __future__ import annotations

from dataclasses import dataclass

from .oracle import ClosureCapExceeded, close


@dataclass(frozen=True)
class VarietyTag:
    name: str  # Trivial | Semilattice | Group | Clifford | StrictInverse | General
    divides_Y2: bool
    divides_B2: bool
    divides_B21: bool
    cap_exceeded: bool = False

    def is_semilattice(self):
        return self.name in ("Trivial", "Semilattice")

    def is_group(self):
        return self.name in ("Trivial", "Group")

    def is_clifford(self):
        return self.name in ("Trivial", "Semilattice", "Group", "Clifford")

    def is_strict_inverse(self):
        return self.name != "General"


class UnionFind:
    """Disjoint sets over hashable elements, created on first find."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def classify(gs, elements):
    """Classify the closed element list `elements` (products and
    inverses taken via gs).
    """
    mul = gs.mul
    inv = gs.inv
    n = len(elements)
    if n == 1:
        x = elements[0]
        if mul(x, x) != x:
            raise ValueError("single element is not idempotent; input not closed")
        return VarietyTag("Trivial", False, False, False)

    all_idem = True
    is_group = True
    is_clifford = True
    first_e = None
    for x in elements:
        xb = inv(x)
        xxb = mul(x, xb)
        xbx = mul(xb, x)
        if mul(x, x) != x:
            all_idem = False
        if xxb != xbx:
            is_clifford = False
        if first_e is None:
            first_e = xxb
        elif xxb != first_e:
            is_group = False

    if all_idem:
        name = "Semilattice"
    elif is_group:
        name = "Group"
    elif is_clifford:
        name = "Clifford"
    else:
        name = "StrictInverse" if _is_strict_inverse(gs, elements) else "General"

    strict = name != "General"
    return VarietyTag(
        name,
        divides_Y2=not (name == "Group"),
        divides_B2=not (name in ("Semilattice", "Group", "Clifford")),
        divides_B21=not strict,
    )


def _is_strict_inverse(gs, elements):
    """Idempotent-pair test: for every idempotent e and idempotents
    f1, f2 below e, f1 J f2 (absolute, within the closed set) forces
    f1 = f2.

    Absolute J classes of idempotents are computed from the pairs
    (x x~, x~ x): two idempotents are D-related (= J-related, finite
    case) exactly when some element has the one as its left and the
    other as its right idempotent.
    """
    mul = gs.mul
    inv = gs.inv
    uf = UnionFind()
    idems = [x for x in elements if mul(x, x) == x]
    for e in idems:
        uf.find(e)
    for x in elements:
        xb = inv(x)
        uf.union(mul(x, xb), mul(xb, x))
    for e in idems:
        seen = {}
        for f in idems:
            if mul(f, e) == f:  # f <= e
                c = uf.find(f)
                if c in seen and seen[c] != f:
                    return False
                seen[c] = f
    return True


def classify_generated(gs, cap=10**6):
    """Classify U = <Sigma>; on closure-cap overflow fall back to the
    General tag with a marker.
    """
    if gs._variety is not None:
        return gs._variety
    try:
        cl = close(gs, cap)
    except ClosureCapExceeded:
        return VarietyTag("General", True, True, True, cap_exceeded=True)
    tag = classify(gs, cl.elements)
    gs._variety = tag
    return tag
