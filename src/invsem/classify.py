"""Variety classification of a finite inverse semigroup, used to route
instances to the matching fast solver.

The tags, from most to least specific on the chain actually used for
dispatch: Trivial, Semilattice, Group, Clifford, StrictInverse, General.

`classify_generated` decides the first four exactly from the
inverse-closed generator list Sigma (`classify_from_generators`), with
O(|Sigma|^2) products and no enumeration of U = <Sigma>.  Only when U
is not Clifford does it enumerate U, under the closure cap, to split
StrictInverse from General.  `classify` is the closure-based reference:
it reads every variety off a closed element list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .oracle import ClosureCapExceeded, close

SEMILATTICES = ("Trivial", "Semilattice")
GROUPS = ("Trivial", "Group")
CLIFFORD = ("Trivial", "Semilattice", "Group", "Clifford")


@dataclass(frozen=True)
class VarietyTag:
    name: str  # Trivial | Semilattice | Group | Clifford | StrictInverse | General
    divides_Y2: bool
    divides_B2: bool
    divides_B21: bool
    cap_exceeded: bool = False
    # "generators" or "closure": how the name was decided
    classified_by: str = field(default="closure", compare=False)

    def is_semilattice(self):
        return self.name in SEMILATTICES

    def is_group(self):
        return self.name in GROUPS

    def is_clifford(self):
        return self.name in CLIFFORD

    def is_strict_inverse(self):
        return self.name != "General"


def _tag(name, classified_by="closure", cap_exceeded=False):
    """The tag of a variety name; the divisor flags follow from it."""
    return VarietyTag(name,
                      divides_Y2=name not in GROUPS,
                      divides_B2=name not in CLIFFORD,
                      divides_B21=name == "General",
                      cap_exceeded=cap_exceeded,
                      classified_by=classified_by)


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
        return _tag("Trivial")

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
    return _tag(name)


def classify_from_generators(gs):
    """The variety name of U = <Sigma> read off the inverse-closed
    generator list, or None when U is not Clifford.  Uses O(|Sigma|^2)
    products and is exact:

    - Sigma = {e} with e idempotent generates {e}.  Idempotents of an
      inverse semigroup commute, so idempotent generators generate a
      semilattice, and a semilattice has only idempotent generators.
    - In a Clifford semigroup u u~ = u~ u and idempotents are central.
      Conversely, let every generator u have u u~ = u~ u = e_u, and let
      every e_v commute with every generator.  The e_v are then central
      in U, and induction on the length of a word w gives
      w w~ = w~ w = the product of its letters' e's.  So U is
      completely regular, and an inverse semigroup that is completely
      regular is Clifford.
    - Such a U is a group exactly when all e_u are equal: each w w~ is
      a product of them, and a group has one idempotent.
    """
    mul = gs.mul
    inv = gs.inv
    gens = gs.generators
    if all(mul(u, u) == u for u in gens):
        return "Trivial" if len(gens) == 1 else "Semilattice"
    es = []
    for u in gens:
        ub = inv(u)
        e = mul(u, ub)
        if mul(ub, u) != e:
            return None
        es.append(e)
    es = list(dict.fromkeys(es))
    if len(es) == 1:
        return "Group"
    if all(mul(u, e) == mul(e, u) for e in es for u in gens):
        return "Clifford"
    return None


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
    """Classify U = <Sigma>: from the generators when U is Clifford,
    otherwise by enumerating U under `cap` to split StrictInverse from
    General.  On closure-cap overflow fall back to the General tag with
    a marker.
    """
    if gs._variety is not None:
        return gs._variety
    name = classify_from_generators(gs)
    if name is not None:
        tag = _tag(name, "generators")
    else:
        try:
            cl = close(gs, cap)
        except ClosureCapExceeded:
            return _tag("General", cap_exceeded=True)
        tag = _tag("StrictInverse" if _is_strict_inverse(gs, cl.elements)
                   else "General")
    gs._variety = tag
    return tag
