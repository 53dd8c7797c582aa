"""Variety classification of a finite inverse semigroup, used to route
instances to the matching fast solver.

The tags, from most to least specific on the chain actually used for
dispatch: Trivial, Semilattice, Group, Clifford, StrictInverse, General.

`classify_generated` decides the first four exactly from the
inverse-closed generator list Sigma (`classify_from_generators`), with
O(|Sigma|^2) products and no enumeration of U = <Sigma>.  Only when U
is not Clifford does it enumerate U, under the closure cap, to split
StrictInverse from General.  That split reads Green's D-classes off the
pairs (x x~, x~ x) (`d_class_labels`) of the closure's codes, without
decoding them, as `meta` does for its maximal J-classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .oracle import ClosureCapExceeded, ELEMENT_CAP, close

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


def _idempotent_indices(gs, elements, index=None):
    """The indices in the closed list `elements` of x x~ and of x~ x,
    as two lists.  `gs` is anything with mul and inv on the list's
    items: a GeneratorSystem, or BytesCodec over closure codes; `index`
    maps each item to its position when the caller has one."""
    mul = gs.mul
    if index is None:
        index = {x: i for i, x in enumerate(elements)}
    left = []
    right = []
    try:
        for x in elements:
            xb = gs.inv(x)
            left.append(index[mul(x, xb)])
            right.append(index[mul(xb, x)])
    except KeyError:
        raise ValueError("element list is not closed") from None
    return left, right


def d_class_labels(left, right):
    """The D-class (= J-class, finite case) of each element of an
    inverse semigroup as the least idempotent index in it, from the
    indices left[x] of x x~ and right[x] of x~ x.

    Idempotents e, f are D-related exactly when some x has x x~ = e and
    x~ x = f (Lawson, Inverse Semigroups, 1998); if x joins e to f and y
    joins f to g, then xy joins e to g, so no transitive closure is
    needed.  Every x lies in the class of x x~.
    """
    least = list(range(len(left)))
    for e, f in zip(left, right):
        least[f] = min(least[f], e)
    return [least[e] for e in left]


def _is_strict_inverse(gs, elements, index=None):
    """Idempotent-pair test on the closed list `elements` (items and
    `gs` as in _idempotent_indices): for every idempotent e and
    idempotents f1, f2 below e, f1 D f2 forces f1 = f2.  Only
    idempotents sharing their D-class can break it.
    """
    mul = gs.mul
    left, right = _idempotent_indices(gs, elements, index)
    label = d_class_labels(left, right)
    idems = [x for x, e in enumerate(left) if x == e]  # x = x x~
    multi = {label[f] for f in idems if label[f] != f}  # two or more
    shared = [(elements[f], label[f]) for f in idems if label[f] in multi]
    for top in map(elements.__getitem__, idems):
        below = [c for f, c in shared if mul(f, top) == f]
        if len(below) != len(set(below)):
            return False
    return True


def classify_generated(gs, cap=ELEMENT_CAP):
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
        strict = _is_strict_inverse(cl.codec or gs, cl.codes, cl.index)
        tag = _tag("StrictInverse" if strict else "General")
    gs._variety = tag
    return tag
