"""Variety classification of a finite inverse semigroup, used to route
instances to the matching fast solver.

The tags, from most to least specific on the chain actually used for
dispatch: Trivial, Semilattice, Group, Clifford, StrictInverse, General.

`classify_generated` decides the first four exactly from the
inverse-closed generator list Sigma (`classify_from_generators`), with
O(|Sigma|^2) products and no enumeration of U = <Sigma>.  Only when U
is not Clifford does it split StrictInverse from General, on the
idempotents E(U) alone (`_split_on_idempotents`): an orbit of the
generators' idempotents, under the cap on |E(U)|, never the closure;
past the cap it raises OutsideTractable.  Both run on the codes of the
system's element kernel, `GeneratorSystem.codec`.
On a General U the walk's D-classes of E(U) stay on the system: the
auto route's General solvers (`munn.dclass_member`,
`munn.dclass_conjugate`) decide on them and one Schutzenberger group
per class, never on U.
`d_class_labels` reads Green's D-classes off the pairs (x x~, x~ x) of
a closed element list, as `meta` does for its maximal J-classes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .oracle import ELEMENT_CAP

SEMILATTICES = ("Trivial", "Semilattice")
GROUPS = ("Trivial", "Group")
CLIFFORD = ("Trivial", "Semilattice", "Group", "Clifford")

# the refusal where E(U) passes the cap, with the cap as its figure
E_CAP_EXCEEDED = "idempotent (E(U)) cap exceeded: more than %d idempotents"


class OutsideTractable(Exception):
    """E(U) passed the cap, which cuts off the StrictInverse/General
    split: the one refusal of the pb solvers, none of which enumerates U."""


@dataclass(frozen=True)
class VarietyTag:
    name: str  # Trivial | Semilattice | Group | Clifford | StrictInverse | General
    divides_Y2: bool
    divides_B2: bool
    divides_B21: bool
    # "generators" or "idempotents": how the name was decided
    classified_by: str = field(default="idempotents", compare=False)
    # |E(U)| where the idempotents decided the name, else None
    idempotents: int | None = field(default=None, compare=False)

    def is_semilattice(self):
        return self.name in SEMILATTICES

    def is_group(self):
        return self.name in GROUPS

    def is_strict_inverse(self):
        return self.name != "General"


def _tag(name, classified_by="idempotents", idempotents=None):
    """The tag of a variety name; the divisor flags follow from it."""
    return VarietyTag(name,
                      divides_Y2=name not in GROUPS,
                      divides_B2=name not in CLIFFORD,
                      divides_B21=name == "General",
                      classified_by=classified_by,
                      idempotents=idempotents)


def classify_from_generators(gs):
    """The variety name of U = <Sigma> read off the inverse-closed
    generator list, or None when U is not Clifford.  Uses O(|Sigma|^2)
    products, on the codes of gs.codec, and is exact:

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
    mul, gens = gs.codec.mul, gs.generator_codes
    if all(mul(u, u) == u for u in gens):
        return "Trivial" if len(gens) == 1 else "Semilattice"
    es = []
    for u, i in zip(gens, gs.inv_index):
        ub = gens[i]
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


def idempotent_steps(gs):
    """(u~, u, u u~) per generator u, as codes of gs.codec with u and
    u u~ as right factors (`codec.right`): the step e -> u~ e u of E(U),
    an edge of its D-classes where e <= u u~."""
    ops, gens = gs.codec, gs.generator_codes
    return [(gens[i], ops.right(u), ops.right(ops.mul(u, gens[i])))
            for u, i in zip(gens, gs.inv_index)]


def _split_on_idempotents(gs, cap):
    """StrictInverse or General, decided on E(U) = {x~ x : x in U}
    alone: (strict, |E(U)|), or None when E(U) has more than `cap`
    elements.  Sigma is inverse-closed; the facts below hold in every
    inverse semigroup (Lawson, Inverse Semigroups, 1998).

    - E(U) is the orbit of the seeds u~ u (u in Sigma) under
      e -> u~ e u: x = w u has x~ x = u~ (w~ w) u.  On the pb model
      u~ e_A u is the partial identity on (A & dom u) u, and e <= f is
      A <= B.
    - Every idempotent lies below a seed, as u~ (w~ w) u <= u~ u.  So
      an idempotent above two idempotents puts a seed above both.
    - The D-classes of E(U) are the components of the edges
      e - u~ e u with e <= u u~ (on pb: A <= dom u).  An edge is a
      D-pair: x = e u has x x~ = e u u~ e = e and x~ x = u~ e u; and
      its reverse is the edge of u~ from u~ e u <= u~ u.  Conversely let
      x = u_1 ... u_k have x x~ = e and x~ x = f.  Put p_i = e u_1 ...
      u_i (p_0 = e, p_k = e x = x) and e_i = p_i~ p_i, so that
      e_0 = e, e_k = f and e_i = u_i~ e_(i-1) u_i.  The idempotents
      p_i p_i~ descend from e to x x~ = e, so all equal e; then
      e = p_(i-1) u_i u_i~ p_(i-1)~ gives e_(i-1) <= u_i u_i~ on
      multiplying by p_(i-1)~ on the left and p_(i-1) on the right.  So
      e = e_0 - e_1 - ... - e_k = f is a path of edges in E(U).  (On
      pb: every prefix of x maps all of A = dom x.)
    - U is strict inverse when no idempotent lies above two distinct
      D-related ones; by the second fact it is enough to look above
      each seed, and only at idempotents whose D-class has two or more.

    The orbit is walked one D-class at a time: the edges from a class's
    first idempotent reach the class, and every other step leads to an
    idempotent that starts a later class unless an edge reaches it
    first.  Cost: |E(U)| |Sigma| products for the orbit and edges, and
    |Sigma| products per shared idempotent for the test, on gs.codec's
    codes.  On a General U the map from each idempotent to the first of
    its D-class (its root) is kept as gs._d_roots, from which `munn`
    decides membership and conjugacy without the closure.
    """
    ops = gs.codec
    table, product = ops.right, ops.product
    steps = idempotent_steps(gs)
    seeds = list(dict.fromkeys(product(ub, tu) for ub, tu, _ in steps))
    if len(seeds) > cap:
        return None
    found = list(seeds)  # E(U) in the order the walk finds it
    seen = set(found)
    label = {}  # idempotent -> the first idempotent of its D-class
    for top in found:
        if top in label:
            continue
        label[top] = top
        stack = [top]
        while stack:
            e = stack.pop()
            te = table(e)
            for ub, tu, td in steps:
                f = product(product(ub, te), tu)
                if f not in seen:
                    if len(found) >= cap:
                        return None
                    seen.add(f)
                    found.append(f)
                if f not in label and product(e, td) == e:
                    label[f] = top
                    stack.append(f)
    size = Counter(label.values())
    shared = [(f, c) for f, c in label.items() if size[c] > 1]
    for s in seeds:
        ts = table(s)
        below = [c for f, c in shared if product(f, ts) == f]
        if len(below) != len(set(below)):
            # the General solvers on the auto route read the D-classes
            gs._d_roots = label
            return False, len(found)
    return True, len(found)


def classify_generated(gs, cap=ELEMENT_CAP):
    """Classify U = <Sigma>: from the generators when U is Clifford,
    otherwise on E(U) under `cap` to split StrictInverse from General.
    Where E(U) passes the cap, raise OutsideTractable and record the cap
    on gs, so that this cap and every smaller one are refused at once.
    """
    if gs._variety is not None:
        return gs._variety
    if cap <= gs._over_e_cap:
        # the walk is deterministic and passed this cap before
        raise OutsideTractable(E_CAP_EXCEEDED % cap)
    name = classify_from_generators(gs)
    if name is not None:
        tag = _tag(name, "generators")
    else:
        split = _split_on_idempotents(gs, cap)
        if split is None:
            gs._over_e_cap = cap
            raise OutsideTractable(E_CAP_EXCEEDED % cap)
        strict, count = split
        tag = _tag("StrictInverse" if strict else "General",
                   idempotents=count)
    gs._variety = tag
    return tag
