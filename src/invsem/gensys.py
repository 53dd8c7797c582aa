"""Generator systems: an inverse-closed generator list in either input
model (partial bijections or a Cayley table), presenting U = <Sigma>
inside an ambient S.  `codec`, the element kernel its scans multiply
codes of, is fixed at construction: `pbij.kernel` or the table itself.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .pbij import PartialBijection, compose, identity, kernel
from .search import UnionFind

# Virtual adjoined identity for Cayley tables without one; never a valid
# element index.
VIRTUAL_ONE = -1

# The point record of a pb system (`GeneratorSystem.points`): the domain
# mask of each generator u (the mask of u u~), in generator order, and
# per point x the mask of its <Sigma>-orbit, or ~x (a negative int, a
# label of its own) where no generator touches x.
Points = namedtuple("Points", "masks orbits")


class GeneratorSystem:
    """A finite inverse-closed generator list.

    model "pb": ambient is the degree n, elements are PartialBijection
    on n points.  model "ct": ambient is a CayleyTable, elements are
    indices into it.  Missing inverses are added at construction.
    """

    def __init__(self, generators, *, degree=None, table=None):
        generators = list(generators)
        if not generators:
            raise ValueError("empty generator list")
        if (degree is None) == (table is None):
            raise ValueError("give exactly one of degree= or table=")
        if table is not None:
            self.model = "ct"
            self.table = table
            self.degree = None
            for g in generators:
                if not (0 <= g < table.order):
                    raise ValueError("generator index %r out of range" % (g,))
        else:
            self.model = "pb"
            self.table = None
            self.degree = degree
            for g in generators:
                if not isinstance(g, PartialBijection) or g.degree != degree:
                    raise ValueError("generator %r not on %d points" % (g, degree))
        # inverse-close, preserving first-seen order, and keep the
        # position of each generator's inverse
        closed = {}  # generator -> its inverse
        for g in generators:
            if g not in closed:
                ig = closed[g] = self.inv(g)
                closed[ig] = g
        self.generators = tuple(closed)
        index = dict(zip(closed, range(len(closed))))
        self.inv_index = tuple(map(index.get, closed.values()))
        self.codec = table if table is not None else kernel(degree)
        self.adjoined_identity = (
            self.model == "ct" and table.identity_index is None
        )
        # lazy caches, kept for the life of the system, none keyed by
        # query data: closure, the largest element cap it exceeded, the
        # largest cap that E(U) exceeded, classification, on a General U
        # the D-class root of each idempotent (codes of codec, from the
        # E(U) walk) and their domain bit masks, the group BSGS (whose
        # stabilizer chain also finds conjugators) and the group
        # domain's points with their positions, Munn graphs by delta
        # mask, and H-class records: a Clifford group by ("clifford",
        # e-hat mask), a Munn component's basis, reps and group by
        # ("sis", delta, component), and a D-class's reps and group by
        # ("general", root); bases and reps hold codes of codec, Munn
        # vertices and e-hats masks.  The generators' codes and the
        # point record are cached properties.
        self._closure = None
        self._over_cap = 0
        self._over_e_cap = 0
        self._variety = None
        self._d_roots = None
        self._e_masks = None
        self._bsgs = None
        self._group_points = None
        self._munn = {}
        self._hclasses = {}

    # -- element operations ------------------------------------------------

    def mul(self, x, y):
        if self.model == "pb":
            return compose(x, y)
        if x == VIRTUAL_ONE:
            return y
        if y == VIRTUAL_ONE:
            return x
        return self.table.array.item(x, y)

    def inv(self, x):
        if self.model == "pb":
            return x.inverse()
        if x == VIRTUAL_ONE:
            return VIRTUAL_ONE
        return self.table.inverse_map[x]

    @property
    def one(self):
        """The identity of S^1 (adjoined virtually for CT if absent)."""
        if self.model == "pb":
            return identity(self.degree)
        if self.table.identity_index is not None:
            return self.table.identity_index
        return VIRTUAL_ONE

    def is_idempotent(self, x):
        return self.mul(x, x) == x

    @cached_property
    def generator_codes(self):
        """The generators as codes of the codec, encoded once."""
        return tuple(map(self.codec.encode, self.generators))

    @cached_property
    def points(self):
        """The `Points` record of a pb system, from one pass over the
        generators' images: a union per generator edge x -> x^u, so no
        search or union starts at a point that no generator touches.
        Its orbits are the labels of `groups.conj_signature` (read by
        every pb conj before any solver runs) and the masks that
        `munn.orbit_closure` ORs."""
        uf, masks = UnionFind(), []
        for g in self.generators:
            m = 0
            for x, y in enumerate(g):
                if y is not None:
                    m |= 1 << x
                    uf.union(x, y)
            masks.append(m)
        orbit = {}
        for x in uf.parent:
            root = uf.find(x)
            orbit[root] = orbit.get(root, 0) | 1 << x
        return Points(tuple(masks), tuple(
            orbit[uf.find(x)] if x in uf.parent else ~x
            for x in range(self.degree)))

    def __repr__(self):
        where = ("degree %d" % self.degree if self.model == "pb"
                 else "order %d" % self.table.order)
        return "GeneratorSystem(%s, %d generators, %s)" % (
            self.model, len(self.generators), where)
