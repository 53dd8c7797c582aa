"""Cayley-table-model solvers: relative R-equivalence and conjugacy as
undirected reachability (a `search.UnionFind` over graph edges), and
the greedy membership loop, whose witness words are shortest R-graph
paths (`search.shortest_path`).

Elements, products and inverses are those of the GeneratorSystem on the
table: without an identity, S^1 adjoins VIRTUAL_ONE; tables are never
rebuilt.  The edges of both graphs are found by gathers on the table
array, one column or row per generator.

numpy is imported inside `_edges`, its only user, so that loading this
module does not load numpy: importing it takes longer than a
partial-bijection query, and only Cayley-table commands reach here.
"""

from __future__ import annotations

from .gensys import GeneratorSystem, VIRTUAL_ONE
from .search import UnionFind, shortest_path


class CTSolver:
    """Solver state for one (table, Sigma) pair; the reachability
    structures depend only on these and are built once.
    """

    def __init__(self, table, sigma):
        self.table = table
        self.gs = GeneratorSystem(sigma, table=table)
        self.sigma = self.gs.generators
        self._pairs = [(u, self.gs.inv(u)) for u in self.sigma]
        # S^1 in index order, the virtual identity (if adjoined) last
        self.elements = list(range(table.order))
        if self.gs.adjoined_identity:
            self.elements.append(VIRTUAL_ONE)
        self._r_uf = None
        self._r_adj = None
        self._conj_uf = None

    # -- the reachability graphs ------------------------------------------

    def _edges(self, act):
        """The edges (x, y, i) with y = act(u)[x] != x and
        act(u~)[y] = x, where (u, u~) is pair i and act(u) maps every
        index at once.  They come sorted by (x, i), the order of a scan
        of every x against every pair, which fixes the adjacency lists
        and so the witness words.  The virtual identity, if adjoined,
        lies on no edge: every product of indices is an index.
        """
        import numpy as np

        ar = np.arange(self.table.order)
        images = {u: act(u) for u in self.sigma}
        xs, ys, ps = [], [], []
        for i, (u, ub) in enumerate(self._pairs):
            y = images[u]
            x = np.flatnonzero((y != ar) & (images[ub][y] == ar))
            xs.append(x)
            ys.append(y[x])
            ps.append(np.full(len(x), i))
        x = np.concatenate(xs)
        order = np.argsort(x, kind="stable")
        return zip(x[order].tolist(), np.concatenate(ys)[order].tolist(),
                   np.concatenate(ps)[order].tolist())

    def _build_r(self):
        """Edges {x, y} whenever xu = y and x = y u~ for some u in
        Sigma; connectivity is relative R-equivalence.
        """
        if self._r_uf is not None:
            return
        T = self.table.array
        pairs = self._pairs
        uf = UnionFind()
        adj = {x: [] for x in self.elements}
        for x, y, i in self._edges(lambda u: T[:, u]):
            u, ub = pairs[i]
            uf.union(x, y)
            adj[x].append((y, u))
            adj[y].append((x, ub))
        self._r_uf = uf
        self._r_adj = adj

    def r_equiv(self, s, t):
        self._build_r()
        return self._r_uf.find(s) == self._r_uf.find(t)

    def _r_path_word(self, x, y):
        """A word over Sigma multiplying x to y along R-graph edges."""
        word = shortest_path(x, self._r_adj.__getitem__, lambda w: w == y)
        assert word is not None, "no R-path between R-equivalent elements"
        return word

    def _build_conj(self):
        """Edges {x, y} whenever u~ x u = y and x = u y u~."""
        if self._conj_uf is not None:
            return
        T = self.table.array
        inv = self.gs.inv
        uf = UnionFind()
        for x, y, _ in self._edges(lambda u: T[T[inv(u)], u]):
            uf.union(x, y)
        self._conj_uf = uf

    def conjugate(self, s, t):
        self._build_conj()
        return self._conj_uf.find(s) == self._conj_uf.find(t)

    # -- greedy membership -------------------------------------------------

    def member(self, t):
        """Greedy membership: is t in U = <Sigma>?

        Returns (bool, witness word, iterations).  The loop follows the
        published form: starting from the identity, repeatedly pick the
        first y R_U-equivalent to the current x and u in Sigma with
        y u u~ != y and y u u~ y~ t = t, and move to yu.
        """
        self._build_r()
        gs = self.gs
        mul = gs.mul
        inv = gs.inv
        one = gs.one
        pairs = self._pairs
        if t == one:
            # The loop normalizes by adjoining 1 to U, so answer t = 1
            # directly.  A virtual identity is part of the normalized
            # problem; a real identity lies in <Sigma> iff some
            # generator has u u~ = 1 (1 is the top idempotent).
            if gs.adjoined_identity:
                return True, (), 0
            for u, ub in pairs:
                if mul(u, ub) == one:
                    return True, (u, ub), 0
            return False, None, 0
        find = self._r_uf.find
        elements = self.elements
        x = one
        word = ()
        iterations = 0
        while True:
            step = None
            x_root = find(x)
            for y in elements:
                if find(y) != x_root:
                    continue
                yb = inv(y)
                for u, ub in pairs:
                    yuub = mul(mul(y, u), ub)
                    if yuub != y and mul(mul(yuub, yb), t) == t:
                        step = (y, u)
                        break
                if step is not None:
                    break
            if step is None:
                break
            y, u = step
            word = word + self._r_path_word(x, y) + (u,)
            x = mul(y, u)
            iterations += 1
            # invariants: x in U with the witness word, and x x~ t = t
            acc = one
            for letter in word:
                acc = mul(acc, letter)
            assert acc == x, "witness word does not evaluate to x"
            assert mul(mul(x, inv(x)), t) == t, "x x~ t = t violated"
            assert iterations <= len(elements), \
                "greedy loop exceeded |S| steps"
        if not self.r_equiv(x, t):
            return False, None, iterations
        return True, word + self._r_path_word(x, t), iterations
