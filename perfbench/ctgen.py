"""Seeded Cayley-table instances: graph-reachability (UGAP) tables,
closure exports of partial-bijection families, and chain semilattices.

Tables are numpy arrays with their inverse maps, randomly relabelled
per op so that no two ops share a table.  Expected answers come from a
breadth-first closure over the table, not from invsem.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from . import pbgen


class Table:
    def __init__(self, table, inv, identity):
        self.table = table  # n x n int array
        self.inv = inv  # int array
        self.identity = identity  # index or None

    @property
    def order(self):
        return len(self.inv)

    def relabel(self, rng):
        n = self.order
        perm = np.array(rng.sample(range(n), n))
        table = np.empty_like(self.table)
        table[np.ix_(perm, perm)] = perm[self.table]
        inv = np.empty_like(self.inv)
        inv[perm] = perm[self.inv]
        ident = None if self.identity is None else int(perm[self.identity])
        return Table(table, inv, ident), perm

    def mul(self, x, y):
        """Product with the virtual identity -1 adjoined."""
        if x < 0:
            return y
        if y < 0:
            return x
        return int(self.table[x, y])

    def closure(self, gens):
        gens = sorted({int(x) for g in gens for x in (g, self.inv[g])})
        seen = set(gens)
        frontier = list(gens)
        rows = self.table
        while frontier:
            nxt = []
            for x in frontier:
                row = rows[x]
                for g in gens:
                    y = int(row[g])
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    def conjugate(self, elements, s, t):
        """Is there u in U^1 with u~ s u = t and u t u~ = s?"""
        if s == t:
            return True
        mul = self.mul
        for u in elements:
            ub = int(self.inv[u])
            if mul(mul(ub, s), u) == t and mul(mul(u, t), ub) == s:
                return True
        return False

    def text(self, gens, **records):
        lines = ["ct %d" % self.order]
        names = [str(i) for i in range(self.order)]
        lines.extend(" ".join(itemgetter(*row)(names))
                     for row in self.table.tolist())
        lines.append("gens " + " ".join(str(int(g)) for g in gens))
        for key in ("target", "s", "t"):
            if key in records:
                lines.append("%s %d" % (key, records[key]))
        return "\n".join(lines) + "\n"


def brandt(n):
    """B(n): index 0 the zero, 1 + x*n + y the map x -> y."""
    m = 1 + n * n
    idx = np.arange(1, m)
    x, y = (idx - 1) // n, (idx - 1) % n
    table = np.zeros((m, m), dtype=np.int64)
    match = y[:, None] == x[None, :]
    table[1:, 1:] = np.where(match, 1 + x[:, None] * n + y[None, :], 0)
    inv = np.zeros(m, dtype=np.int64)
    inv[1:] = 1 + y * n + x
    return Table(table, inv, None)


def with_marker(base):
    """base x Y2, Y2 = {0 neutral, 1 absorbing}; (a, b) -> 2a + b."""
    n = base.order
    table = (2 * np.repeat(np.repeat(base.table, 2, axis=0), 2, axis=1)
             + np.tile(np.array([[0, 1], [1, 1]]), (n, n)))
    inv = np.repeat(2 * base.inv, 2) + np.tile(np.array([0, 1]), n)
    return Table(table, inv, None)


def chain(n):
    """The chain semilattice 0 > 1 > ... > n-1 under max; 0 is the
    identity."""
    ar = np.arange(n)
    return Table(np.maximum(ar[:, None], ar[None, :]), ar.copy(), 0)


def from_family(family):
    """The Cayley table of a family's closure; returns (table, elements)."""
    elements = sorted(pbgen.closure(family.gens, family.size), key=repr)
    k = family.k
    arr = np.array([[-1 if y is None else y for y in e] for e in elements])
    # prod[i, j, x]: image of x under element i followed by element j
    prod = arr[np.arange(len(elements))[None, :, None],
               np.clip(arr, 0, None)[:, None, :]]
    prod[np.broadcast_to(arr[:, None, :] < 0, prod.shape)] = -1
    weights = (k + 1) ** np.arange(k)
    keys = (arr + 1) @ weights
    order = np.argsort(keys)
    table = order[np.searchsorted(keys[order], (prod + 1) @ weights)]
    index = {x: i for i, x in enumerate(elements)}
    inv = np.array([index[pbgen.inverse(e)] for e in elements])
    return Table(table, inv, index.get(pbgen.identity(k))), elements


def random_graph(rng, n, edges):
    """A random simple graph on n vertices with the given edge count."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return rng.sample(pairs, min(edges, len(pairs)))


def connected(n, edges, s, t):
    adj = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {s}
    stack = [s]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return t in seen
