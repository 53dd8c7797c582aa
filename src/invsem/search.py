"""Graph search for the whole library: reachability along maps,
breadth-first shortest paths with their edge labels, and a union-find.
Nodes are hashable; a map is indexable by a node (a list over indices,
a PartialBijection over points), with None where it is undefined.
"""

from __future__ import annotations


class SearchCapExceeded(Exception):
    """A shortest-path search saw more nodes than its cap allows."""


def reach(seeds, maps, reached=None):
    """Add to the set `reached` (a new set if None) the seeds and every
    node reachable from them along `maps`, skipping None images;
    returns `reached`."""
    stack = list(seeds)
    reached = set() if reached is None else reached
    reached.update(stack)
    while stack:
        a = stack.pop()
        for m in maps:
            z = m[a]
            if z is not None and z not in reached:
                reached.add(z)
                stack.append(z)
    return reached


def shortest_path(start, successors, is_goal, cap=None):
    """The labels along a shortest path from `start` to a node passing
    `is_goal`, as a tuple, or None when no such node is reachable.

    successors(node) yields (node, label) pairs.  Each node is tested
    when first seen, so of the shortest paths the first in successor
    order is returned.  Seeing more than `cap` nodes raises
    SearchCapExceeded."""
    if is_goal(start):
        return ()
    prev = {start: None}
    queue = [start]
    for node in queue:
        for nxt, label in successors(node):
            if nxt in prev:
                continue
            prev[nxt] = (node, label)
            if is_goal(nxt):
                path = []
                while prev[nxt] is not None:
                    nxt, label = prev[nxt]
                    path.append(label)
                return tuple(reversed(path))
            if cap is not None and len(prev) > cap:
                raise SearchCapExceeded(cap)
            queue.append(nxt)
    return None


class UnionFind:
    """Disjoint sets over hashable elements, created on first find."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)
