"""Nondeterministic constraint logic (NCL) machines: cubic
edge-weighted graphs whose configurations are edge orientations with
in-flow at least two at every vertex; transitions reverse one edge.

Orientations are tuples with one bit per edge in listing order: 0 means
the edge points toward its first endpoint, 1 toward its second.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product


@dataclass(frozen=True)
class NCLMachine:
    vertices: int
    edges: tuple  # of (u, v, weight), 0-based vertices
    config_s: tuple  # orientation bit per edge
    config_t: tuple


def incident_edges(M, v):
    """Indices of the edges at v, in edge listing order."""
    return [i for i, (a, b, _) in enumerate(M.edges) if v in (a, b)]


def in_flow(M, orientation, v):
    total = 0
    for i, (a, b, w) in enumerate(M.edges):
        head = a if orientation[i] == 0 else b
        if head == v:
            total += w
    return total


def is_config(M, orientation):
    return all(in_flow(M, orientation, v) >= 2 for v in range(M.vertices))


def ncl_validate(M):
    """Check the machine invariants; returns a list of violations."""
    problems = []
    seen = set()
    degree = [0] * M.vertices
    for i, (a, b, w) in enumerate(M.edges):
        if not (0 <= a < M.vertices and 0 <= b < M.vertices):
            problems.append("edge %d: endpoint out of range" % i)
            continue
        if a == b:
            problems.append("edge %d: loop" % i)
        key = frozenset((a, b))
        if key in seen:
            problems.append("edge %d: parallel edge" % i)
        seen.add(key)
        if w not in (1, 2):
            problems.append("edge %d: weight %r not in {1, 2}" % (i, w))
        degree[a] += 1
        degree[b] += 1
    for v, d in enumerate(degree):
        if d != 3:
            problems.append("vertex %d has degree %d, expected 3" % (v, d))
    for name, cfg in (("config_s", M.config_s), ("config_t", M.config_t)):
        if len(cfg) != len(M.edges):
            problems.append("%s: wrong length" % name)
        elif not is_config(M, cfg):
            problems.append("%s: in-flow below 2 at some vertex" % name)
    return problems


def local_configs(M, v):
    """Valid orientations of the edges at v, as tuples over
    incident_edges(M, v) in listing order; binary counting order."""
    inc = incident_edges(M, v)
    out = []
    for bits in product((0, 1), repeat=len(inc)):
        flow = 0
        for i, bit in zip(inc, bits):
            a, b, w = M.edges[i]
            head = a if bit == 0 else b
            if head == v:
                flow += w
        if flow >= 2:
            out.append(bits)
    return out


def restrict(M, orientation, v):
    """The local configuration of a global orientation at v."""
    return tuple(orientation[i] for i in incident_edges(M, v))
