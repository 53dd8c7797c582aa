"""Reductions for Clifford and strict inverse semigroups of partial
bijections: orbit closures, Munn graphs, bases, H-class generators,
minimal dominating idempotents, and the dispatcher that routes an
instance to the matching solver.

All solvers here end in a call to the group solver on a single H-class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pbij import identity, partial_identity
from .oracle import ClosureCapExceeded, naive_member, naive_conjugate
from .classify import UnionFind, VarietyTag, classify_generated
from .gensys import GeneratorSystem
from .groups import pb_group_member, group_conjugate


class OutsideTractable(Exception):
    """The instance fell through to the brute-force route and exceeded
    its cap."""


# -- orbits ----------------------------------------------------------------


def orbit_closure(gs, points):
    """X^<Sigma>: the points reachable from X in the Schreier graph,
    restricted to points with an incident generator edge.
    """
    seen = set()
    stack = [x for x in points
             if any(u[x] is not None for u in gs.generators)]
    seen.update(stack)
    while stack:
        x = stack.pop()
        for u in gs.generators:
            y = u[x]
            if y is not None and y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def _require_invariant(gs, delta):
    if orbit_closure(gs, delta) != frozenset(delta):
        raise ValueError("point set is not U-invariant")


def is_delta_large(gs, delta, u):
    """Does dom(u) meet every U-orbit inside the invariant set delta?"""
    _require_invariant(gs, delta)
    return _is_large(gs, frozenset(delta), u)


def _is_large(gs, delta, u):
    return orbit_closure(gs, u.domain() & delta) == delta


# -- Munn graphs -----------------------------------------------------------


@dataclass
class MunnGraph:
    delta: frozenset
    e_delta: object
    vertices: tuple  # idempotents e_delta u u~, deduplicated
    vertex_index: dict
    edges: tuple  # (generator index, src vertex, tgt vertex)
    comp: tuple  # component id per vertex

    def component_of(self, v):
        return self.comp[v]


def munn_graph(gs, delta):
    """The Munn graph at an invariant set delta: vertices e_delta u u~
    over the delta-large generators u, one edge per such generator.
    """
    delta = frozenset(delta)
    _require_invariant(gs, delta)
    n = gs.degree
    e_delta = partial_identity(n, delta)
    vertices = []
    vertex_index = {}
    edges = []
    for i, u in enumerate(gs.generators):
        if not _is_large(gs, delta, u):
            continue
        src = gs.mul(e_delta, gs.mul(u, gs.inv(u)))
        tgt = gs.mul(e_delta, gs.mul(gs.inv(u), u))
        for v in (src, tgt):
            if v not in vertex_index:
                vertex_index[v] = len(vertices)
                vertices.append(v)
        edges.append((i, vertex_index[src], vertex_index[tgt]))
    # components, numbered densely in vertex order
    uf = UnionFind()
    for _, a, b in edges:
        uf.union(a, b)
    roots = {}
    comp = tuple(roots.setdefault(uf.find(v), len(roots))
                 for v in range(len(vertices)))
    return MunnGraph(delta, e_delta, tuple(vertices), vertex_index,
                     tuple(edges), comp)


def munn_dot(M):
    """The Munn graph in DOT form (one line per vertex and edge)."""
    def label(e):
        pts = sorted(x + 1 for x in e.domain())
        return "{%s}" % ",".join(map(str, pts))

    lines = ["graph munn {"]
    for i, v in enumerate(M.vertices):
        lines.append('  v%d [label="%s"];' % (i, label(v)))
    for gi, a, b in M.edges:
        lines.append('  v%d -- v%d [label="g%d"];' % (a, b, gi))
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- bases -----------------------------------------------------------------


@dataclass
class Basis:
    munn: MunnGraph
    anchor: int  # vertex index of e
    gamma: dict  # vertex index -> element of U
    lam: dict  # generator index -> element of U
    sigma_e: tuple  # generator indices of the component's edges


def basis_at(gs, M, anchor):
    """A basis at (delta, e): conjugators gamma(f) from the anchor
    vertex e to each vertex f of its component, built along BFS-shortest
    paths (ties by edge list position), and the edge relabeling lambda.
    """
    mul = gs.mul
    inv = gs.inv
    e = M.vertices[anchor]
    cid = M.comp[anchor]
    # adjacency in edge-list order
    adj = [[] for _ in M.vertices]
    for gi, a, b in M.edges:
        adj[a].append((b, gi))
    # BFS paths (as generator-index tuples) from the anchor
    paths = {anchor: ()}
    queue = [anchor]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w, gi in adj[v]:
            if w not in paths:
                paths[w] = paths[v] + (gi,)
                queue.append(w)
    sigma_e = tuple(gi for gi, a, _ in M.edges if M.comp[a] == cid)
    # e-tilde: product of u u~ over component edges with u u~ >= e
    etilde = None
    for gi in sigma_e:
        u = gs.generators[gi]
        uub = mul(u, inv(u))
        if mul(e, uub) == e:
            etilde = uub if etilde is None else mul(etilde, uub)
    assert etilde is not None, "anchor vertex has no dominating edge"
    gamma = {anchor: etilde}
    for v, path in paths.items():
        if v == anchor:
            continue
        g = etilde
        for gi in path:
            g = mul(g, gs.generators[gi])
        gamma[v] = g
    lam = {}
    for gi, a, b in M.edges:
        if M.comp[a] == cid:
            lam[gi] = mul(mul(gamma[a], gs.generators[gi]),
                          inv(gamma[b]))
    basis = Basis(M, anchor, gamma, lam, sigma_e)
    _check_basis(gs, basis)
    return basis


def _inv_index(gs):
    index = {g: i for i, g in enumerate(gs.generators)}
    return [index[gs.inv(g)] for g in gs.generators]


def _check_basis(gs, B):
    mul = gs.mul
    inv = gs.inv
    M = B.munn
    e = M.vertices[B.anchor]
    ge = B.gamma[B.anchor]
    assert mul(ge, ge) == ge, "gamma(e) not idempotent"
    for v, g in B.gamma.items():
        f = M.vertices[v]
        gb = inv(g)
        assert mul(mul(g, gb), ge) == mul(g, gb), "gamma(e) >= gamma gamma~ fails"
        assert mul(mul(gb, e), g) == f, "gamma~(f) e gamma(f) != f"
        assert mul(mul(g, f), gb) == e, "gamma(f) f gamma~(f) != e"
    invix = _inv_index(gs)
    for gi, l in B.lam.items():
        lb = B.lam[invix[gi]]
        assert lb == inv(l), "lambda(u~) != lambda(u)^-1"
        assert mul(l, lb) == mul(lb, l), "lambda commutation fails"


def hclass_generators(gs, B):
    """Generators e lambda(u) of the group H-class U_e at the basis
    anchor."""
    mul = gs.mul
    inv = gs.inv
    e = B.munn.vertices[B.anchor]
    out = []
    for gi in B.sigma_e:
        g = mul(e, B.lam[gi])
        assert mul(g, inv(g)) == e and mul(inv(g), g) == e
        if g not in out:
            out.append(g)
    return out


# -- minimal dominating idempotents ---------------------------------------


def sis_min_idempotent(gs, e):
    """The minimal idempotent of E(U) union {1} above e, for U a strict
    inverse semigroup.  Returns (e-hat, in_U)."""
    mul = gs.mul
    inv = gs.inv
    delta = orbit_closure(gs, e.domain())
    M = munn_graph(gs, delta)
    anchors = [i for i, v in enumerate(M.vertices) if e.le(v)]
    assert len(anchors) <= 1, "dominating vertex not unique; input not SIS"
    if not anchors:
        return identity(gs.degree), False
    B = basis_at(gs, M, anchors[0])
    ehat = None
    for gi in B.sigma_e:
        l = B.lam[gi]
        ll = mul(l, inv(l))
        ehat = ll if ehat is None else mul(ehat, ll)
    assert mul(ehat, ehat) == ehat and e.le(ehat)
    return ehat, True


def clifford_min_idempotent(gs, e):
    """Product formula for Clifford U: e-hat = prod of u u~ over
    generators with u u~ >= e; (1, False) if none participate."""
    mul = gs.mul
    inv = gs.inv
    ehat = None
    for u in gs.generators:
        uub = mul(u, inv(u))
        if mul(e, uub) == e:
            ehat = uub if ehat is None else mul(ehat, uub)
    if ehat is None:
        return identity(gs.degree), False
    return ehat, True


# -- Clifford solvers ------------------------------------------------------


def _hclass_system(gs, ehat):
    gens = [gs.mul(ehat, u) for u in gs.generators
            if gs.mul(ehat, gs.mul(u, gs.inv(u))) == ehat]
    return GeneratorSystem(gens, degree=gs.degree)


def clifford_member(gs, t):
    e = gs.mul(t, gs.inv(t))
    ehat, in_u = clifford_min_idempotent(gs, e)
    if not in_u or ehat != e:
        return False
    ok, _ = pb_group_member(_hclass_system(gs, ehat), t)
    return ok


def clifford_conjugate(gs, s, t):
    if s == t:
        return True, gs.one
    join = partial_identity(
        gs.degree,
        s.domain() | s.ran() | t.domain() | t.ran(),
    )
    ehat, in_u = clifford_min_idempotent(gs, join)
    if not in_u:
        return False, None
    return group_conjugate(_hclass_system(gs, ehat), s, t)


# -- strict inverse solvers ------------------------------------------------


def sis_member(gs, t, explain=None):
    mul = gs.mul
    inv = gs.inv
    e = mul(t, inv(t))
    f = mul(inv(t), t)
    delta = orbit_closure(gs, e.domain())
    if orbit_closure(gs, f.domain()) != delta:
        return False
    M = munn_graph(gs, delta)
    if explain is not None:
        explain["delta"] = delta
        explain["munn_dot"] = munn_dot(M)
    if e not in M.vertex_index or f not in M.vertex_index:
        return False
    ve = M.vertex_index[e]
    vf = M.vertex_index[f]
    if M.comp[ve] != M.comp[vf]:
        return False
    basis_e = basis_at(gs, M, ve)
    if _component_min_idempotent(gs, basis_e) != e:
        return False
    if vf != ve:
        basis_f = basis_at(gs, M, vf)
        if _component_min_idempotent(gs, basis_f) != f:
            return False
    sigma_e = hclass_generators(gs, basis_e)
    t_prime = mul(t, inv(basis_e.gamma[vf]))
    group = GeneratorSystem(sigma_e, degree=gs.degree)
    if explain is not None:
        explain["basis_gamma"] = {v: g for v, g in basis_e.gamma.items()}
        explain["group_generators"] = sigma_e
        explain["group_target"] = t_prime
    ok, _ = pb_group_member(group, t_prime)
    return ok


def _component_min_idempotent(gs, B):
    mul = gs.mul
    inv = gs.inv
    ehat = None
    for gi in B.sigma_e:
        l = B.lam[gi]
        ll = mul(l, inv(l))
        ehat = ll if ehat is None else mul(ehat, ll)
    return ehat


def sis_conjugate(gs, s, t, explain=None):
    mul = gs.mul
    inv = gs.inv
    if s == t:
        return True, gs.one
    e = partial_identity(gs.degree, s.domain() | s.ran())
    f = partial_identity(gs.degree, t.domain() | t.ran())
    ehat, in_e = sis_min_idempotent(gs, e)
    fhat, in_f = sis_min_idempotent(gs, f)
    if not (in_e and in_f):
        return False, None
    delta = orbit_closure(gs, ehat.domain())
    if orbit_closure(gs, fhat.domain()) != delta:
        return False, None
    M = munn_graph(gs, delta)
    if explain is not None:
        explain["delta"] = delta
        explain["munn_dot"] = munn_dot(M)
    if ehat not in M.vertex_index or fhat not in M.vertex_index:
        return False, None
    ve = M.vertex_index[ehat]
    vf = M.vertex_index[fhat]
    if M.comp[ve] != M.comp[vf]:
        return False, None
    B = basis_at(gs, M, ve)
    gamma_f = B.gamma[vf]
    t_prime = mul(mul(gamma_f, t), inv(gamma_f))
    group = GeneratorSystem(hclass_generators(gs, B), degree=gs.degree)
    if explain is not None:
        explain["group_generators"] = group.generators
        explain["group_target"] = t_prime
    ok, u = group_conjugate(group, s, t_prime)
    if not ok:
        return False, None
    v = mul(u, gamma_f)
    vb = inv(v)
    assert mul(mul(vb, s), v) == t and mul(mul(v, t), vb) == s
    return True, v


# -- semilattice fast path -------------------------------------------------


def semilattice_member(gs, t):
    mul = gs.mul
    if mul(t, t) != t:
        return False
    meet = None
    for u in gs.generators:
        if mul(t, u) == t:  # u >= t
            meet = u if meet is None else mul(meet, u)
    return meet == t


def semilattice_conjugate(gs, s, t):
    if s == t:
        return True, gs.one
    return False, None


# -- dispatcher ------------------------------------------------------------

GENERAL_CAP = 10**6

# does a tag put U at or below the assumed variety?
_HINT_HOLDS = {
    "Trivial": lambda tag: tag.name == "Trivial",
    "Semilattice": VarietyTag.is_semilattice,
    "Group": VarietyTag.is_group,
    "Clifford": VarietyTag.is_clifford,
    "StrictInverse": VarietyTag.is_strict_inverse,
    "General": lambda tag: True,
}


def _route(gs, assume, cap, explain):
    """The variety name whose solver decides the instance.  A hint
    `assume` other than General is taken only where the classification
    puts U at or below it; General is always taken and skips the
    classification."""
    if assume is not None and assume not in _HINT_HOLDS:
        raise ValueError("unknown variety %r" % (assume,))
    if assume == "General":
        name, by = assume, "assume"
    else:
        tag = classify_generated(gs, cap)
        name, by = tag.name, tag.classified_by
        if assume is not None:
            if not _HINT_HOLDS[assume](tag):
                if tag.cap_exceeded and assume == "StrictInverse":
                    raise OutsideTractable(
                        "closure cap exceeded while checking the "
                        "assumed variety StrictInverse")
                raise ValueError("assumed variety %s does not hold: U is %s"
                                 % (assume, tag.name))
            name = assume
    if explain is not None:
        explain["variety"] = name
        explain["classified_by"] = by
    return name


def dispatch_member(gs, t, assume=None, cap=GENERAL_CAP, explain=None):
    """Route a partial-bijection membership instance by variety."""
    name = _route(gs, assume, cap, explain)
    if name in ("Trivial", "Semilattice"):
        return semilattice_member(gs, t)
    if name == "Group":
        ok, _ = pb_group_member(gs, t)
        return ok
    if name == "Clifford":
        return clifford_member(gs, t)
    if name == "StrictInverse":
        return sis_member(gs, t, explain=explain)
    try:
        ok, _ = naive_member(gs, t, cap)
    except ClosureCapExceeded as exc:
        raise OutsideTractable(str(exc))
    return ok


def dispatch_conjugate(gs, s, t, assume=None, cap=GENERAL_CAP, explain=None):
    """Route a partial-bijection conjugacy instance by variety.
    Returns (bool, conjugator or None)."""
    name = _route(gs, assume, cap, explain)
    if name in ("Trivial", "Semilattice"):
        return semilattice_conjugate(gs, s, t)
    if name == "Group":
        return group_conjugate(gs, s, t)
    if name == "Clifford":
        return clifford_conjugate(gs, s, t)
    if name == "StrictInverse":
        return sis_conjugate(gs, s, t, explain=explain)
    try:
        return naive_conjugate(gs, s, t, cap)
    except ClosureCapExceeded as exc:
        raise OutsideTractable(str(exc))
