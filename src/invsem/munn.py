"""Reductions for Clifford and strict inverse semigroups of partial
bijections: orbit closures, Munn graphs, bases, minimal dominating
idempotents, and the dispatcher that routes an instance to its solver.

The dispatcher answers NO to a pb conjugacy pair s != t whose
orbit-labelled cycle/chain signatures (`groups.conj_signature`) differ,
before any solver builds a Munn graph, a D-class or a group.  A strict
inverse U keeps one record per Munn component, and a General U one per
D-class of E(U) (East, Egri-Nagy, Mitchell and Peresse, Computing finite
semigroups, J. Symbolic Comput. 2019): reps and a maximal subgroup H_c,
built once, and a query on either ends in one sift or one conjugacy
search in H_c.  U itself is never enumerated here, so the one refusal
left is the cap on E(U), where it cuts off the StrictInverse/General
split.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pbij import partial_identity
from .oracle import ELEMENT_CAP
from .classify import (OutsideTractable, VarietyTag, classify_generated,
                       idempotent_steps)
from .gensys import GeneratorSystem
from .groups import (conj_signature, group_conjugate, pb_group_member,
                     perm_group_of)
from .search import UnionFind


# -- idempotents and orbits as domain bit masks ---------------------------
#
# An idempotent of I_n is the identity on its domain, so the solvers read
# it as the bit mask of that domain, an int at any degree: e <= f iff
# e & f == e, and a product of idempotents is the AND of their masks.
# Every other element they build is a code of gs.codec, and is decoded
# only where it leaves: the generators of an H-class GeneratorSystem, a
# witness, and --explain text.


def dom_mask(x, undefined=None):
    """The domain of x as a bit mask, the mask of x x~: x is a partial
    bijection, or a code with `undefined` its codec's ops.undefined."""
    return sum(1 << i for i, y in enumerate(x) if y != undefined)


def ran_mask(x):
    """The range of x as a bit mask: the mask of x~ x."""
    return sum(1 << y for y in x if y is not None)


def idempotent_of(gs, a):
    """The code (of gs.codec) of the idempotent whose domain mask is a."""
    return gs.codec.encode(partial_identity(
        gs.degree, (x for x in range(gs.degree) if a >> x & 1)))


def least_above(masks, a):
    """The AND of the masks that contain a, or -1 (every point: the
    identity of U^1) if none does.  Over a set of idempotents whose
    products are idempotents of U, it is the least one above a in the
    semilattice they generate."""
    meet = -1
    for m in masks:
        if a & m == a:
            meet &= m
    return meet


def orbit_closure(gs, a):
    """X^<Sigma> for X the points of the mask a, as a mask: the points
    reachable from X in the Schreier graph, restricted to points with an
    incident generator edge; the OR of the orbit masks over X (of
    `gs.points`, where an untouched point has a negative label)."""
    out = 0
    for x, m in enumerate(gs.points.orbits):
        if a >> x & 1 and m > 0:
            out |= m
    return out


# -- Munn graphs -----------------------------------------------------------


@dataclass
class MunnGraph:
    delta: int  # mask of the invariant point set
    vertices: tuple  # masks of the idempotents e_delta u u~, deduplicated
    vertex_index: dict  # vertex mask -> vertex index
    edges: tuple  # (generator index, src vertex, tgt vertex)
    comp: tuple  # component id per vertex


def munn_graph(gs, delta):
    """The Munn graph at an invariant set delta, a point mask: vertices
    e_delta u u~ over the delta-large generators u (dom u meets every
    U-orbit inside delta), as masks, and one edge per such generator.
    """
    if orbit_closure(gs, delta) != delta:
        raise ValueError("point set is not U-invariant")
    vertices = []
    vertex_index = {}
    edges = []
    for i, (u, m) in enumerate(zip(gs.generators, gs.points.masks)):
        if orbit_closure(gs, m & delta) != delta:  # u is not delta-large
            continue
        src, tgt = delta & m, delta & ran_mask(u)
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
    return MunnGraph(delta, tuple(vertices), vertex_index, tuple(edges),
                     comp)


def munn_dot(M):
    """The Munn graph in DOT form (one line per vertex and edge)."""
    lines = ["graph munn {"]
    for i, v in enumerate(M.vertices):
        lines.append('  v%d [label="{%s}"];' % (i, ",".join(
            str(x + 1) for x in range(v.bit_length()) if v >> x & 1)))
    for gi, a, b in M.edges:
        lines.append('  v%d -- v%d [label="g%d"];' % (a, b, gi + 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- bases -----------------------------------------------------------------


@dataclass
class Basis:
    munn: MunnGraph
    anchor: int  # vertex index of e
    gamma: dict  # vertex index -> code of an element of U
    lam: dict  # generator index -> code of an element of U
    sigma_e: tuple  # generator indices of the component's edges
    ehat: int  # mask of the product of lambda(u) lambda(u)~ over them


def basis_at(gs, M, anchor):
    """A basis at (delta, e): conjugators gamma(f) from the anchor
    vertex e to each vertex f of its component, built along BFS-shortest
    paths (ties by edge list position), and the edge relabeling lambda,
    both as codes of gs.codec.
    """
    ops, code = gs.codec, gs.generator_codes
    mul, inv = ops.mul, ops.inv
    cid = M.comp[anchor]
    sigma_e = tuple(gi for gi, a, _ in M.edges if M.comp[a] == cid)
    # e-tilde: product of u u~ over component edges with u u~ >= e
    masks = gs.points.masks
    etilde = least_above([masks[gi] for gi in sigma_e], M.vertices[anchor])
    assert etilde != -1, "anchor vertex has no dominating edge"
    # gamma along BFS paths from the anchor, adjacency in edge-list order
    adj = [[] for _ in M.vertices]
    for gi, a, b in M.edges:
        adj[a].append((b, gi))
    gamma = {anchor: idempotent_of(gs, etilde)}
    queue = [anchor]
    for v in queue:
        for w, gi in adj[v]:
            if w not in gamma:
                gamma[w] = mul(gamma[v], code[gi])
                queue.append(w)
    lam = {gi: mul(mul(gamma[a], code[gi]), inv(gamma[b]))
           for gi, a, b in M.edges if M.comp[a] == cid}
    # e-hat: the meet of every lambda(u) lambda(u)~, as all contain 0
    ehat = least_above((dom_mask(x, ops.undefined) for x in lam.values()), 0)
    basis = Basis(M, anchor, gamma, lam, sigma_e, ehat)
    _check_basis(gs, basis)
    return basis


def _check_basis(gs, B):
    ops = gs.codec
    mul, inv = ops.mul, ops.inv
    M = B.munn
    e = idempotent_of(gs, M.vertices[B.anchor])
    ge = B.gamma[B.anchor]
    assert mul(ge, ge) == ge, "gamma(e) not idempotent"
    for v, g in B.gamma.items():
        f = idempotent_of(gs, M.vertices[v])
        gb = inv(g)
        assert mul(mul(g, gb), ge) == mul(g, gb), "gamma(e) >= gamma gamma~ fails"
        assert mul(mul(gb, e), g) == f, "gamma~(f) e gamma(f) != f"
        assert mul(mul(g, f), gb) == e, "gamma(f) f gamma~(f) != e"
    for gi, l in B.lam.items():
        lb = B.lam[gs.inv_index[gi]]
        assert lb == inv(l), "lambda(u~) != lambda(u)^-1"
        assert mul(l, lb) == mul(lb, l), "lambda commutation fails"


def hclass_generators(gs, B):
    """Generators e lambda(u) of the group H-class U_e at the basis
    anchor, multiplied as codes of gs.codec and decoded for its
    GeneratorSystem."""
    ops = gs.codec
    mul, inv = ops.mul, ops.inv
    e = idempotent_of(gs, B.munn.vertices[B.anchor])
    out = list(dict.fromkeys(mul(e, B.lam[gi]) for gi in B.sigma_e))
    for g in out:
        assert mul(g, inv(g)) == e and mul(inv(g), g) == e
    return list(map(ops.decode, out))


# -- the H-class layer, built once per generator system --------------------


def _munn_at(gs, delta):
    """munn_graph(gs, delta), built once per system."""
    if delta not in gs._munn:
        gs._munn[delta] = munn_graph(gs, delta)
    return gs._munn[delta]


@dataclass
class HClass:
    """The group H-class H_c of U at an idempotent c, a GeneratorSystem
    that caches its BSGS (None for a Munn component outside E(U)); for a
    D-class (`dclass`) or a Munn component (`sis_class`), the codes of
    the reps r_g (r_g r_g~ = c, r_g~ r_g = g), and a component's basis."""
    group: GeneratorSystem
    reps: dict = None
    basis: Basis = None


def hclass(gs, ehat):
    """The group H-class of a Clifford U at the idempotent of mask ehat,
    built once per system: e-hat u generate it, over the generators u
    with u u~ >= e-hat."""
    H = gs._hclasses.get(("clifford", ehat))
    if H is None:
        ops, e = gs.codec, idempotent_of(gs, ehat)
        gens = [ops.decode(ops.mul(e, u)) for u, m in zip(
            gs.generator_codes, gs.points.masks) if ehat & m == ehat]
        H = gs._hclasses["clifford", ehat] = HClass(
            GeneratorSystem(gens, degree=gs.degree))
    return H


def sis_class(gs, M, cid):
    """The record of component cid of the Munn graph M of a strict
    inverse U, built once per system: an HClass with the basis at the
    component's first vertex c, r_w = c gamma(w) for the mask of each
    vertex w, and H_c, generated by the c lambda(u), where e-hat at c
    is c.  The basis asserts gamma w gamma~ = c and gamma~ c gamma = w
    for gamma = gamma(w) in U, so c <= gamma gamma~, r_w r_w~ =
    c gamma gamma~ c = c and r_w~ r_w = w.  So the vertices lie in E(U)
    all or none: if c does, so do r_w and w; if w does, so does
    gamma w gamma~ = c.  As in `dclass`, H_c and the reps serve every
    query on the component."""
    H = gs._hclasses.get(("sis", M.delta, cid))
    if H is None:
        ops = gs.codec
        anchor = M.comp.index(cid)
        B = basis_at(gs, M, anchor)
        c = idempotent_of(gs, M.vertices[anchor])
        reps = {M.vertices[w]: ops.mul(c, g) for w, g in B.gamma.items()}
        group = (GeneratorSystem(hclass_generators(gs, B), degree=gs.degree)
                 if B.ehat == M.vertices[anchor] else None)
        H = gs._hclasses["sis", M.delta, cid] = HClass(group, reps, B)
    return H


# -- minimal dominating idempotents ---------------------------------------


def sis_min_idempotent(gs, e):
    """The mask of the least idempotent of E(U) union {1} above the
    idempotent of mask e, for U a strict inverse semigroup: e-hat at the
    Munn vertex v above e, or -1 (the identity of U^1) if none is; a
    ValueError if two are, which shows U is not strict inverse.  (For a
    Clifford U it is least_above(gs.points.masks, e).)

    e-hat at v is gamma~ e-hat_c gamma for gamma = gamma(v) of the basis
    at the component's first vertex c: conjugation by gamma (in U) maps
    the idempotents below gamma gamma~ onto those below gamma~ gamma,
    keeping order and E(U); c <= gamma gamma~ and v <= gamma~ gamma lie
    in E(U) (`sis_class`) and gamma~ c gamma = v, so the least one above
    c maps onto the least one above v."""
    M = _munn_at(gs, orbit_closure(gs, e))
    anchors = [i for i, v in enumerate(M.vertices) if e & v == e]
    if len(anchors) > 1:
        raise ValueError("not strict inverse: two Munn vertices lie above e")
    if not anchors:
        return -1
    B = sis_class(gs, M, M.comp[anchors[0]]).basis
    gamma = B.gamma[anchors[0]]
    ehat = sum(1 << gamma[x] for x in range(gs.degree) if B.ehat >> x & 1)
    assert e & ehat == e
    return ehat


# -- Clifford solvers ------------------------------------------------------


def clifford_member(gs, t):
    """t lies in a Clifford U iff e = t t~ is the product of the u u~
    above it and t lies in the group H-class at e."""
    e = dom_mask(t)
    if least_above(gs.points.masks, e) != e:
        return False
    return pb_group_member(hclass(gs, e).group, t, word=False)[0]


def clifford_conjugate(gs, s, t):
    """Conjugacy in a Clifford U for s != t (`solve` answers s == t
    with gs.one): one group search in the H-class of the least
    idempotent above dom s | ran s | dom t | ran t."""
    ehat = least_above(gs.points.masks, dom_mask(s) | ran_mask(s)
                       | dom_mask(t) | ran_mask(t))
    if ehat == -1:
        return False, None
    return group_conjugate(hclass(gs, ehat).group, s, t)


# -- strict inverse solvers ------------------------------------------------


def _sis_class_of(gs, e, f, explain):
    """The record (`sis_class`) of the Munn component that holds the
    vertices of masks e and f, where it lies in E(U); None if there is
    no such component.  It is e's, at the orbit closure of e, and its
    reps are keyed by its vertices, so f is one iff it is a key."""
    delta = orbit_closure(gs, e)
    M = _munn_at(gs, delta)
    if explain is not None:
        points = frozenset(x for x in range(gs.degree) if delta >> x & 1)
        explain.update(delta=points, munn_dot=munn_dot(M))
    ve = M.vertex_index.get(e)
    if ve is None:
        return None
    H = sis_class(gs, M, M.comp[ve])
    if H.group is None or f not in H.reps:
        return None
    if explain is not None:
        explain["group_generators"] = H.group.generators
    return H


def sis_member(gs, t, explain=None):
    """t lies in a strict inverse U iff e = t t~ and f = t~ t are
    vertices of one Munn component that lies in E(U), and r_e t r_f~
    lies in H_c (`sis_class`); the proof is `dclass_member`'s."""
    e, f = dom_mask(t), ran_mask(t)
    H = _sis_class_of(gs, e, f, explain)
    if H is None:
        return False
    ops = gs.codec
    if explain is not None:
        explain["basis_gamma"] = {v: ops.decode(g)
                                  for v, g in H.basis.gamma.items()}
    return _sift(gs, H, H.reps[e], ops.encode(t), H.reps[f], explain)


def sis_conjugate(gs, s, t, explain=None):
    """Conjugacy in a strict inverse U for s != t (`solve` answers
    s == t with gs.one): s ~ t iff the least idempotents e-hat and f-hat
    of E(U) above dom s | ran s and dom t | ran t share a Munn component
    and one group search in H_c (`sis_class`) succeeds; the proof is
    `dclass_conjugate`'s, as vertices of one component are D-related."""
    ehat = sis_min_idempotent(gs, dom_mask(s) | ran_mask(s))
    fhat = sis_min_idempotent(gs, dom_mask(t) | ran_mask(t))
    if ehat == -1 or fhat == -1:
        return False, None
    H = _sis_class_of(gs, ehat, fhat, explain)
    return (False, None) if H is None else _transport(
        gs, H, H.reps[ehat], s, H.reps[fhat], t, explain)


# -- General U from its D-classes of idempotents ---------------------------


def dclass(gs, root):
    """The record of the D-class of E(U) whose root (the first idempotent
    the E(U) walk found in it, `gs._d_roots`) is the code `root` of
    gs.codec, built once per system: an HClass whose reps map the code
    of each idempotent g of the class to that of an r_g in U with
    r_g r_g~ = c and r_g~ r_g = g, for c the root, and whose group is
    the H-class H_c, the maximal subgroup of U at c.

    The reps grow along a breadth-first search of the class's edges
    g -> g' = u~ g u (u in Sigma, g <= u u~), from r_c = c: with
    r_g' = r_g u, r_g' r_g'~ = r_g g u u~ r_g~ = r_g r_g~ = c and
    r_g'~ r_g' = u~ g u = g'.  Every edge gives the Schreier generator
    r_g u r_g'~ of H_c (c on a tree edge, so those are left out): it has
    (r_g u r_g'~)(r_g u r_g'~)~ = r_g u g' u~ r_g~ = c, as r_g u g' =
    r_g u, and likewise on the right.  They generate H_c.  Let h in H_c
    be u_1 ... u_k over Sigma, and put p_i = c u_1 ... u_i and
    e_i = p_i~ p_i.  By the path argument of
    `classify._split_on_idempotents`, c = e_0 - e_1 - ... - e_k = c is a
    path of edges e_(i-1) -> e_i = u_i~ e_(i-1) u_i of the class, and the
    product of its Schreier generators telescopes, as r_(e_i)~ r_(e_i)
    = e_i and p_i e_i = p_i:

        prod_i r_(e_(i-1)) u_i r_(e_i)~ = c u_1 e_1 u_2 ... e_(k-1) u_k c
                                        = p_k c = h.

    Cost: |D| |Sigma| products for the reps and generators, and the
    group's BSGS, built on its first sift.
    """
    H = gs._hclasses.get(("general", root))
    if H is None:
        ops = gs.codec
        product, mul, inv = ops.product, ops.mul, ops.inv
        steps = idempotent_steps(gs)
        reps = {root: root}
        queue = [root]
        gens = {}
        for g in queue:
            r, tg = reps[g], ops.right(g)
            for ub, tu, td in steps:
                if product(g, td) != g:
                    continue
                g2 = product(product(ub, tg), tu)
                if g2 not in reps:
                    reps[g2] = product(r, tu)
                    queue.append(g2)
                else:
                    x = mul(product(r, tu), inv(reps[g2]))
                    if x != root:
                        gens[x] = None
        group = GeneratorSystem(list(map(ops.decode, gens or [root])),
                                degree=gs.degree)
        H = gs._hclasses["general", root] = HClass(group, reps=reps)
    return H


def _explain_dclass(D, explain):
    if explain is not None:
        explain["dclass_idempotents"] = len(D.reps)
        explain["hclass_order"] = perm_group_of(D.group)[0].order


def dclass_member(gs, t, explain=None):
    """Membership in a General U from its D-classes of idempotents
    (gs._d_roots, kept by the classification) and one sift: t is in U
    iff e = t t~ and f = t~ t lie in E(U) with one root c and
    h = r_e t r_f~ lies in H_c (`dclass`).

    h h~ = r_e t f t~ r_e~ = r_e e r_e~ = c, and likewise h~ h = c, so h
    lies in the H-class of c in I_n.  If t is in U, e and f are
    D-related in U and h is in U, so in H_c.  Conversely
    r_e~ h r_f = e t f = t, which lies in U when h does.
    """
    ops = gs.codec
    roots = gs._d_roots
    assert roots is not None, "U must be classified General first"
    x = ops.encode(t)
    e, f = ops.mul(x, ops.inv(x)), ops.mul(ops.inv(x), x)
    c = roots.get(e)
    if c is None or roots.get(f) != c:
        return False
    D = dclass(gs, c)
    _explain_dclass(D, explain)
    return _sift(gs, D, D.reps[e], x, D.reps[f])


def _sift(gs, H, r_e, x, r_f, explain=None):
    """Does h = r_e x r_f~ lie in H_c, for the codes x of t and r_e, r_f
    of its reps?  The last step of `dclass_member` and `sis_member`."""
    ops = gs.codec
    h = ops.decode(ops.mul(ops.mul(r_e, x), ops.inv(r_f)))
    if explain is not None:
        explain["group_target"] = h
    return pb_group_member(H.group, h, word=False)[0]


def _least_above(gs, x):
    """The code of the least idempotent of E(U) defined on dom x | ran x,
    or None: the meet of all those above it, as E(U) is closed under
    products, over the masks of E(U) (gs._e_masks, once per system)."""
    if gs._e_masks is None:
        gs._e_masks = tuple(dom_mask(f, gs.codec.undefined)
                            for f in gs._d_roots)
    meet = least_above(gs._e_masks, dom_mask(x) | ran_mask(x))
    return None if meet == -1 else idempotent_of(gs, meet)


def dclass_conjugate(gs, s, t, explain=None):
    """Conjugacy in a General U from its D-classes of idempotents and one
    group conjugacy search, for s != t (`solve` answers s == t with
    gs.one).  Returns (bool, conjugator or None).  With A = dom s | ran s and B = dom t | ran t, let f
    and g be the least idempotents of E(U) defined on A and on B (E(U)
    is closed under products).  Then s ~ t with s != t iff f and g share
    a root c and some h in H_c has h~ s' h = t' (so also h t' h~ = s'),
    where s' = r_f s r_f~ and t' = r_g t r_g~; the conjugator is
    u = r_f~ h r_g.

    Only if: a conjugator u (in U, as s != t) has A <= dom u and
    B <= ran u, and maps graph(s) onto graph(t).  For any f' in E(U)
    with e_A <= f' <= u u~, f' u also works: u~ f' s f' u = u~ s u and
    f' u t u~ f' = f' s f' = s.  So u may be taken with u u~ = f.  Then
    u g works likewise, and g <= u~ u, as u~ u lies in E(U) and is
    defined on B; u g u~ lies in E(U), is defined on A (u carries A into
    B) and lies below f, so it is f: u g joins f to g.
    With u u~ = f and u~ u = g, h = r_f u r_g~ lies in H_c, and
    r_f~ h r_g = f u g = u.  Then h~ s' h = r_g u~ s u r_g~ = t' and
    h t' h~ = r_f u t u~ r_f~ = s'.
    If: u = r_f~ h r_g lies in U, and u~ s u = r_g~ h~ s' h r_g =
    r_g~ t' r_g = g t g = t; likewise u t u~ = f s f = s.
    """
    roots = gs._d_roots
    assert roots is not None, "U must be classified General first"
    f = _least_above(gs, s)
    g = _least_above(gs, t)
    if f is None or g is None or roots[f] != roots[g]:
        return False, None
    D = dclass(gs, roots[f])
    _explain_dclass(D, explain)
    return _transport(gs, D, D.reps[f], s, D.reps[g], t)


def _transport(gs, H, rf, s, rg, t, explain=None):
    """One group search in H_c for s' = r_f s r_f~ and t' = r_g t r_g~,
    given the codes r_f and r_g of reps, and the conjugator r_f~ h r_g:
    the last step of `dclass_conjugate` and `sis_conjugate`."""
    ops = gs.codec
    s1, t1 = (ops.decode(ops.mul(ops.mul(r, ops.encode(x)), ops.inv(r)))
              for r, x in ((rf, s), (rg, t)))
    if explain is not None:
        explain["group_target"] = t1
    ok, h = group_conjugate(H.group, s1, t1)
    if not ok:
        return False, None
    u = ops.decode(ops.mul(ops.mul(ops.inv(rf), ops.encode(h)), rg))
    mul, ub = gs.mul, gs.inv(u)
    assert mul(mul(ub, s), u) == t and mul(mul(u, t), ub) == s
    return True, u


# -- semilattice fast path -------------------------------------------------


def semilattice_member(gs, t):
    """t is in U iff it is idempotent and the meet of the generators
    above it."""
    e = dom_mask(t)
    return t.is_idempotent() and least_above(gs.points.masks, e) == e


# -- dispatcher ------------------------------------------------------------

# does a tag put U at or below the variety of an explicit solver?
_HOLDS = {
    "Group": VarietyTag.is_group,
    "StrictInverse": VarietyTag.is_strict_inverse,
}

# the solver of each variety, as --explain names it; group and sis are
# also explicit solvers (VARIETY_OF)
SOLVERS = {"Trivial": "semilattice", "Semilattice": "semilattice",
           "Group": "group", "Clifford": "clifford", "StrictInverse": "sis",
           "General": "general"}
# the variety each explicit solver is named for
VARIETY_OF = {SOLVERS[v]: v for v in _HOLDS}


def route(gs, solver="auto", cap=ELEMENT_CAP, explain=None):
    """The variety whose solver decides the instance, for `solver`
    "auto" or a name in VARIETY_OF.  auto takes the classification of U;
    an explicit solver is taken only where U lies at or below its
    variety: a ValueError if not, or if the name is neither.
    OutsideTractable where the cap on E(U) cut off the
    StrictInverse/General split that auto or sis needs."""
    if solver != "auto" and solver not in VARIETY_OF:
        raise ValueError("unknown solver %r: expected auto, %s"
                         % (solver, ", ".join(VARIETY_OF)))
    try:
        tag = classify_generated(gs, cap)
    except OutsideTractable as exc:
        # the E(U) walk runs only where the generators show U is not
        # Clifford
        if solver == "sis":
            raise OutsideTractable("%s, while checking the variety "
                                   "StrictInverse" % exc)
        if solver != "auto":
            raise ValueError("variety %s does not hold: U is not Clifford"
                             % VARIETY_OF[solver])
        if explain is not None:
            explain["classified_by"] = "idempotents"
        raise
    if solver == "auto":
        if explain is not None:
            explain.update(classified_by=tag.classified_by, variety=tag.name)
            if tag.idempotents is not None:
                explain["idempotents"] = tag.idempotents
        return tag.name
    variety = VARIETY_OF[solver]
    if not _HOLDS[variety](tag):
        raise ValueError("variety %s does not hold: U is %s"
                         % (variety, tag.name))
    return variety


def solve(variety, query, gs, *xs, explain=None, word=False):
    """Decide `query` on U, a system of the pb model (a ValueError
    otherwise), by the solver of `variety`: "member" with xs = (t,) or
    "conj" with xs = (s, t).  Returns (bool, witness or None): a
    conjugator for conjugacy, and for Group membership a word if `word`
    is set.  A General U is decided from E(U) and one D-class
    (`dclass_member`, `dclass_conjugate`).  A "conj" with s != t is
    first ruled out where s and t differ in `groups.conj_signature` over
    the orbits of `gs.points`, before any group, Munn graph or D-class
    is built; the check only ever answers NO.  The solvers are looked up when
    called, so a rebound module attribute (a tracing wrapper) is the one
    that runs."""
    if gs.model != "pb":
        raise ValueError("munn solvers take a system of the pb model "
                         "(partial bijections), not a Cayley table")
    if explain is not None:
        explain["solver"] = SOLVERS[variety]
    member = query == "member"
    if not member and xs[0] == xs[1]:
        # the identity of U^1; every conjugacy solver below takes s != t
        return True, gs.one
    if variety in ("Trivial", "Semilattice"):
        # commuting idempotents: u s u = s u = t and t u = s give s = t
        return (semilattice_member(gs, *xs) if member else False), None
    if not member:
        labels = gs.points.orbits
        if conj_signature(xs[0], labels) != conj_signature(xs[1], labels):
            if explain is not None:
                explain["signature"] = "differs"
            return False, None
    if variety == "Group":
        return (pb_group_member(gs, *xs, word=word) if member
                else group_conjugate(gs, *xs))
    if variety == "Clifford":
        return ((clifford_member(gs, *xs), None) if member
                else clifford_conjugate(gs, *xs))
    if variety == "StrictInverse":
        return ((sis_member(gs, *xs, explain=explain), None) if member
                else sis_conjugate(gs, *xs, explain=explain))
    return ((dclass_member(gs, *xs, explain=explain), None) if member
            else dclass_conjugate(gs, *xs, explain=explain))


def dispatch_member(gs, t, cap=ELEMENT_CAP, explain=None):
    """Route a partial-bijection membership instance by variety; a
    ValueError on a Cayley-table system."""
    return solve(route(gs, "auto", cap, explain), "member", gs, t,
                 explain=explain)[0]


def dispatch_conjugate(gs, s, t, cap=ELEMENT_CAP, explain=None):
    """Route a partial-bijection conjugacy instance by variety.
    Returns (bool, conjugator or None); a ValueError on a Cayley-table
    system."""
    return solve(route(gs, "auto", cap, explain), "conj", gs, s, t,
                 explain=explain)
