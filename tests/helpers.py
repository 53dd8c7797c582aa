"""Shared instance generators for the test suite.

All sampling is seeded by the caller, so test runs are deterministic.
"""

import random

from invsem.pbij import (PartialBijection, partial_identity, compose,
                         direct_product, empty_map)
from invsem.gensys import GeneratorSystem
from invsem.oracle import close, ClosureCapExceeded, naive_conjugate
from invsem.classify import classify_generated
from invsem.munn import dispatch_conjugate, dom_mask, munn_graph, orbit_closure

from reference import le


def rand_pb(rng, n, p_defined=0.7):
    """A random partial bijection on n points."""
    targets = list(range(n))
    rng.shuffle(targets)
    images = [None] * n
    for x in range(n):
        if rng.random() < p_defined:
            images[x] = targets.pop()
    return PartialBijection(n, tuple(images))


def rand_perm_on(rng, n, dom):
    """A random permutation of dom, undefined elsewhere."""
    dom = sorted(dom)
    img = dom[:]
    rng.shuffle(img)
    images = [None] * n
    for x, y in zip(dom, img):
        images[x] = y
    return PartialBijection(n, tuple(images))


def rand_partial_identity(rng, n, p=0.6):
    return partial_identity(n, [x for x in range(n) if rng.random() < p])


def _cycles_of(p, dom):
    seen = set()
    cycles = []
    for x in sorted(dom):
        if x in seen:
            continue
        cyc = [x]
        seen.add(x)
        y = p[x]
        while y != x:
            cyc.append(y)
            seen.add(y)
            y = p[y]
        cycles.append(cyc)
    return cycles


def clifford_gens(rng, n, k):
    """Restrictions of powers of a single permutation to unions of its
    cycles; every product is again such a restriction, so the closure
    is a Clifford semigroup by construction."""
    dom = [x for x in range(n) if rng.random() < 0.85] or [0]
    p = rand_perm_on(rng, n, dom)
    cycles = _cycles_of(p, dom)
    gens = []
    for _ in range(k):
        chosen = [c for c in cycles if rng.random() < 0.7]
        if not chosen:
            chosen = [rng.choice(cycles)]
        pts = [x for c in chosen for x in c]
        e = partial_identity(n, pts)
        q = compose(e, p)
        for _ in range(rng.randrange(0, 3)):
            q = compose(q, p)
        gens.append(compose(e, q) if rng.random() < 0.5 else e)
    return gens


def sis_gens(rng, n, k):
    """Bijections between blocks of a fixed partition, plus partial
    identities on blocks; the closure acts as a Brandt-style groupoid
    over the blocks."""
    m = rng.choice([1, 2])
    blocks = [list(range(i, min(i + m, n))) for i in range(0, n, m)]
    blocks = [b for b in blocks if len(b) == m]
    gens = []
    for _ in range(k):
        i = rng.randrange(len(blocks))
        j = rng.randrange(len(blocks))
        src = blocks[i]
        dst = blocks[j][:]
        rng.shuffle(dst)
        images = [None] * n
        for x, y in zip(src, dst):
            images[x] = y
        gens.append(PartialBijection(n, tuple(images)))
    return gens


def sis_product_gens(rng, factors, k):
    """k generators of a strict inverse U inside a direct product of
    `factors` systems of sis_gens, each on 2-4 points; its Munn graphs
    have several components more often than one factor's."""
    parts = [sis_gens(rng, rng.randrange(2, 5), k) for _ in range(factors)]
    return [direct_product(list(p)) for p in zip(*parts)]


def disjoint_union(first, second):
    """The generators of `first` on the first points and those of
    `second` on the points after them, each undefined on the other's."""
    n, m = first[0].degree, second[0].degree
    return ([direct_product([g, empty_map(m)]) for g in first]
            + [direct_product([empty_map(n), g]) for g in second])


def padded(gs, degree):
    """gs on `degree` points: each generator undefined past its own."""
    pad = (None,) * (degree - gs.degree)
    return GeneratorSystem([PartialBijection(degree, tuple(g) + pad)
                            for g in gs.generators], degree=degree)


def munn_components(gs, elements):
    """The largest number of components of a Munn graph of gs at the
    orbit closure of an idempotent of `elements`, 0 if there is none."""
    deltas = {orbit_closure(gs, dom_mask(e))
              for e in elements if e.is_idempotent()} - {0}
    return max((len(set(munn_graph(gs, d).comp)) for d in deltas),
               default=0)


def sample_multi_component_sis(rng, count, closure_cap=300):
    """(gs, closure elements) for `count` systems that are strict inverse
    (or in a smaller variety) and have a Munn graph of two or more
    components: subsemigroups of products of three sis_gens systems,
    about 30% of them in a disjoint union with a second such system."""
    out = []
    while len(out) < count:
        gens = sis_product_gens(rng, 3, rng.randrange(2, 6))
        if rng.random() < 0.3:
            gens = disjoint_union(gens, sis_product_gens(
                rng, rng.randrange(1, 3), rng.randrange(1, 4)))
        gs = GeneratorSystem(gens, degree=gens[0].degree)
        try:
            elements = close(gs, cap=closure_cap).elements
        except ClosureCapExceeded:
            continue
        if (classify_generated(gs).is_strict_inverse()
                and munn_components(gs, elements) > 1):
            out.append((gs, elements))
    return out


def variety_gens(rng, kind, n, k):
    if kind == "semilattice":
        return [rand_partial_identity(rng, n) for _ in range(k)]
    if kind == "group":
        dom = [x for x in range(n) if rng.random() < 0.8] or [0]
        return [rand_perm_on(rng, n, dom) for _ in range(k)]
    if kind == "clifford":
        return clifford_gens(rng, n, k)
    if kind == "sis":
        return sis_gens(rng, n, k)
    if kind == "general":
        return [rand_pb(rng, n) for _ in range(k)]
    raise ValueError(kind)


KINDS = ("semilattice", "group", "clifford", "sis", "general")


def sample_systems(rng, per_kind, degrees=(2, 6), sig_max=4,
                   closure_cap=2000):
    """(gs, variety name) pairs spanning the solver routes; closures
    stay within closure_cap and are precomputed."""
    out = []
    for kind in KINDS:
        made = 0
        while made < per_kind:
            n = rng.randrange(degrees[0], degrees[1] + 1)
            k = rng.randrange(1, sig_max + 1)
            gens = variety_gens(rng, kind, n, k)
            gs = GeneratorSystem(gens, degree=n)
            try:
                close(gs, cap=closure_cap)
            except ClosureCapExceeded:
                continue
            tag = classify_generated(gs)
            out.append((gs, tag.name))
            made += 1
    return out


def dispatched_as_the_oracle(gs, s, t):
    """dispatch_conjugate on s, t: its answer must be the oracle's, and
    a conjugator must satisfy both defining equations and lie in U^1."""
    ok, u = dispatch_conjugate(gs, s, t)
    assert ok == naive_conjugate(gs, s, t)[0], (s, t)
    if ok:
        ub = gs.inv(u)
        assert gs.mul(gs.mul(ub, s), u) == t
        assert gs.mul(gs.mul(u, t), ub) == s
        assert u == gs.one or u in close(gs)
    return ok, u


def top_points_system(n):
    """A small U on n points that moves only 0, 1, n-2 and n-1: a
    3-cycle through the top points, an idempotent undefined at the top
    point, and a rank-2 map sending the top point to 0.  Degrees 255 and
    256 put it on either side of the closure's bytes codes."""
    top = n - 1
    images = list(range(n))
    images[0], images[top], images[top - 1] = top, top - 1, 0
    rank2 = [None] * n
    rank2[top], rank2[1] = 0, top
    return GeneratorSystem([PartialBijection(n, images),
                            PartialBijection(n, list(range(top)) + [None]),
                            PartialBijection(n, rank2)], degree=n)


def top_points_group(n, clifford=False):
    """S_4 on the points 0, 1, n-2 and n-1 of n >= 6, fixing the rest:
    a 4-cycle and a transposition of the top points.  With `clifford`,
    also the idempotent undefined at point 2, which the group fixes, so
    U is Clifford with the two H-classes of the identity and of that
    idempotent.  Degrees 255 and 256 put it on either side of the
    bytes codes."""
    cycle, swap = list(range(n)), list(range(n))
    cycle[0], cycle[1], cycle[n - 2], cycle[n - 1] = 1, n - 2, n - 1, 0
    swap[n - 2], swap[n - 1] = n - 1, n - 2
    gens = [PartialBijection(n, cycle), PartialBijection(n, swap)]
    if clifford:
        gens.append(partial_identity(n, set(range(n)) - {2}))
    return GeneratorSystem(gens, degree=n)


def two_sided_ideals(gs, elements):
    """The ideal U^1 x U^1 of each element of the closed list, as a set
    of list indices, by brute force over the full product table."""
    index = {x: i for i, x in enumerate(elements)}
    prod = [[index[gs.mul(a, b)] for b in elements] for a in elements]
    ideals = []
    for x, row in enumerate(prod):
        right = {x}.union(row)  # x U^1
        ideals.append(right.union(*([p[y] for y in right] for p in prod)))
    return ideals


def j_related(ideals, x, y):
    return y in ideals[x] and x in ideals[y]


K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PRISM_EDGES = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
               (0, 3), (1, 4), (2, 5))

# two fixed machines on those frames whose config-t is reachable (by 5
# and 4 reversals): the inputs of the pinned ncl-automata bytes
K4_NCL = """ncl 4
edge 1 2 1
edge 1 3 2
edge 1 4 1
edge 2 3 2
edge 2 4 2
edge 3 4 2
config-s > < > > < >
config-t < > < < > >
"""
PRISM_NCL = """ncl 6
edge 1 2 1
edge 2 3 2
edge 1 3 1
edge 4 5 2
edge 5 6 2
edge 4 6 2
edge 1 4 2
edge 2 5 2
edge 3 6 2
config-s < < > < < > < > <
config-t > < < < > < < > <
"""


def rand_ncl_machine(rng, shape):
    """A random constraint-logic machine on the K4 or triangular-prism
    frame: random edge weights and a random valid configuration pair."""
    from invsem.ncl import NCLMachine
    from reference import all_configs
    pairs = K4_EDGES if shape == "k4" else PRISM_EDGES
    nv = 4 if shape == "k4" else 6
    while True:
        edges = tuple((a, b, rng.choice((1, 2))) for a, b in pairs)
        probe = NCLMachine(nv, edges, (0,) * len(edges), (0,) * len(edges))
        configs = all_configs(probe)
        if len(configs) < 2:
            continue
        cs = rng.choice(configs)
        ct = rng.choice(configs)
        return NCLMachine(nv, edges, cs, ct)


def check_munn_lemmas(gs, elements, rng, words_per_graph=30):
    """Exhaustive structural checks of the Munn-graph machinery inside
    one strict inverse closure; returns a list of violation strings."""
    from invsem.munn import orbit_closure, munn_graph, dom_mask
    from invsem.oracle import naive_conjugate
    mul = gs.mul
    inv = gs.inv
    n = gs.degree
    violations = []

    # orbit partition of the active points
    active = orbit_closure(gs, (1 << n) - 1)
    orbits = []
    seen = 0
    for x in range(n):
        if active >> x & 1 and not seen >> x & 1:
            o = orbit_closure(gs, 1 << x)
            orbits.append({y for y in range(n) if o >> y & 1})
            seen |= o

    # the non-empty domain traces partition each orbit
    for o in orbits:
        traces = {frozenset(s.domain() & o) for s in elements}
        traces.discard(frozenset())
        union = set()
        for a in traces:
            union |= a
            for b in traces:
                if a != b and a & b:
                    violations.append("domain traces overlap in an orbit")
        if union != set(o):
            violations.append("domain traces do not cover an orbit")

    # invariant sets of interest: dom(e)^U over the idempotents
    idems = [x for x in elements if gs.is_idempotent(x)]
    deltas = {orbit_closure(gs, dom_mask(e)) for e in idems}
    deltas.discard(0)

    for delta in sorted(deltas, key=lambda d: [x for x in range(n)
                                               if d >> x & 1]):
        M = munn_graph(gs, delta)
        if not M.vertices:
            continue
        # the vertices as elements, from their domain masks
        vertices = [partial_identity(n, [x for x in range(n) if v >> x & 1])
                    for v in M.vertices]
        out_edges = {}
        for gi, a, b in M.edges:
            out_edges.setdefault(a, []).append((gi, b))
        large_gis = sorted({gi for gi, _, _ in M.edges})

        # words correspond to paths: u~ e_s u = e_t iff the word walks
        # the graph from e_s to e_t
        for _ in range(words_per_graph):
            start = rng.randrange(len(vertices))
            word = [rng.choice(large_gis)
                    for _ in range(rng.randrange(1, 5))]
            u = gs.generators[word[0]]
            for gi in word[1:]:
                u = mul(u, gs.generators[gi])
            result = mul(mul(inv(u), vertices[start]), u)
            cur = start
            for gi in word:
                if cur is None:
                    break
                step = None
                for egi, a, b in M.edges:
                    if egi == gi and a == cur:
                        step = b
                        break
                cur = step
            for vt, e_t in enumerate(vertices):
                walks = cur is not None and cur == vt
                if (result == e_t) != walks:
                    violations.append("path correspondence fails")

        # conjugacy class of a vertex = its component's vertex set
        comp_sets = {}
        for v in range(len(vertices)):
            comp_sets.setdefault(M.comp[v], set()).add(vertices[v])
        for v, e in enumerate(vertices):
            if orbit_closure(gs, dom_mask(e)) != delta:
                continue
            conj_class = {f for f in idems
                          if naive_conjugate(gs, e, f)[0]}
            if conj_class != comp_sets[M.comp[v]]:
                violations.append("component is not the conjugacy class")

        # absorption among delta-large elements
        e_delta = partial_identity(n, [x for x in range(n) if delta >> x & 1])
        large = [s for s in elements
                 if orbit_closure(gs, dom_mask(s) & delta) == delta]
        for s in large:
            es = mul(e_delta, s)
            for t in large:
                et = mul(e_delta, t)
                if le(es, et) and es != et:
                    violations.append("delta-large absorption fails")
    return violations


def sample_sis_systems(rng, count, degrees=(2, 6), closure_cap=200):
    """Systems whose closure is strict inverse (including the smaller
    varieties), degree and closure size bounded."""
    out = []
    tries = 0
    while len(out) < count and tries < count * 60:
        tries += 1
        kind = rng.choice(("sis", "clifford", "semilattice", "group"))
        n = rng.randrange(degrees[0], degrees[1] + 1)
        k = rng.randrange(1, 4)
        gs = GeneratorSystem(variety_gens(rng, kind, n, k), degree=n)
        try:
            cl = close(gs, cap=closure_cap)
        except ClosureCapExceeded:
            continue
        tag = classify_generated(gs)
        if tag.name == "General":
            continue
        out.append((gs, list(cl.elements)))
    return out
