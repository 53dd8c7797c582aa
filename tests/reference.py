"""Brute-force references and element lists that the tests compare the
library against.  None of this runs in a command or the session API;
each function is the plain, exhaustive version of something the library
decides faster, or a small constructor for test inputs.
"""

from itertools import product

from invsem.cayley import CayleyTable
from invsem.classify import _tag, d_class_labels
from invsem.meta import eval_word as eval_eq_word
from invsem.munn import basis_at, dom_mask, munn_graph, orbit_closure
from invsem.ncl import is_config
from invsem.oracle import ELEMENT_CAP, close
from invsem.pbij import PartialBijection, _make
from invsem.search import reach


# -- elements and tables -----------------------------------------------------


def from_pairs(n, pairs):
    images = [None] * n
    for x, y in pairs:
        if images[x] is not None:
            raise ValueError("point %d mapped twice" % x)
        images[x] = y
    return PartialBijection(n, images)


def le(s, t):
    """The natural partial order of partial bijections: s <= t iff
    s = s s~ t, that is, t extends s."""
    return all(y is None or t[x] == y for x, y in enumerate(s))


def all_partial_bijections(n):
    """Every element of I(Omega) for small n (|I_n| grows fast)."""
    result = [()]
    for x in range(n):
        nxt = []
        for prefix in result:
            used = set(p for p in prefix if p is not None)
            nxt.append(prefix + (None,))
            for y in range(n):
                if y not in used:
                    nxt.append(prefix + (y,))
        result = nxt
    return [_make(images) for images in result]


def orbit_labels(gs):
    """The label of each point under U = <Sigma>, by a search from every
    point: the least point of its <Sigma>-orbit, so a point that no
    generator touches labels itself."""
    labels = list(range(gs.degree))
    for x in range(gs.degree):
        if labels[x] == x:  # the least point of an orbit not yet seen
            for y in reach([x], gs.generators):
                labels[y] = x
    return tuple(labels)


def from_closure(elements, mul):
    """Export a closed element list as a CayleyTable.

    Returns (table, index) where index maps each element to its 0-based
    position in `elements`.
    """
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate elements")
    table = [
        [index[mul(x, y)] for y in elements]
        for x in elements
    ]
    return CayleyTable(table), index


def inverse_candidates(rows):
    """For each x of the table `rows` (n lists of n ints), the y with
    x y x = x and y x y = y, by an n^2 scan; an inverse semigroup has
    exactly one for each x, its inverse x~."""
    n = len(rows)
    return [[y for y in range(n)
             if rows[rows[x][y]][x] == x and rows[rows[y][x]][y] == y]
            for x in range(n)]


def group_elements(G):
    """All (perm, word) pairs of the PermGroup G; deterministic order."""
    out = [(G._id, ())]
    for j, lvl in enumerate(G.levels):
        words = G.rep_words((j, x) for x in lvl.transversal)
        out = [(G._mul(r[0], p), rw + w) for r, rw in zip(
            lvl.transversal.values(), words) for p, w in out]
    return [(tuple(p[:G.m]), w) for p, w in out]


def group_domain_by_sets(gs):
    """The generators' common domain as a frozenset, from the domain
    and range sets of each generator; raises ValueError if <Sigma> is
    not a group (all generators must share dom = ran)."""
    dom = None
    for g in gs.generators:
        d = g.domain()
        if g.ran() != d:
            raise ValueError("generator %r has dom != ran; not a group" % (g,))
        if dom is None:
            dom = d
        elif d != dom:
            raise ValueError("generators have inconsistent domains; not a group")
    return dom


# -- idempotents by composition ---------------------------------------------


def idempotent_meet(gs, idempotents, e=None):
    """The product of `idempotents`, keeping only those >= e when e is
    given; None if none is kept.  Products of idempotents of I_n commute,
    so this is the meet of those kept."""
    mul = gs.mul
    out = None
    for f in idempotents:
        if e is None or mul(e, f) == e:
            out = f if out is None else mul(out, f)
    return out


def sis_min_idempotent_scan(gs, e):
    """The least idempotent of E(U) union {1} above the idempotent e of a
    strict inverse U, as an element, or None for the identity of U^1:
    the Munn vertices v with e <= v (dom e inside the vertex mask) at the
    orbit closure of dom e, and the product of lambda(u) lambda(u)~ over
    the basis at the one that is found, decoded from gs.codec.
    ValueError if two are."""
    a = dom_mask(e)
    M = munn_graph(gs, orbit_closure(gs, a))
    anchors = [i for i, v in enumerate(M.vertices) if a & v == a]
    if len(anchors) > 1:
        raise ValueError("two Munn vertices lie above e")
    if not anchors:
        return None
    lam = map(gs.codec.decode, basis_at(gs, M, anchors[0]).lam.values())
    return idempotent_meet(gs, (gs.mul(x, gs.inv(x)) for x in lam))


def close_bfs(gs):
    """U = <Sigma> by breadth-first search over gs.mul on the elements
    themselves, generators in list order, without caps: (elements,
    product_witness, right) as oracle.close records them."""
    gens = gs.generators
    elements = list(gens)
    witness = [None] * len(gens)
    index = {g: i for i, g in enumerate(gens)}
    right = []
    for j, x in enumerate(elements):  # elements grows as U is found
        row = []
        for i, g in enumerate(gens):
            y = gs.mul(x, g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                witness.append((j, i))
            row.append(index[y])
        right.append(tuple(row))
    return elements, witness, right


def eval_word(gs, word):
    """Evaluate a tuple of generator indices."""
    if not word:
        raise ValueError("empty word")
    x = gs.generators[word[0]]
    for i in word[1:]:
        x = gs.mul(x, gs.generators[i])
    return x


# -- Green's relations -------------------------------------------------------


def green_leq_by_ideals(gs, s, t, relation, cap=ELEMENT_CAP):
    """s <=_X^U t by scanning the closure (refused past `cap` elements):
    t U^1 is t and t u over every u of U, U^1 t its mirror, and
    U^1 t U^1 the right ideals of the members of U^1 t; <=_H is <=_R and
    <=_L together, and D is J."""
    if relation == "H":
        return (green_leq_by_ideals(gs, s, t, "R", cap)
                and green_leq_by_ideals(gs, s, t, "L", cap))
    cl = close(gs, cap)
    mul, codes = cl.codec.mul, cl.codes
    s, t = cl.codec.encode(s), cl.codec.encode(t)

    def right_ideal(x):
        return {x}.union(mul(x, u) for u in codes)

    if relation == "R":
        return s in right_ideal(t)
    if relation == "L":
        return s in {t}.union(mul(u, t) for u in codes)
    if relation in ("J", "D"):
        return any(s in right_ideal(x)
                   for x in {t}.union(mul(u, t) for u in codes))
    raise ValueError("unknown relation %r" % (relation,))


# -- classification ----------------------------------------------------------


def idempotent_indices(gs, elements):
    """The indices in the closed list `elements` of x x~ and of x~ x,
    as two lists."""
    index = {x: i for i, x in enumerate(elements)}
    left = []
    right = []
    try:
        for x in elements:
            xb = gs.inv(x)
            left.append(index[gs.mul(x, xb)])
            right.append(index[gs.mul(xb, x)])
    except KeyError:
        raise ValueError("element list is not closed") from None
    return left, right


def is_strict_inverse(gs, elements):
    """Idempotent-pair test on the closed list `elements`: for every
    idempotent e and idempotents f1, f2 below e, f1 D f2 forces
    f1 = f2.  Only idempotents sharing their D-class can break it.
    """
    mul = gs.mul
    left, right = idempotent_indices(gs, elements)
    label = d_class_labels(left, right)
    idems = [x for x, e in enumerate(left) if x == e]  # x = x x~
    multi = {label[f] for f in idems if label[f] != f}  # two or more
    shared = [(elements[f], label[f]) for f in idems if label[f] in multi]
    for top in map(elements.__getitem__, idems):
        below = [c for f, c in shared if mul(f, top) == f]
        if len(below) != len(set(below)):
            return False
    return True


def classify(gs, elements):
    """Classify the closed element list `elements` (products and
    inverses taken via gs) by its idempotent pairs.
    """
    left, right = idempotent_indices(gs, elements)
    if all(x == e for x, e in enumerate(left)):  # every x = x x~
        name = "Trivial" if len(left) == 1 else "Semilattice"
    elif len(set(left)) == 1:
        name = "Group"
    elif left == right:
        name = "Clifford"
    else:
        name = "StrictInverse" if is_strict_inverse(gs, elements) else "General"
    return _tag(name)


# -- constraint-logic machines -----------------------------------------------


def all_configs(M):
    """All valid configurations, in binary counting order."""
    m = len(M.edges)
    return [c for c in product((0, 1), repeat=m) if is_config(M, c)]


def transitions_of(M, config):
    """(edge index, successor configuration) pairs, edge order."""
    out = []
    for i in range(len(M.edges)):
        nxt = list(config)
        nxt[i] = 1 - nxt[i]
        nxt = tuple(nxt)
        if is_config(M, nxt):
            out.append((i, nxt))
    return out


def ncl_reach_bruteforce(M):
    """BFS over the configuration graph; returns (bool, edge-index
    sequence from config_s to config_t or None)."""
    if M.config_s == M.config_t:
        return True, ()
    prev = {M.config_s: None}
    queue = [M.config_s]
    qi = 0
    while qi < len(queue):
        c = queue[qi]
        qi += 1
        for i, nxt in transitions_of(M, c):
            if nxt not in prev:
                prev[nxt] = (c, i)
                if nxt == M.config_t:
                    seq = []
                    cur = nxt
                    while prev[cur] is not None:
                        cur, j = prev[cur]
                        seq.append(j)
                    return True, tuple(reversed(seq))
                queue.append(nxt)
    return False, None


def replay(M, seq):
    """Apply an edge-reversal sequence to config_s; raises ValueError
    if any intermediate orientation violates the in-flow constraint."""
    cur = M.config_s
    for step, i in enumerate(seq):
        nxt = list(cur)
        nxt[i] = 1 - nxt[i]
        cur = tuple(nxt)
        if not is_config(M, cur):
            raise ValueError("step %d: invalid configuration" % step)
    return cur


# -- automata and the reductions ---------------------------------------------


def as_dfa(A, failure_state=None):
    """Total-transition view: adds a failure state absorbing all
    undefined transitions.  Returns (states, transitions dict
    symbol -> tuple, start, accepting) with the failure state last.
    """
    fail = A.states if failure_state is None else failure_state
    n = A.states + 1
    trans = {}
    for a in A.alphabet:
        da = A.transitions[a]
        row = [fail if da[q] is None else da[q] for q in range(A.states)]
        row.append(fail)
        trans[a] = tuple(row)
    return n, trans, A.start, frozenset(A.accepting)


def automata_word_to_transitions(enc, word):
    """Map an intersection witness over the shared alphabet back to the
    edge-reversal sequence it describes."""
    out = []
    for sym in word:
        i = int(sym[1:])
        out.append(enc.labels[i][0])
    return tuple(out)


def conjugation_orbit_decide(gs, s, t, step_check=None):
    """Decide idempotent conjugacy by BFS over {u~ e u} images, without
    closing the generated subsemigroup.  Edges require both defining
    equations, so the search never leaves the conjugacy class of s.
    """
    mul = gs.mul
    inv = gs.inv
    if s == t:
        return True
    seen = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for e in frontier:
            for u in gs.generators:
                ub = inv(u)
                f = mul(mul(ub, e), u)
                if step_check is not None:
                    step_check(e, u, f)
                if f == e or mul(mul(u, f), ub) != e:
                    continue
                if f not in seen:
                    if f == t:
                        return True
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return False


def solve_equations_bruteforce(system, ambient, cap=ELEMENT_CAP):
    """Exhaustive enumeration without pruning; confirmation oracle for
    small search spaces."""
    system.check()
    mul = ambient.mul
    inv = ambient.inv
    domains = []
    for name in system.variables:
        gs = system.constraints.get(name) or ambient
        domains.append(list(close(gs, cap).elements))
    for combo in product(*domains):
        assignment = dict(zip(system.variables, combo))
        if all(eval_eq_word(l, assignment, mul, inv)
               == eval_eq_word(r, assignment, mul, inv)
               for l, r in system.equations):
            return assignment
    return None
