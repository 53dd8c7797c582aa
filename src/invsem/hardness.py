"""Instance generators for the hardness reductions: graph reachability
to Brandt-semigroup conjugacy/membership, constraint-logic reachability
to partial bijections and to inverse automata, membership to minimum
generating set, and idempotent conjugacy to a single equation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pbij import PartialBijection, _make, identity, partial_identity
from .cayley import brandt_table, y2_table, direct_product_table
from .gensys import GeneratorSystem
from .automata import InverseAutomaton
from .ncl import local_configs, incident_edges, restrict
from .meta import EquationSystem


# -- UGAP to Brandt-semigroup instances ------------------------------------


def gen_ugap_conj(n, edges, s, t):
    """Conjugacy instance over the Brandt-semigroup table of a graph:
    (table, sigma, e_s index, e_t index); e_s ~ e_t in <sigma> iff
    s and t are connected."""
    _check_graph(n, edges, s, t)
    table, idx = brandt_table(n)
    sigma = [idx[(x, x)] for x in range(n)]
    sigma += [idx[(a, b)] for a, b in edges]
    return table, sigma, idx[(s, s)], idx[(t, t)]


def gen_ugap_member(n, edges, s, t):
    """Membership instance through the two-element-semilattice wrapper:
    (table, sigma, target index); target in the closure iff s and t are
    connected."""
    _check_graph(n, edges, s, t)
    btable, idx = brandt_table(n)
    ytable = y2_table()
    table = direct_product_table(btable, ytable)

    def pair(a, marked):
        # the second coordinate: index 0 is the neutral element, index 1
        # the absorbing one (used to mark the special generators)
        return a * 2 + (1 if marked else 0)

    sigma = [pair(idx[(s, s)], True)]
    sigma += [pair(idx[(x, x)], False) for x in range(n)]
    sigma += [pair(idx[(a, b)], False) for a, b in edges]
    target = pair(idx[(t, t)], True)
    return table, sigma, target


def _check_graph(n, edges, s, t):
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("s or t out of range")
    seen = set()
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise ValueError("bad edge (%r, %r)" % (a, b))
        key = frozenset((a, b))
        if key in seen:
            raise ValueError("parallel edge (%r, %r)" % (a, b))
        seen.add(key)


# -- NCL to partial bijections ---------------------------------------------


@dataclass
class NCLEncoding:
    """Point layout and generators for a constraint-logic machine.

    Points are the local configurations of each vertex, laid out block
    by block; generators reverse one edge when both endpoint blocks
    show a matching local configuration, and act as the identity on all
    other blocks.  labels[i] = (edge, orientation, c1, c2) describes
    generator i.
    """

    machine: object
    degree: int
    offsets: tuple  # per vertex
    locals_: tuple  # per vertex, list of local configurations
    positions: tuple  # per edge, its index among the edges at each end
    sigma: tuple  # partial bijections
    labels: tuple

    def point(self, v, lc):
        return self.offsets[v] + self.locals_[v].index(lc)

    def idempotent(self, config):
        pts = [self.point(v, restrict(self.machine, config, v))
               for v in range(self.machine.vertices)]
        return partial_identity(self.degree, pts)


def ncl_encode(M):
    locals_ = [local_configs(M, v) for v in range(M.vertices)]
    offsets = []
    total = 0
    for v in range(M.vertices):
        offsets.append(total)
        total += len(locals_[v])
    incident = [incident_edges(M, v) for v in range(M.vertices)]
    positions = tuple((incident[a].index(i), incident[b].index(i))
                      for i, (a, b, _) in enumerate(M.edges))
    enc = NCLEncoding(M, total, tuple(offsets), tuple(locals_), positions,
                      (), ())
    sigma = []
    labels = []
    seen = set()
    for i, (a, b, _) in enumerate(M.edges):
        pos_a, pos_b = positions[i]
        for d in (0, 1):
            for c1 in locals_[a]:
                if c1[pos_a] != d:
                    continue
                c1p = _flip(c1, pos_a)
                if c1p not in locals_[a]:
                    continue
                for c2 in locals_[b]:
                    if c2[pos_b] != d:
                        continue
                    c2p = _flip(c2, pos_b)
                    if c2p not in locals_[b]:
                        continue
                    label = (i, d, c1, c2)
                    if label in seen:
                        continue
                    seen.add(label)
                    images = list(range(total))
                    for v in (a, b):
                        for j in range(len(locals_[v])):
                            images[offsets[v] + j] = None
                    images[enc.point(a, c1)] = enc.point(a, c1p)
                    images[enc.point(b, c2)] = enc.point(b, c2p)
                    # valid by construction: every point off the two
                    # endpoint blocks is fixed, and each block sends
                    # one of its points into itself
                    sigma.append(_make(images))
                    labels.append(label)
    enc.sigma = tuple(sigma)
    enc.labels = tuple(labels)
    return enc


def _flip(lc, pos):
    out = list(lc)
    out[pos] = 1 - out[pos]
    return tuple(out)


def gen_ncl_conj(M):
    """PB idempotent-conjugacy instance: (encoding, sigma, e_s, e_t);
    conjugate in the generated subsemigroup iff the machine can move
    config_s to config_t."""
    enc = ncl_encode(M)
    if not enc.sigma:
        raise ValueError("machine admits no transitions at all")
    return enc, list(enc.sigma), enc.idempotent(M.config_s), \
        enc.idempotent(M.config_t)


def gen_ncl_member(M):
    """PB idempotent-membership instance on one extra point:
    (encoding, sigma, target)."""
    enc, sigma, e_s, e_t = gen_ncl_conj(M)
    n = enc.degree

    def extend(p, fix_star):
        images = list(p) + [n if fix_star else None]
        return PartialBijection(n + 1, images)

    sigma_prime = [extend(u, True) for u in sigma]
    sigma_prime.append(extend(e_s, False))
    sigma_prime.append(extend(e_t, True))
    target = extend(e_t, False)
    return enc, sigma_prime, target


# the four letter maps shared by every automaton of gen_ncl_automata
_IDENTITY2 = identity(2)  # a letter away from the vertex
_LEAVE = PartialBijection(2, (1, None))  # 1 -> 2: the letter leaves c
_ENTER = PartialBijection(2, (None, 0))  # 2 -> 1: the letter enters c
_ELSEWHERE = PartialBijection(2, (None, 1))  # 2 -> 2: it moves elsewhere


def gen_ncl_automata(M):
    """One two-state inverse automaton per local configuration c of a
    vertex v; the intersection of their languages is non-empty iff the
    machine can move config_s to config_t.  Returns (encoding, automata
    list).

    State 1 means v shows c and state 2 that it shows another local
    configuration.  Every automaton maps its letters to four shared
    maps: the identity for a letter whose edge misses v, and for a
    letter at v the map 1 -> 2 if the letter leaves c, 2 -> 1 if it
    enters c, and 2 -> 2 otherwise."""
    enc = ncl_encode(M)
    alphabet = tuple("u%d" % i for i in range(len(enc.sigma)))
    label_index = {lab: i for i, lab in enumerate(enc.labels)}
    involution = {}
    at_vertex = [[] for _ in range(M.vertices)]  # (symbol, from, to)
    for sym, (e, d, c1, c2) in zip(alphabet, enc.labels):
        a, b, _ = M.edges[e]
        pos_a, pos_b = enc.positions[e]
        c1p, c2p = _flip(c1, pos_a), _flip(c2, pos_b)
        involution[sym] = alphabet[label_index[(e, 1 - d, c1p, c2p)]]
        at_vertex[a].append((sym, c1, c1p))
        at_vertex[b].append((sym, c2, c2p))
    automata = []
    for v in range(M.vertices):
        start = restrict(M, M.config_s, v)
        accept = restrict(M, M.config_t, v)
        for c in enc.locals_[v]:
            transitions = dict.fromkeys(alphabet, _IDENTITY2)
            for sym, mine, flipped in at_vertex[v]:
                transitions[sym] = (_LEAVE if c == mine else
                                    _ENTER if c == flipped else _ELSEWHERE)
            automata.append(InverseAutomaton(
                2, alphabet, involution, transitions, 0 if c == start else 1,
                frozenset((0 if c == accept else 1,))))
    return enc, automata


# -- membership to minimum generating set ----------------------------------


def gen_mgs(gs, t):
    """Tag-point reduction from membership to minimum generating set:
    returns (GeneratorSystem on the enlarged point set, k) such that
    the new subsemigroup is generated by k elements iff t is in the
    original one."""
    if gs.model != "pb":
        raise ValueError("partial-bijection instances only")
    if t.degree != gs.degree:
        raise ValueError("target degree mismatch")
    sigma = gs.generators
    n = gs.degree
    k = 2 * len(sigma)

    def tag(j, copy):
        return n + 2 * j + copy

    gens = [PartialBijection(n + k, t + (None,) * k)]
    for j, u in enumerate(sigma):
        for copy in (0, 1):
            images = list(u) + [None] * k
            images[tag(j, copy)] = tag(j, copy)
            gens.append(PartialBijection(n + k, images))
    return GeneratorSystem(gens, degree=n + k), k


# -- idempotent conjugacy to a single equation -----------------------------


def gen_equation(gs, e_s, e_t):
    """Single equation X~ e_s X = e_t with X constrained to the
    subsemigroup generated by the original generators plus e_s, e_t;
    solvable iff e_s and e_t are conjugate there."""
    if gs.model != "pb":
        raise ValueError("partial-bijection instances only")
    mul = gs.mul
    for e in (e_s, e_t):
        if mul(e, e) != e:
            raise ValueError("targets must be idempotent")
    if len(e_s.domain()) != len(e_t.domain()):
        raise ValueError("targets are not conjugate in the full "
                         "symmetric inverse monoid")
    constraint = GeneratorSystem(
        list(gs.generators) + [e_s, e_t], degree=gs.degree)
    lhs = (("var", "X", True), ("const", e_s, False), ("var", "X", False))
    rhs = (("const", e_t, False),)
    system = EquationSystem(["X"], {"X": constraint}, [(lhs, rhs)])
    system.check()
    return system, constraint
