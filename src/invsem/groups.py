"""Terminal solver for the group case: deterministic Schreier-Sims
membership for permutation groups, the partial-bijection wrapper, set
transporter and conjugacy via the graph-of-the-map reduction.

Permutations are tuples p with x^p = p[x] (256-byte tables multiplied
by bytes.translate inside a PermGroup on at most 256 points); products
are left-to-right (apply the left factor first), matching the
partial-bijection convention.  Witness words are tuples of generator
indices; generators are inverse-closed internally so no signed letters
are needed.  The build stores no words: `PermGroup.rep_words` expands
them from the Schreier vectors when a witness is printed.
"""

from __future__ import annotations

from collections import namedtuple

from .pbij import PartialBijection

ID256 = bytes(range(256))


def _pmul(a, b):
    return tuple([b[x] for x in a])


def _pinv(a):
    inv = [0] * len(a)
    for x, y in enumerate(a):
        inv[y] = x
    return tuple(inv)


def _binv(a):
    return bytes.maketrans(a, ID256)


# how: input letter i, or (j, x, s, y) for rep_j(x) s rep_j(y)^-1;
# strip: the point at each level it sifted past
_Strong = namedtuple("_Strong", "perm serial how strip")


class _Level:
    __slots__ = ("b", "gens", "transversal", "sifted", "seen")

    def __init__(self, b, identity):
        self.b = b
        self.gens = []  # the strong generators stored here
        # point y -> (rep, its inverse, x, s): b^rep = y, rep = rep(x) s
        self.transversal = {b: (identity, identity, None, None)}
        self.sifted = {}  # point -> strong generators made before it
        self.seen = 0  # strong generators made before the last orbit


class PermGroup:
    """A permutation group with a base and strong generating set.

    Built deterministically: base points are the smallest moved points,
    orbits grow in breadth-first insertion order.
    """

    def __init__(self, gens, m):
        self.m = m
        self.identity = tuple(range(m))
        self.gens = [tuple(g) for g in gens]
        for g in self.gens:
            if len(g) != m or sorted(g) != list(range(m)):
                raise ValueError("not a permutation on %d points: %r" % (m, g))
        # inverse-close so every word letter has an inverse letter
        index = {g: i for i, g in enumerate(self.gens)}
        for g in list(self.gens):
            ig = _pinv(g)
            if ig not in index:
                index[ig] = len(self.gens)
                self.gens.append(ig)
        self.inv_index = [index[_pinv(g)] for g in self.gens]
        self._mul, self._inv, self._id = ((bytes.translate, _binv, ID256)
                                          if m <= 256 else
                                          (_pmul, _pinv, self.identity))
        self.levels = []
        self.strong = []  # every strong generator, in order of creation
        self._fixed = None
        for i, g in enumerate(self.gens):
            self._insert(self._encode(g), i)
        self._stabilize()

    def _encode(self, p):
        return bytes(p) + ID256[self.m:] if self._id is ID256 else p

    # -- construction ------------------------------------------------------

    def _strip(self, p):
        """Sift p: (residue, the point at each level passed)."""
        pts, mul = [], self._mul
        for lvl in self.levels:
            x = p[lvl.b]
            if x not in lvl.transversal:
                break
            pts.append(x)
            if x != lvl.b:
                p = mul(p, lvl.transversal[x][1])
        return p, pts

    def _gens_at(self, j):
        # Strong generators of the level-j stabilizer: everything stored
        # at level j or deeper (a generator added deep also fixes the
        # shallower base prefix, so it can extend shallower orbits).
        out = []
        for lvl in self.levels[j:]:
            out.extend(lvl.gens)
        return out

    def _insert(self, p, how):
        """Sift p; store a nontrivial residue as a strong generator at
        its strip depth."""
        p, pts = self._strip(p)
        if p == self._id:
            return False
        if len(pts) == len(self.levels):
            b = min(x for x in range(self.m) if p[x] != x)
            self.levels.append(_Level(b, self._id))
        self.strong.append(_Strong(p, len(self.strong), how, tuple(pts)))
        self.levels[len(pts)].gens.append(self.strong[-1])
        return True

    def _orbit(self, j):
        # extend the transversal of b_j under the level-j stabilizer; it
        # is closed under the generators it has seen, so old points meet
        # only new ones, in the order a full rescan would meet them
        lvl = self.levels[j]
        gens = self._gens_at(j)
        new = [s for s in gens if s.serial >= lvl.seen]
        lvl.seen = len(self.strong)
        pts = list(lvl.transversal)
        old = len(pts)
        for k, x in enumerate(pts):  # pts grows as the orbit does
            r = lvl.transversal[x][0]
            for s in new if k < old else gens:
                y = s.perm[x]
                if y not in lvl.transversal:
                    rep = self._mul(r, s.perm)
                    lvl.transversal[y] = (rep, self._inv(rep), x, s)
                    pts.append(y)

    def _stabilize(self):
        # Fixpoint: extend all orbits, then hunt for a Schreier
        # generator that does not sift to the identity; each insertion
        # grows the transversal product, so this terminates.
        while True:
            for j in range(len(self.levels)):
                self._orbit(j)
            if not self._find_violation():
                return

    def _find_violation(self):
        # Transversal entries are never replaced and levels are only
        # appended, so a Schreier generator that sifted to the identity
        # still does: none is tested again, and the first violation is
        # the one a full rescan would find.
        mul, made = self._mul, len(self.strong)
        for j, lvl in enumerate(self.levels):
            gens = self._gens_at(j)
            for x, (r, _, _, _) in lvl.transversal.items():
                done = lvl.sifted.get(x, 0)
                if done == made:
                    continue
                for s in gens:
                    if s.serial < done:
                        continue
                    y = s.perm[x]
                    sg = mul(mul(r, s.perm), lvl.transversal[y][1])
                    if sg != self._id and self._insert(sg, (j, x, s, y)):
                        return True
                lvl.sifted[x] = made
        return False

    # -- words -------------------------------------------------------------

    def rep_words(self, pairs):
        """The words of the transversal reps at the (level, point) pairs.
        A strong generator's word uses only older ones' words, so they
        are expanded oldest first."""
        words = []  # of the strong generators, in order of creation

        def inverse(j, x):
            return tuple([self.inv_index[c] for c in reversed(rep(j, x))])

        def rep(j, x):
            lvl, path = self.levels[j], []
            while x != lvl.b:
                _, _, x, s = lvl.transversal[x]
                for g in self.strong[len(words):s.serial + 1]:
                    if isinstance(g.how, int):
                        w = (g.how,)
                    else:
                        i, y, t, z = g.how
                        w = rep(i, y) + words[t.serial] + inverse(i, z)
                    for i, y in enumerate(g.strip):
                        w += inverse(i, y)
                    words.append(w)
                path.append(words[s.serial])
            return tuple([c for w in reversed(path) for c in w])

        return [rep(j, x) for j, x in pairs]

    # -- queries -----------------------------------------------------------

    def fixed_points(self):
        """fixed[i]: the points fixed by every strong generator at level
        i or deeper (fixed[len(levels)] is every point).  Computed once."""
        if self._fixed is None:
            fixed = [frozenset(range(self.m))]
            for lvl in reversed(self.levels):
                moved = set()
                for s in lvl.gens:
                    moved.update(x for x in range(self.m) if s.perm[x] != x)
                fixed.append(fixed[-1] - moved)
            self._fixed = fixed[::-1]
        return self._fixed

    @property
    def order(self):
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def contains(self, p, word=True):
        """Membership by sifting; returns (bool, witness word or None).
        The word is expanded only if `word` is true."""
        p = tuple(p)
        if len(p) != self.m:
            raise ValueError("degree mismatch")
        res, pts = self._strip(self._encode(p))
        if res != self._id:
            return False, None
        if not word:
            return True, None
        # p = r_k ... r_1 where r_i is the rep at the i-th strip point
        words = self.rep_words(enumerate(pts))
        return True, tuple([c for w in reversed(words) for c in w])


def set_transporter(G, delta_s, delta_t):
    """Some g in G with delta_s^g = delta_t, as a tuple, or None.

    Exhaustive depth-first backtrack over the stabilizer chain, pruning
    on points fixed by the remaining levels.
    """
    delta_s = frozenset(delta_s)
    delta_t = frozenset(delta_t)
    if len(delta_s) != len(delta_t):
        return None
    levels = G.levels
    fixed = G.fixed_points()
    # a level-i stabilizer element fixes fixed[i] pointwise, so it can
    # only reach targets that agree with delta_s there
    want = [f & delta_s for f in fixed]

    def search(i, target):
        # find h in the level-i stabilizer with delta_s^h = target
        if fixed[i] & target != want[i]:
            return None
        if i == len(levels):
            return G._id if delta_s == target else None
        for r, ir, _, _ in levels[i].transversal.values():
            h = search(i + 1, frozenset(ir[x] for x in target))
            if h is not None:
                return G._mul(h, r)
        return None

    p = search(0, delta_t)
    if p is not None:
        p = tuple(p[:G.m])
        assert frozenset(p[x] for x in delta_s) == delta_t
    return p


# -- partial-bijection wrappers -------------------------------------------


def _group_domain(gs):
    """Common domain of the generators; raises if <Sigma> is not a
    group of partial bijections (all generators must share
    dom = ran).
    """
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


def _as_perm(pb, points):
    pos = {x: i for i, x in enumerate(points)}
    return tuple(pos[pb[x]] for x in points)


def perm_group_of(gs):
    """The generators of a group GeneratorSystem as a PermGroup on the
    common domain; returns (PermGroup, sorted point list).  Cached.
    """
    if gs._bsgs is None:
        dom = _group_domain(gs)
        points = sorted(dom)
        G = PermGroup([_as_perm(g, points) for g in gs.generators],
                      len(points))
        gs._bsgs = (G, points)
    return gs._bsgs


def pb_group_member(gs, t, word=True):
    """Membership for <Sigma> a group: domain test, then a sift on the
    common domain.  Returns (bool, witness word over Sigma or None); the
    word is never empty, and is expanded only if `word` is true.
    """
    G, points = perm_group_of(gs)
    dom = frozenset(points)
    if t.domain() != dom or t.ran() != dom:
        return False, None
    ok, w = G.contains(_as_perm(t, points), word)
    if w == ():
        # the sift spells the identity as (); u u~ is the same element
        # and is a word over Sigma, so the witness lies in U
        w = (0, G.inv_index[0])
    return ok, w


def group_element(gs, points, q):
    """The element of U^1 acting on the group domain `points` as the
    position permutation q; the identity of S^1 if q is the identity."""
    if q == tuple(range(len(q))):
        return gs.one
    image = dict(zip(points, [points[i] for i in q]))
    return PartialBijection(gs.degree, map(image.get, range(gs.degree)))


def _diagonal_group(gs):
    """The diagonal action of a group GeneratorSystem on ordered pairs
    of its domain, a PermGroup on m^2 points (pair (i, j) is i*m + j).
    Cached."""
    if gs._diagonal is None:
        _, points = perm_group_of(gs)
        m = len(points)
        diag_gens = []
        for g in gs.generators:
            p = _as_perm(g, points)
            diag_gens.append(tuple(
                p[i] * m + p[j] for i in range(m) for j in range(m)
            ))
        gs._diagonal = PermGroup(diag_gens, m * m)
    return gs._diagonal


def group_conjugate(gs, s, t):
    """Conjugacy with conjugators from a group U = <Sigma>: reduces to a
    set transporter on the graphs of s and t under the diagonal action.

    Returns (bool, conjugator or None).
    """
    if s == t:
        return True, gs.one
    _, points = perm_group_of(gs)
    dom = frozenset(points)
    if not (s.domain() <= dom and s.ran() <= dom
            and t.domain() <= dom and t.ran() <= dom):
        return False, None
    m = len(points)
    pos = {x: i for i, x in enumerate(points)}
    D = _diagonal_group(gs)
    delta_s = frozenset(pos[x] * m + pos[y] for x, y in s.graph())
    delta_t = frozenset(pos[x] * m + pos[y] for x, y in t.graph())
    p = set_transporter(D, delta_s, delta_t)
    if p is None:
        return False, None
    # a diagonal element moves (i, i) to (i^g, i^g)
    u = group_element(gs, points, tuple(p[i * m + i] // m for i in range(m)))
    ub = gs.inv(u)
    assert gs.mul(gs.mul(ub, s), u) == t
    assert gs.mul(gs.mul(u, t), ub) == s
    return True, u
