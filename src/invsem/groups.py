"""Terminal solver for the group case: deterministic Schreier-Sims
membership for permutation groups, the partial-bijection wrapper, and
one backtrack for conjugators of partial maps and set transporters;
and the orbit-labelled cycle/chain signature that rules out conjugacy
in any U of partial bijections before a group, Munn graph or D-class
is built (cycle types first, as in Seress, Permutation Group
Algorithms, 2003, ch. 9).

Permutations are tuples p with x^p = p[x]; inside a PermGroup on m
points they are right factors of the codec `pbij.kernel(m)`, whose
undefined image every table fixes.  Products are left-to-right (apply
the left factor first), matching the partial-bijection convention.  Witness
words are tuples of generator indices; generators are inverse-closed
internally so no signed letters are needed.  The build stores no words:
`PermGroup.rep_words` expands them from the Schreier vectors when a
witness is printed.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .pbij import PartialBijection, kernel


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
        self._ops = ops = kernel(m)
        self._mul, self._inv = ops.product, ops.inv
        self._id = self._encode(self.identity)
        # inverse-close so every word letter has an inverse letter
        index = {g: i for i, g in enumerate(self.gens)}
        self.inv_index = []
        for g in self.gens:  # grows by the inverses not given
            ig = tuple(self._inv(self._encode(g))[:m])
            if ig not in index:
                index[ig] = len(self.gens)
                self.gens.append(ig)
            self.inv_index.append(index[ig])
        self.levels = []
        self.strong = []  # every strong generator, in order of creation
        for i, g in enumerate(self.gens):
            self._insert(self._encode(g), i)
        self._stabilize()

    def _encode(self, p):
        # p's right table in the kernel, None read as its undefined image
        return self._ops.right(self._ops.encode(p))

    # -- construction ------------------------------------------------------

    def _strip(self, p, start=0, pts=None):
        """Sift p, which fixes the base points before level `start`, and
        return the residue; the point at each level passed is appended to
        `pts` if given."""
        mul = self._mul
        for lvl in self.levels[start:]:
            x = p[lvl.b]
            if x not in lvl.transversal:
                break
            if pts is not None:
                pts.append(x)
            if x != lvl.b:
                p = mul(p, lvl.transversal[x][1])
        return p

    def _gens_at(self, j):
        # Strong generators of the level-j stabilizer: everything stored
        # at level j or deeper (a generator added deep also fixes the
        # shallower base prefix, so it can extend shallower orbits).
        out = []
        for lvl in self.levels[j:]:
            out.extend(lvl.gens)
        return out

    def _insert(self, p, how, start=0):
        """Sift p from level `start`; store a nontrivial residue as a
        strong generator at its strip depth."""
        pts = [lvl.b for lvl in self.levels[:start]]
        p = self._strip(p, start, pts)
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
        # the one a full rescan would find.  The edge (x, s) that entered
        # y = x^s into the transversal gives rep(x) s rep(y)^-1 = 1, so
        # it is skipped; a residue other than 1 is sifted again by
        # _insert, which records the strip points.
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
                    _, iy, x0, s0 = lvl.transversal[y]
                    if s0 is s and x0 == x:
                        continue
                    # sg fixes b_0 .. b_j, so its sift starts below j
                    sg = mul(mul(r, s.perm), iy)
                    if self._strip(sg, j + 1) != self._id:
                        self._insert(sg, (j, x, s, y), j + 1)
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

    @cached_property
    def _fixed_views(self):
        """Per level i and one past the last, tables (a, c) such that
        mul(mul(a, p), c) keeps of a partial map p what the level-i
        stabilizer fixes: p at each point fixed by all of it, with an
        image it moves read as b_i (undefined past the last level)."""
        m, moved, views = self.m, set(), []
        undefined = self._ops.undefined
        for b, gens in [(undefined, ())] + [(lvl.b, lvl.gens)
                                            for lvl in reversed(self.levels)]:
            for s in gens:
                moved.update(x for x in range(m) if s.perm[x] != x)
            views.append(tuple(
                self._encode([y if x in moved else x for x in range(m)])
                for y in (undefined, b)))
        return views[::-1]

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
        pts = [] if word else None
        if self._strip(self._encode(p), 0, pts) != self._id:
            return False, None
        if not word:
            return True, None
        # p = r_k ... r_1 where r_i is the rep at the i-th strip point
        words = self.rep_words(enumerate(pts))
        return True, tuple([c for w in reversed(words) for c in w])

    def conjugator(self, s, t):
        """Some g in the group with g~ s g = t, as a tuple, or None, for
        partial maps s and t on its points (images, None if undefined).

        Exhaustive depth-first backtrack over the stabilizer chain: g is
        h r with r a level-i rep and h in the level-(i+1) stabilizer, so
        h~ s h = r t r~; a node is pruned where s and its target differ
        at the points its stabilizer fixes.
        """
        m, mul, levels = self.m, self._mul, self.levels
        s, t = self._encode(s), self._encode(t)
        if s.count(self._ops.undefined) != t.count(self._ops.undefined):
            return None
        views = self._fixed_views
        want = [mul(mul(a, s), c) for a, c in views]

        def search(i, target):
            a, c = views[i]
            if mul(mul(a, target), c) != want[i]:
                return None
            if i == len(levels):
                return self._id
            for r, ir, _, _ in levels[i].transversal.values():
                h = search(i + 1, mul(mul(r, target), ir))
                if h is not None:
                    return mul(h, r)
            return None

        g = search(0, t)
        assert g is None or mul(s, g) == mul(g, t)
        return None if g is None else tuple(g[:m])


def set_transporter(G, delta_s, delta_t):
    """Some g in G with delta_s^g = delta_t, as a tuple, or None: a
    conjugator of the partial identities on delta_s and delta_t."""
    sets = frozenset(delta_s), frozenset(delta_t)
    return G.conjugator(*([x if x in d else None for x in range(G.m)]
                          for d in sets))


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


def _group_points(gs):
    """The sorted common domain of a group system and each point's
    position in it; once per system.  Raises ValueError, as
    `_group_domain` does, if U is not a group."""
    if gs._group_points is None:
        points = sorted(_group_domain(gs))
        gs._group_points = points, dict(zip(points, range(len(points))))
    return gs._group_points


def perm_group_of(gs):
    """The generators of a group GeneratorSystem as a PermGroup on the
    common domain; returns (PermGroup, sorted point list).  Cached.
    """
    if gs._bsgs is None:
        points, pos = _group_points(gs)
        G = PermGroup([[pos[g[x]] for x in points] for g in gs.generators],
                      len(points))
        gs._bsgs = (G, points)
    return gs._bsgs


def pb_group_member(gs, t, word=True):
    """Membership for <Sigma> a group: domain test, then a sift on the
    common domain.  Returns (bool, witness word over Sigma or None); the
    word is never empty, and is expanded only if `word` is true.  The
    domain test comes first, so a target off the domain builds no BSGS.
    """
    points, pos = _group_points(gs)
    q = [pos.get(t[x]) for x in points]
    # t maps the domain into itself, so onto it, as t is injective; it
    # is then undefined elsewhere iff it has no other defined point
    if None in q or len(t) - t.count(None) != len(q):
        return False, None
    G = perm_group_of(gs)[0]
    ok, w = G.contains(q, word)
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


def group_conjugate(gs, s, t):
    """Conjugacy with conjugators from a group U = <Sigma>: a conjugator
    of s and t in the permutation group U induces on its domain.

    Returns (bool, conjugator or None).
    """
    if s == t:
        return True, gs.one
    G = perm_group_of(gs)[0]
    points, pos = _group_points(gs)
    qs = [[pos.get(p[x]) for x in points] for p in (s, t)]
    # s and t lie on the domain iff every defined point and its image do
    if any(len(q) - q.count(None) != len(p) - p.count(None)
           for p, q in zip((s, t), qs)):
        return False, None
    q = G.conjugator(*qs)
    if q is None:
        return False, None
    u = group_element(gs, points, q)
    ub = gs.inv(u)
    assert gs.mul(gs.mul(ub, s), u) == t
    assert gs.mul(gs.mul(u, t), ub) == s
    return True, u


# -- conjugation signatures -----------------------------------------------


def conj_signature(p, labels):
    """The sorted list of (cyclic?, label sequence) over the components
    of the graph of the partial map p: a chain read from its start, a
    cycle at its least rotation, each point x read as labels[x].

    With the orbits of `gs.points` as labels (a point's orbit mask, or
    ~x for an untouched x), conjugates in U share it, in any U <= I_n:
    if u~ s u = t and u t u~ = s for some u in U (s != t), then u is
    defined on dom s | ran s and (a, a^s) -> (a^u, (a^s)^u) carries
    graph(s) onto graph(t), by the transport lemma below, so u maps each
    component of s onto one of t of the same kind, point by point in
    order; and x and x^u lie in one <Sigma>-orbit, as u is a product of
    generators.  Cost O(n) for n points, and O(k^2) for a k-cycle only
    where its labels differ.

    Transport lemma: u~ s u = t and u t u~ = s  iff  |dom s| = |dom t|
    and, for every a in dom s, u is defined at a and at a^s with
    (a^u)^t = (a^s)^u.
    Only if: a in dom s = dom(u t u~) puts a in dom u, a^u in dom t and
    (a^u)^t in ran u with ((a^u)^t)^u~ = a^s, so u is defined at a^s and
    (a^s)^u = (a^u)^t.  Conjugation by u and u~ cannot raise the rank,
    so |dom s| = |dom t|.
    If: the map (a, a^s) -> (a^u, (a^s)^u) sends graph(s) into graph(t)
    and is injective because u is; the graphs have equal size, so it is
    onto.  graph(u~ s u) is the set of (b^u, (b^s)^u) over the b in
    dom s with b and b^s in dom u.  These are all of dom s, so graph(u~ s
    u) is the image of graph(s), which is graph(t): u~ s u = t.  Each
    (c, c^t) of graph(t) is (a^u, (a^s)^u) for one a in dom s, so u t u~
    sends a to a^s; and any x in dom(u t u~) has (x^u, x^(ut)) in
    graph(t), so x is that a by injectivity of u: u t u~ = s.
    """
    left = {x for x, y in enumerate(p) if y is not None}
    sig = []
    for x in left - set(p):  # the chains, each from its start
        left.discard(x)
        seq = [labels[x]]
        y = p[x]
        while y is not None:
            left.discard(y)
            seq.append(labels[y])
            y = p[y]
        sig.append((False, tuple(seq)))
    while left:  # the cycles
        x = left.pop()
        seq = [labels[x]]
        y = p[x]
        while y != x:
            left.discard(y)
            seq.append(labels[y])
            y = p[y]
        if seq.count(seq[0]) < len(seq):
            m = min(seq)
            seq = min(seq[i:] + seq[:i] for i, a in enumerate(seq) if a == m)
        sig.append((True, tuple(seq)))
    sig.sort()
    return sig
