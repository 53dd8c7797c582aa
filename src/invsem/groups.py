"""Terminal solver for the group case: deterministic Schreier-Sims
membership for permutation groups, the partial-bijection wrapper, set
transporter and conjugacy via the graph-of-the-map reduction.

Permutations are tuples p with x^p = p[x]; products are left-to-right
(apply the left factor first), matching the partial-bijection
convention.  Witness words are tuples of generator indices; generators
are inverse-closed internally so no signed letters are needed.
"""

from __future__ import annotations

def _pmul(a, b):
    return tuple([b[x] for x in a])


def _pinv(a):
    inv = [0] * len(a)
    for x, y in enumerate(a):
        inv[y] = x
    return tuple(inv)


class _Level:
    __slots__ = ("b", "gens", "transversal", "inverse")

    def __init__(self, b, identity):
        self.b = b
        self.gens = []  # (perm, word)
        self.transversal = {b: (identity, ())}  # point -> (rep, word), b^rep = point
        self.inverse = {b: (identity, ())}  # point -> inverse of its rep


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
        self.levels = []
        self._fixed = None
        for i, g in enumerate(self.gens):
            self._insert(g, (i,))
        self._stabilize()

    # -- construction ------------------------------------------------------

    def _inv_pw(self, p, w):
        # invert an element given as a word over self.gens
        return _pinv(p), tuple(self.inv_index[letter] for letter in reversed(w))

    def _strip(self, start, p, w):
        reps = []
        for j in range(start, len(self.levels)):
            lvl = self.levels[j]
            x = p[lvl.b]
            if x not in lvl.transversal:
                return p, w, j, reps
            reps.append(lvl.transversal[x])
            ir, irw = lvl.inverse[x]
            p = _pmul(p, ir)
            w = w + irw
        return p, w, len(self.levels), reps

    def _gens_at(self, j):
        # Strong generators of the level-j stabilizer: everything stored
        # at level j or deeper (a generator added deep also fixes the
        # shallower base prefix, so it can extend shallower orbits).
        out = []
        for lvl in self.levels[j:]:
            out.extend(lvl.gens)
        return out

    def _insert(self, p, w):
        """Sift (p, w); store a nontrivial residue as a strong generator
        at its strip depth."""
        p, w, j, _ = self._strip(0, p, w)
        if p == self.identity:
            return False
        if j == len(self.levels):
            b = min(x for x in range(self.m) if p[x] != x)
            self.levels.append(_Level(b, self.identity))
        self.levels[j].gens.append((p, w))
        return True

    def _orbit(self, j):
        # extend the transversal of b_j under the level-j stabilizer
        lvl = self.levels[j]
        gens = self._gens_at(j)
        pts = list(lvl.transversal)
        k = 0
        while k < len(pts):
            x = pts[k]
            k += 1
            r, rw = lvl.transversal[x]
            for s, sw in gens:
                y = s[x]
                if y not in lvl.transversal:
                    rep = (_pmul(r, s), rw + sw)
                    lvl.transversal[y] = rep
                    lvl.inverse[y] = self._inv_pw(*rep)
                    pts.append(y)

    def _stabilize(self):
        # Fixpoint: recompute all orbits, then hunt for a Schreier
        # generator that does not sift to the identity; each insertion
        # grows the transversal product, so this terminates.
        while True:
            for j in range(len(self.levels)):
                self._orbit(j)
            if not self._find_violation():
                return

    def _find_violation(self):
        for j in range(len(self.levels)):
            lvl = self.levels[j]
            gens = self._gens_at(j)
            for x, (r, rw) in list(lvl.transversal.items()):
                for s, sw in gens:
                    y = s[x]
                    iq, iqw = lvl.inverse[y]
                    sg = _pmul(_pmul(r, s), iq)
                    if sg == self.identity:
                        continue
                    if self._insert(sg, rw + sw + iqw):
                        return True
        return False

    # -- queries -----------------------------------------------------------

    def fixed_points(self):
        """fixed[i]: the points fixed by every strong generator at level
        i or deeper (fixed[len(levels)] is every point).  Computed once."""
        if self._fixed is None:
            fixed = [frozenset(range(self.m))]
            for lvl in reversed(self.levels):
                moved = set()
                for p, _ in lvl.gens:
                    moved.update(x for x in range(self.m) if p[x] != x)
                fixed.append(fixed[-1] - moved)
            self._fixed = fixed[::-1]
        return self._fixed

    @property
    def order(self):
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def contains(self, p):
        """Membership by sifting; returns (bool, witness word or None)."""
        p = tuple(p)
        if len(p) != self.m:
            raise ValueError("degree mismatch")
        res, _, _, reps = self._strip(0, p, ())
        if res != self.identity:
            return False, None
        # p = r_k ... r_1 where reps = [r_1, ..., r_k] in strip order
        word = ()
        for _, rw in reversed(reps):
            word = word + rw
        return True, word

    def elements(self):
        """All (perm, word) pairs; deterministic order."""
        out = [(self.identity, ())]
        for lvl in self.levels:
            out = [
                (_pmul(r, p), rw + w)
                for r, rw in lvl.transversal.values()
                for p, w in out
            ]
        return out


def set_transporter(G, delta_s, delta_t):
    """Some g in G with delta_s^g = delta_t, as (perm, word), or None.

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
            return (G.identity, ()) if delta_s == target else None
        inverse = levels[i].inverse
        for pt, (r, rw) in levels[i].transversal.items():
            ir, _ = inverse[pt]
            sub = search(i + 1, frozenset(ir[x] for x in target))
            if sub is not None:
                h, hw = sub
                return _pmul(h, r), hw + rw
        return None

    result = search(0, delta_t)
    if result is not None:
        p, _ = result
        assert frozenset(p[x] for x in delta_s) == delta_t
    return result


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


def pb_group_member(gs, t):
    """Membership for <Sigma> a group: domain test, then a sift on the
    common domain.  Returns (bool, witness word over Sigma or None); the
    word is never empty.
    """
    G, points = perm_group_of(gs)
    dom = frozenset(points)
    if t.domain() != dom or t.ran() != dom:
        return False, None
    ok, word = G.contains(_as_perm(t, points))
    if ok and not word:
        # the sift spells the identity as (); u u~ is the same element
        # and is a word over Sigma, so the witness lies in U
        word = (0, G.inv_index[0])
    return ok, word


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
    found = set_transporter(D, delta_s, delta_t)
    if found is None:
        return False, None
    _, word = found
    u = gs.one
    for letter in word:
        u = gs.mul(u, gs.generators[letter])
    ub = gs.inv(u)
    assert gs.mul(gs.mul(ub, s), u) == t
    assert gs.mul(gs.mul(u, t), ub) == s
    return True, u
