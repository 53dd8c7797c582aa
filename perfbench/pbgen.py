"""Seeded partial-bijection instance families with exact answers.

Elements are image tuples on points 0..n-1, None marking an undefined
image; composition is left to right, as in invsem.  Every family is a
structured inverse semigroup whose elements have a closed-form
description, so membership of any element is decided by a predicate
here instead of by enumerating the closure, and the closure size is
known in advance.  A generated system is a random relabelling of a
family template into a degree-n point set plus one extra generator that
is a random word over the template generators, so every op gets a fresh
generator list whose closure is still the template's.

This module imports nothing from invsem: later edits to the program or
its tests cannot move the workload or the expected answers.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial


def compose(a, b):
    return tuple(None if y is None else b[y] for y in a)


def inverse(a):
    out = [None] * len(a)
    for x, y in enumerate(a):
        if y is not None:
            out[y] = x
    return tuple(out)


def identity(n):
    return tuple(range(n))


def restrict_id(n, points):
    pts = set(points)
    return tuple(x if x in pts else None for x in range(n))


def domain(a):
    return frozenset(x for x, y in enumerate(a) if y is not None)


def rng_image(a):
    return frozenset(y for y in a if y is not None)


def inverse_closed(gens):
    """The generator order invsem uses after inverse-closing a list:
    each generator followed by its inverse when that is new."""
    seen = set()
    out = []
    for g in gens:
        for h in (g, inverse(g)):
            if h not in seen:
                seen.add(h)
                out.append(h)
    return out


def closure(gens, cap):
    """Breadth-first closure of a generator list and its inverses, or
    None above cap elements."""
    gens = inverse_closed(gens)
    n = len(gens[0])
    # undefined is point n here, so a product needs no test per point
    ext = [tuple(n if y is None else y for y in g) + (n,) for g in gens]
    seen = {g[:n] for g in ext}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in ext:
                y = tuple([g[p] for p in x])
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > cap:
                        return None
        frontier = nxt
    return {tuple(None if y == n else y for y in x) for x in seen}


def word_product(rng, gens, length):
    letters = inverse_closed(gens)
    x = rng.choice(letters)
    for _ in range(length - 1):
        x = compose(x, rng.choice(letters))
    return x


def random_pb(rng, n, points, p_defined=0.7):
    """A random partial bijection with domain and range inside points."""
    pts = sorted(points)
    targets = pts[:]
    rng.shuffle(targets)
    images = [None] * n
    for x in pts:
        if rng.random() < p_defined:
            images[x] = targets.pop()
    return tuple(images)


def random_perm_on(rng, n, points):
    pts = sorted(points)
    img = pts[:]
    rng.shuffle(img)
    images = [None] * n
    for x, y in zip(pts, img):
        images[x] = y
    return tuple(images)


def components(a):
    """Cycles and maximal paths of the graph of a, as point lists."""
    n = len(a)
    pre = inverse(a)
    seen = set()
    out = []
    for x in range(n):
        if x in seen or (a[x] is None and pre[x] is None):
            continue
        if pre[x] is not None:
            # walk back to a path start, or detect a cycle
            y = x
            while pre[y] is not None and pre[y] != x:
                y = pre[y]
            start, cyclic = (x, True) if pre[y] == x else (y, False)
        else:
            start, cyclic = x, False
        pts = [start]
        seen.add(start)
        y = a[start]
        while y is not None and y != start:
            pts.append(y)
            seen.add(y)
            y = a[y]
        out.append((cyclic, pts))
    return out


def conj_signature(a, labels=None):
    """Invariant of a under conjugation by any u with u~ a u = t and
    u t u~ = a, where u preserves the given point labels: the multiset
    of (cycle?, label sequence) over the components of the graph."""
    sig = []
    for cyclic, pts in components(a):
        seq = tuple(labels[x] if labels else 0 for x in pts)
        if cyclic:
            seq = min(seq[i:] + seq[:i] for i in range(len(seq)))
        sig.append((cyclic, seq))
    return tuple(sorted(sig))


# -- family templates ------------------------------------------------------


def _cycle(k, pts, support):
    images = [None] * k
    for x in support:
        images[x] = x
    for i, x in enumerate(pts):
        images[x] = pts[(i + 1) % len(pts)]
    return tuple(images)


def _sym_gens(k, pts, support):
    gens = [_cycle(k, pts, support)]
    if len(pts) > 2:
        gens.append(_cycle(k, pts[:2], support))
    return gens


def _intersections(family):
    """All intersections of non-empty subfamilies of frozensets."""
    out = set()
    for f in family:
        new = {f} | {f & g for g in out}
        out |= new
    return out


def _inv_monoid_size(k):
    return sum(comb(k, r) ** 2 * factorial(r) for r in range(k + 1))


class Family:
    """A template inverse semigroup on points 0..k-1.

    variety: the invsem variety tag of the closure; size: |U|;
    labels: point -> invariant label (orbits that every element maps
    into themselves) or None; blocks: a block system every element maps
    blockwise (wreath products) or None.  member(t) decides t in U.
    """

    def __init__(self, name, variety, k, gens, size, member, labels=None,
                 blocks=None, group_domain=None):
        self.name = name
        self.variety = variety
        self.k = k
        self.gens = gens
        self.size = size
        self.member = member
        self.labels = labels
        self.blocks = blocks
        self.group_domain = group_domain


def _is_perm_of(t, dom):
    return domain(t) == dom and rng_image(t) == dom


def _parity(t, dom):
    seen = set()
    odd = 0
    for x in dom:
        if x in seen:
            continue
        length = 0
        y = x
        while y not in seen:
            seen.add(y)
            y = t[y]
            length += 1
        odd ^= (length - 1) & 1
    return odd


def sym(k):
    dom = frozenset(range(k))
    return Family("S%d" % k, "Group", k, _sym_gens(k, list(range(k)), dom),
                  factorial(k), lambda t: _is_perm_of(t, dom),
                  group_domain=dom)


def alt(k):
    dom = frozenset(range(k))
    big = list(range(k)) if k % 2 else list(range(1, k))
    gens = [_cycle(k, [0, 1, 2], dom), _cycle(k, big, dom)]
    return Family("A%d" % k, "Group", k, gens, factorial(k) // 2,
                  lambda t: _is_perm_of(t, dom) and not _parity(t, dom),
                  group_domain=dom)


def wreath(a, b):
    """S_a wr S_b on a*b points, blocks of size a permuted by S_b."""
    k = a * b
    dom = frozenset(range(k))
    blocks = [frozenset(range(j * a, j * a + a)) for j in range(b)]
    gens = _sym_gens(k, list(range(a)), dom)
    shift = tuple((x + a) % k for x in range(k))
    gens.append(shift)
    if b > 2:
        swap = list(range(k))
        for r in range(a):
            swap[r], swap[a + r] = a + r, r
        gens.append(tuple(swap))

    def member(t):
        return _is_perm_of(t, dom) and all(
            frozenset(t[x] for x in blk) in blocks for blk in blocks)

    return Family("S%dwrS%d" % (a, b), "Group", k, gens,
                  factorial(a) ** b * factorial(b), member, blocks=blocks,
                  group_domain=dom)


def sym_product(a, b):
    """S_a x S_b acting on two orbits."""
    k = a + b
    dom = frozenset(range(k))
    o1, o2 = list(range(a)), list(range(a, k))
    labels = {x: (0 if x < a else 1) for x in range(k)}
    gens = _sym_gens(k, o1, dom) + _sym_gens(k, o2, dom)

    def member(t):
        return _is_perm_of(t, dom) and all(
            labels[t[x]] == labels[x] for x in dom)

    return Family("S%dxS%d" % (a, b), "Group", k, gens,
                  factorial(a) * factorial(b), member, labels=labels,
                  group_domain=dom)


def semilattice(rng, k, m):
    """m random partial identities on k points."""
    family = set()
    while len(family) < m:
        pts = frozenset(x for x in range(k) if rng.random() < 0.6)
        if pts and len(pts) < k:
            family.add(pts)
    family = sorted(family, key=sorted)
    gens = [restrict_id(k, pts) for pts in family]
    meets = _intersections(family)

    def member(t):
        d = domain(t)
        return (rng_image(t) == d and all(t[x] == x for x in d)
                and d in meets)

    return Family("SL%d.%d" % (k, m), "Semilattice", k, gens, len(meets),
                  member)


def clifford(block_sizes, subsets):
    """Blocks with full symmetric groups; one generating set of the
    product group per block subset in `subsets`.  Every element acts
    on a union of blocks X from the intersection closure of `subsets`,
    permuting each block of X; |U| = sum over X of prod |B|!."""
    blocks = []
    start = 0
    for size in block_sizes:
        blocks.append(list(range(start, start + size)))
        start += size
    k = start
    labels = {x: i for i, blk in enumerate(blocks) for x in blk}
    gens = []
    for sub in subsets:
        support = frozenset(x for i in sub for x in blocks[i])
        for i in sub:
            gens.extend(_sym_gens(k, blocks[i], support))
    meets = _intersections([frozenset(s) for s in subsets])
    size = 0
    for X in meets:
        prod = 1
        for i in X:
            prod *= factorial(len(blocks[i]))
        size += prod

    def member(t):
        d = domain(t)
        if rng_image(t) != d:
            return False
        X = frozenset(labels[x] for x in d)
        if X not in meets:
            return False
        return (sum(len(blocks[i]) for i in X) == len(d)
                and all(labels[t[x]] == labels[x] for x in d))

    name = "C%s" % "-".join(map(str, block_sizes))
    return Family(name, "Clifford", k, gens, size, member, labels=labels)


def brandt(m, b):
    """The Brandt groupoid of all bijections between b blocks of size m,
    plus the empty map: b^2 m! + 1 elements."""
    k = m * b
    blocks = [frozenset(range(j * m, j * m + m)) for j in range(b)]
    first = list(range(m))
    gens = _sym_gens(k, first, frozenset(first))
    for j in range(1, b):
        images = [None] * k
        for r in range(m):
            images[r] = j * m + r
        gens.append(tuple(images))

    def member(t):
        d = domain(t)
        return not d or (d in blocks and rng_image(t) in blocks)

    return Family("B%dx%d" % (m, b), "StrictInverse", k, gens,
                  b * b * factorial(m) + 1, member, blocks=blocks)


def sym_inverse(k):
    """The full symmetric inverse monoid I_k."""
    dom = frozenset(range(k))
    gens = _sym_gens(k, list(range(k)), dom)
    gens.append(restrict_id(k, range(k - 1)))

    def member(t):
        return domain(t) <= dom and rng_image(t) <= dom

    return Family("I%d" % k, "General", k, gens, _inv_monoid_size(k),
                  member)


def inverse_product(a, b):
    """I_a x I_b on two orbits: every partial bijection that maps each
    orbit into itself."""
    k = a + b
    o1, o2 = list(range(a)), list(range(a, k))
    labels = {x: (0 if x < a else 1) for x in range(k)}
    full = frozenset(range(k))
    gens = []
    for own, other in ((o1, o2), (o2, o1)):
        gens.extend(_sym_gens(k, own, full))
        gens.append(restrict_id(k, own[:-1] + other))

    def member(t):
        return all(labels[y] == labels[x] for x, y in enumerate(t)
                   if y is not None)

    return Family("I%dxI%d" % (a, b), "General", k, gens,
                  _inv_monoid_size(a) * _inv_monoid_size(b), member,
                  labels=labels)


# -- relabelled instances --------------------------------------------------


class System:
    """A family relabelled into n points: gens, exact member(), the
    support points and the family's invariants in the new labels."""

    def __init__(self, rng, family, n):
        if n < family.k:
            raise ValueError("degree below the family's support")
        self.family = family
        self.n = n
        pos = rng.sample(range(n), family.k)
        self._pos = pos
        self._back = {p: x for x, p in enumerate(pos)}
        gens = [self.lift(g) for g in family.gens]
        # a fresh extra generator that leaves the closure unchanged
        gens.append(word_product(rng, gens, rng.randrange(2, 6)))
        rng.shuffle(gens)
        self.gens = gens
        self.support = frozenset(pos)
        self.labels = (None if family.labels is None else
                       {pos[x]: lab for x, lab in family.labels.items()})
        self.blocks = (None if family.blocks is None else
                       [frozenset(pos[x] for x in blk)
                        for blk in family.blocks])
        self.group_domain = (None if family.group_domain is None else
                             frozenset(pos[x] for x in family.group_domain))

    @property
    def variety(self):
        return self.family.variety

    @property
    def size(self):
        return self.family.size

    def lift(self, g):
        images = [None] * self.n
        for x, y in enumerate(g):
            if y is not None:
                images[self._pos[x]] = self._pos[y]
        return tuple(images)

    def member(self, t):
        back = self._back
        if any(y is not None and (x not in back or y not in back)
               for x, y in enumerate(t)):
            return False
        k = self.family.k
        local = [None] * k
        for x, y in enumerate(t):
            if y is not None:
                local[back[x]] = back[y]
        return self.family.member(tuple(local))

    def member_one(self, u):
        """u in U^1 (the identity of the ambient monoid adjoined)."""
        return u == identity(self.n) or self.member(u)

    def element(self, rng, length=None):
        return word_product(rng, self.gens,
                            length or rng.randrange(1, 12))


def transport_profile(system, points):
    """Invariant of a point set under the group: orbit counts or the
    multiset of block intersection sizes."""
    if system.labels is not None:
        counts = {}
        for x in points:
            lab = system.labels[x]
            counts[lab] = counts.get(lab, 0) + 1
        return tuple(sorted(counts.items()))
    if system.blocks is not None:
        return tuple(sorted(len(points & blk) for blk in system.blocks))
    return (len(points),)


def subsets_of(points, size):
    return [frozenset(c) for c in combinations(sorted(points), size)]
