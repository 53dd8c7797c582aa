"""Partial bijections on a finite point set.

Elements of the symmetric inverse monoid I(Omega) are stored as image
tuples, with None marking an undefined image.  Points are 0-based
internally; file formats use 1-based points (see formats.py).

Composition is left-to-right: (a * b) sends x to (x^a)^b, i.e. the left
factor acts first.
"""

from __future__ import annotations


class PartialBijection:
    """An injective partial self-map on points 0..degree-1."""

    __slots__ = ("degree", "images", "_hash")

    def __init__(self, degree, images):
        images = tuple(images)
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if len(images) != degree:
            raise ValueError(
                "expected %d images, got %d" % (degree, len(images))
            )
        seen = set()
        for y in images:
            if y is None:
                continue
            if not (0 <= y < degree):
                raise ValueError("image %r out of range" % (y,))
            if y in seen:
                raise ValueError("not injective: image %d repeated" % y)
            seen.add(y)
        _set_degree(self, degree)
        _set_images(self, images)
        _set_hash(self, hash(images))

    def __setattr__(self, name, value):
        raise AttributeError("PartialBijection is immutable")

    # -- basic protocol ----------------------------------------------------

    def __getitem__(self, x):
        """Image of point x, or None if undefined."""
        return self.images[x]

    def __eq__(self, other):
        return (
            isinstance(other, PartialBijection)
            and self.images == other.images
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ",".join(
            "_" if y is None else str(y + 1) for y in self.images
        )
        return "PartialBijection(%d:[%s])" % (self.degree, body)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        return compose(self, other)

    def __invert__(self):
        return self.inverse()

    def inverse(self):
        """The relational converse."""
        inv = [None] * self.degree
        for x, y in enumerate(self.images):
            if y is not None:
                inv[y] = x
        return _make(self.degree, tuple(inv))

    # -- structure ---------------------------------------------------------

    def domain(self):
        return frozenset(
            x for x, y in enumerate(self.images) if y is not None
        )

    def ran(self):
        return frozenset(y for y in self.images if y is not None)

    def graph(self):
        """The set of (x, x^s) pairs."""
        return frozenset(
            (x, y) for x, y in enumerate(self.images) if y is not None
        )

    def is_idempotent(self):
        return all(y is None or y == x for x, y in enumerate(self.images))

    def is_total(self):
        return all(y is not None for y in self.images)

    def le(self, other):
        """Natural partial order: self <= other iff self = self self~ other."""
        for x, y in enumerate(self.images):
            if y is not None and other.images[x] != y:
                return False
        return True


# the slot descriptors, which write past the raising __setattr__
_set_degree = PartialBijection.degree.__set__
_set_images = PartialBijection.images.__set__
_set_hash = PartialBijection._hash.__set__


def _make(degree, images):
    """A PartialBijection from an image tuple already known to be valid,
    without the constructor's checks: the kernel of every product."""
    p = object.__new__(PartialBijection)
    _set_degree(p, degree)
    _set_images(p, images)
    _set_hash(p, hash(images))
    return p


def compose(a, b):
    """x^(ab) = (x^a)^b; the left factor applies first."""
    if a.degree != b.degree:
        raise ValueError(
            "degree mismatch: %d vs %d" % (a.degree, b.degree)
        )
    bi = b.images
    return _make(a.degree,
                 tuple([None if y is None else bi[y] for y in a.images]))


def identity(n):
    return _make(n, tuple(range(n)))


def empty_map(n):
    return _make(n, (None,) * n)


def partial_identity(n, points):
    """The idempotent e_Delta with domain `points`."""
    pts = set(points)
    return _make(n, tuple([x if x in pts else None for x in range(n)]))


def singleton(n, x, y):
    """The map u_xy sending x to y and undefined elsewhere."""
    images = [None] * n
    images[x] = y
    return PartialBijection(n, images)


def from_pairs(n, pairs):
    images = [None] * n
    for x, y in pairs:
        if images[x] is not None:
            raise ValueError("point %d mapped twice" % x)
        images[x] = y
    return PartialBijection(n, images)


def idempotent_power(x, mul=None):
    """The unique idempotent power x^omega."""
    if mul is None:
        mul = compose
        if x.is_idempotent():
            return x
    seen = {}
    cur = x
    k = 1
    while cur not in seen:
        seen[cur] = k
        cur = mul(cur, x)
        k += 1
    # cur starts a cycle of length k - seen[cur]; the cycle is a group
    # and contains exactly one idempotent.
    period = k - seen[cur]
    e = cur
    for _ in range(period):
        if mul(e, e) == e:
            return e
        e = mul(e, x)
    raise AssertionError("no idempotent power found")


def brandt(n, with_identity=False):
    """All elements of B(Omega) on n points: singleton maps and the empty
    map, optionally with the identity adjoined.

    Returns (elements, index) where index maps ('zero',), ('one',) and
    (x, y) keys to list positions.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    elements = [empty_map(n)]
    index = {("zero",): 0}
    for x in range(n):
        for y in range(n):
            index[(x, y)] = len(elements)
            elements.append(singleton(n, x, y))
    if with_identity:
        index[("one",)] = len(elements)
        elements.append(identity(n))
    return elements, index


def direct_product(parts):
    """Block partial bijection on the disjoint union of the factors."""
    degrees = [p.degree for p in parts]
    n = sum(degrees)
    images = [None] * n
    offset = 0
    for p in parts:
        for x, y in enumerate(p.images):
            if y is not None:
                images[offset + x] = offset + y
        offset += p.degree
    return _make(n, tuple(images))


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
    return [_make(n, images) for images in result]
