"""Partial bijections on a finite point set.

An element of the symmetric inverse monoid I(Omega) is the tuple of its
images, with None marking an undefined image.  Points are 0-based
internally; file formats use 1-based points (see formats.py).

Composition is left-to-right: (a * b) sends x to (x^a)^b, i.e. the left
factor acts first.  Scans over many elements multiply codes of the
element kernel that `kernel(n)`, and only it, picks by degree:
`BytesCodec` up to degree 255, the `TupleCodec` of degree n above.
"""

from __future__ import annotations

from operator import itemgetter


class PartialBijection(tuple):
    """An injective partial self-map on points 0..degree-1, stored as the
    tuple of its images: p[x] is the image of x, or None if undefined.
    Equality, hashing and immutability are the tuple's."""

    __slots__ = ()

    def __new__(cls, degree, images):
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
        return tuple.__new__(cls, images)

    @property
    def degree(self):
        return len(self)

    @property
    def images(self):
        """The images as a plain tuple."""
        return tuple(self)

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__; tuple's own would
        # pass the images without the degree
        return len(self), tuple(self)

    def __repr__(self):
        body = ",".join("_" if y is None else str(y + 1) for y in self)
        return "PartialBijection(%d:[%s])" % (len(self), body)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        return compose(self, other)

    def __invert__(self):
        return self.inverse()

    def inverse(self):
        """The relational converse."""
        inv = [None] * len(self)
        for x, y in enumerate(self):
            if y is not None:
                inv[y] = x
        return _make(inv)

    # -- structure ---------------------------------------------------------

    def domain(self):
        return frozenset(x for x, y in enumerate(self) if y is not None)

    def ran(self):
        return frozenset(y for y in self if y is not None)

    def is_idempotent(self):
        return all(y is None or y == x for x, y in enumerate(self))


def _make(images):
    """A PartialBijection from images already known to be valid, without
    the constructor's checks: the kernel of every product."""
    return tuple.__new__(PartialBijection, images)


_POINTS = bytes(range(256))
_UNDEFINED = b"\xff" * 256


class BytesCodec:
    """Partial bijections of degree at most 255 as codes: the bytes of
    their images, with 255 for "undefined".  Two codes are equal exactly
    when their elements are, so a code-keyed index dedups and orders as
    an element-keyed one.

    The product x * y is product(x, right(y)), one bytes.translate:
    right(y) is y padded to 256 entries with 255 -> 255, so an undefined
    image stays undefined.  The inverse is one bytes.maketrans: points
    first map to 255, then later pairs send each image back to its
    point.  The class is a namespace; mul and inv let it stand in for a
    GeneratorSystem over codes.
    """

    max_degree = 255
    undefined = 255
    product = staticmethod(bytes.translate)

    @staticmethod
    def encode(x):
        if None in x:
            x = [255 if y is None else y for y in x]
        return bytes(x)

    @staticmethod
    def decode(code):
        return _make([None if y == 255 else y for y in code])

    @staticmethod
    def right(y):
        return y.ljust(256, b"\xff")

    @staticmethod
    def mul(x, y):
        return x.translate(y.ljust(256, b"\xff"))

    @staticmethod
    def inv(x):
        n = len(x)
        return bytes.maketrans(_POINTS[:n] + x,
                               _UNDEFINED[:n] + _POINTS[:n])[:n]


class TupleCodec:
    """Partial bijections of degree n >= 1 past BytesCodec.max_degree as
    codes: the tuple of their n + 1 images, with n for "undefined" and
    code[n] = n.  A product is one itemgetter(*x)(y), as y[n] = n keeps
    an undefined image undefined, so right is the identity.  The inverse
    sends each image back to its point, n last to n."""

    def __init__(self, n):
        self.undefined = n

    @staticmethod
    def right(y):
        return y

    @staticmethod
    def mul(x, y):
        return itemgetter(*x)(y)

    product = mul

    def encode(self, x):
        n = self.undefined
        if None in x:
            x = [n if y is None else y for y in x]
        return (*x, n)

    def decode(self, code):
        n = self.undefined
        return _make([None if y == n else y for y in code[:n]])

    def inv(self, x):
        n = self.undefined
        inv = [n] * (n + 1)
        for i, y in enumerate(x):  # the pair of code[n] = n comes last
            inv[y] = i
        return tuple(inv)


def kernel(n):
    """The codec of elements of degree n: BytesCodec up to its
    max_degree, otherwise the TupleCodec of degree n."""
    return BytesCodec if n <= BytesCodec.max_degree else TupleCodec(n)


def compose(a, b):
    """x^(ab) = (x^a)^b; the left factor applies first."""
    if len(a) != len(b):
        raise ValueError("degree mismatch: %d vs %d" % (len(a), len(b)))
    return _make([None if y is None else b[y] for y in a])


def identity(n):
    return _make(range(n))


def empty_map(n):
    return _make((None,) * n)


def partial_identity(n, points):
    """The idempotent e_Delta with domain `points`."""
    pts = set(points)
    return _make([x if x in pts else None for x in range(n)])


def singleton(n, x, y):
    """The map u_xy sending x to y and undefined elsewhere."""
    images = [None] * n
    images[x] = y
    return PartialBijection(n, images)


def idempotent_power(x):
    """The unique idempotent power x^omega: the powers of x run into a
    cycle, a group, which holds the one idempotent among them."""
    e = x
    while not e.is_idempotent():
        e = compose(e, x)
    return e


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
    images = [None] * sum(len(p) for p in parts)
    offset = 0
    for p in parts:
        for x, y in enumerate(p):
            if y is not None:
                images[offset + x] = offset + y
        offset += len(p)
    return _make(images)
