"""Brute-force ground truth: closure enumeration, naive membership,
naive relative conjugacy, and naive relative Green's relations; the
fast solvers are validated against this module.

The enumeration is a plain breadth-first search on the codes of the
system's element kernel, `GeneratorSystem.codec`: on the pb model a
product is one bytes.translate up to degree 255 and one itemgetter
above (`pbij.kernel`), on a Cayley table one table read.  A
closure decodes its codes once, when `Closure.elements` is first read,
or one at a time through `Closure.element`; membership, words,
conjugators and the Green ideals encode their arguments instead.
"""

from __future__ import annotations

ELEMENT_CAP = 10**6
PRODUCT_CAP = 10**8


class ClosureCapExceeded(Exception):
    pass


class Closure:
    """The elements of U = <Sigma> with word witnesses and the right
    Cayley graph.

    codes: breadth-first enumeration, deduplicated, as codec (the
    system's GeneratorSystem.codec when it was closed) holds the
    elements.  index maps a code to its position.  elements decodes the
    codes once, on first read; element(i) decodes one.
    product_witness[i] is None for generators and otherwise a pair
    (j, g) with elements[i] = elements[j] * Sigma[g].  Generator g is
    elements[g].  right[j][g] is the index of elements[j] * Sigma[g],
    so right is the right Cayley graph of U with respect to Sigma.
    """

    def __init__(self, codes, product_witness, right, index, codec):
        self.codes = codes
        self.product_witness = product_witness
        self.right = right
        self.index = index
        self.codec = codec
        self._elements = None

    @property
    def elements(self):
        if self._elements is None:
            self._elements = list(map(self.codec.decode, self.codes))
        return self._elements

    def element(self, i):
        if self._elements is None:
            return self.codec.decode(self.codes[i])
        return self._elements[i]

    def __len__(self):
        return len(self.codes)

    def __contains__(self, x):
        try:
            return self.codec.encode(x) in self.index
        except ValueError:  # an image past 255 has no bytes code
            return False

    def word_for(self, x):
        """The generator indices, in order, of the breadth-first word
        that reaches x: a shortest word for x."""
        i = self.index[self.codec.encode(x)]
        word = []
        while self.product_witness[i] is not None:
            i, g = self.product_witness[i]
            word.append(g)
        return (i,) + tuple(reversed(word))


def close(gs, cap=ELEMENT_CAP):
    """Saturate Sigma under products (breadth-first by word length,
    generators in list order), recording every product as an edge of
    the right Cayley graph.  Sigma is inverse-closed, so this is the
    full inverse-subsemigroup closure, held as gs.codec's codes.
    """
    if gs._closure is not None:
        # a completed closure is the full set regardless of the cap used
        return gs._closure
    if cap <= gs._over_cap:
        # the enumeration is deterministic and passed this cap before
        raise ClosureCapExceeded("closure exceeded %d elements" % cap)
    codec, gens = gs.codec, gs.generator_codes
    tables = [codec.right(g) for g in gens]
    mul = codec.product
    # the generators are distinct (GeneratorSystem deduplicates them)
    codes = list(gens)
    product_witness = [None] * len(gens)
    index = {g: i for i, g in enumerate(gens)}
    right = []
    products = 0
    # elements are expanded in index order, which is breadth-first
    # order, so right[j] is appended when codes[j] is expanded
    j = 0
    while j < len(codes):
        x = codes[j]
        row = []
        for i, t in enumerate(tables):
            products += 1
            if products > PRODUCT_CAP:
                raise ClosureCapExceeded(
                    "closure exceeded %d product evaluations" % PRODUCT_CAP
                )
            y = mul(x, t)
            k = index.get(y)
            if k is None:
                if len(codes) >= cap:
                    gs._over_cap = cap
                    raise ClosureCapExceeded(
                        "closure exceeded %d elements" % cap
                    )
                k = len(codes)
                index[y] = k
                codes.append(y)
                product_witness.append((j, i))
            row.append(k)
        right.append(tuple(row))
        j += 1
    result = Closure(codes, product_witness, right, index, codec)
    gs._closure = result
    return result


def naive_member(gs, t, cap=ELEMENT_CAP):
    """Is t in <Sigma>?  Returns (bool, witness word or None)."""
    cl = close(gs, cap)
    if t in cl:
        return True, cl.word_for(t)
    return False, None


def naive_conjugate(gs, s, t, cap=ELEMENT_CAP):
    """Is s ~_U t, i.e. is there u in U^1 with u~ s u = t and u t u~ = s?

    Returns (bool, conjugator or None); the identity conjugator is
    gs.one.
    """
    if s == t:
        return True, gs.one
    # scan the codes, and decode only the u returned
    cl = close(gs, cap)
    codec = cl.codec
    mul, inv, s, t = codec.mul, codec.inv, codec.encode(s), codec.encode(t)
    for i, u in enumerate(cl.codes):
        ub = inv(u)
        if mul(mul(ub, s), u) == t and mul(mul(u, t), ub) == s:
            return True, cl.element(i)
    return False, None


def _right_ideal(gs, t, elements):
    out = {t}
    for u in elements:
        out.add(gs.mul(t, u))
    return out


def _left_ideal(gs, t, elements):
    out = {t}
    for u in elements:
        out.add(gs.mul(u, t))
    return out


def _two_sided_ideal(gs, t, elements):
    out = set()
    for x in _left_ideal(gs, t, elements):
        out |= _right_ideal(gs, x, elements)
    return out


def naive_green(gs, s, t, relation, cap=ELEMENT_CAP):
    """Decide the relative Green equivalence (R, L, J or H) of s and t
    with multipliers from U^1.  D is identified with J (finite case).
    """
    return (naive_green_leq(gs, s, t, relation, cap)
            and naive_green_leq(gs, t, s, relation, cap))


def naive_green_leq(gs, s, t, relation, cap=ELEMENT_CAP):
    """The pre-order s <=_X^U t (s in the suitable ideal of t); <=_H is
    <=_R and <=_L together."""
    if relation == "H":
        return (naive_green_leq(gs, s, t, "R", cap)
                and naive_green_leq(gs, s, t, "L", cap))
    # the ideals are taken over the closure's codes
    cl = close(gs, cap)
    ops, el, s, t = cl.codec, cl.codes, cl.codec.encode(s), cl.codec.encode(t)
    if relation == "R":
        return s in _right_ideal(ops, t, el)
    if relation == "L":
        return s in _left_ideal(ops, t, el)
    if relation in ("J", "D"):
        return s in _two_sided_ideal(ops, t, el)
    raise ValueError("unknown relation %r" % (relation,))
