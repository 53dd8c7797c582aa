"""Cayley tables of finite inverse semigroups.

A CayleyTable stores an n x n multiplication table over element indices
0..n-1 as one read-only array of the smallest unsigned integer type that
holds n - 1, and the derived unique-inverse map.  Products are read
from the array; its rows as lists of Python ints (`table`) are built
only on their first read.  Validation is exact at every order.  A
commutative table of idempotents is accepted as a semilattice when it
passes a meet test on packed bit rows (`_is_meet_table`, at most
n^3/64 word operations).  Every other table is checked by Light's test
over a generating set G of the table (Clifford & Preston, The Algebraic
Theory of Semigroups I, section 1.4).  G is read off a min-max
relaxation over the whole table (`_generating_set`): at most
ceil(log2 n) + 1 rounds of n^2 products each, so O(n^2 log n) time.
Light's test then takes two row gathers per generator, run in blocks of
generators whose gathers keep near 2^16 entries, so O(|G| n^2) time and
O(n^2) memory.  Then every element must have exactly one inverse.  A
chain needs G = S, so the meet test is what keeps semilattice tables
from costing n^3.

numpy is imported inside the functions that use it, not at the top of
the module: importing it takes longer than a partial-bijection query,
and no pb, graph, ncl, ia or eqn command builds a table.  After the
first import, each such import is one lookup in sys.modules.
"""

from __future__ import annotations

from numbers import Integral

from .pbij import PartialBijection


class CayleyTable:
    """An n x n multiplication table of an inverse semigroup.

    Built from n rows of n integers or from an n x n integer ndarray.
    `array` holds the validated entries (read-only, uint8 up to order
    256, uint16 up to 65536) and `table` the same entries as lists of
    Python ints, so table[x][y] is x y.  The lists are built on the
    first read of `table`: `mul` reads the array, and only
    serialization and the table constructors need them.
    """

    __slots__ = ("order", "array", "table", "inverse_map", "identity_index")

    def __init__(self, table):
        import numpy as np

        arr = _square_array(table)
        n = len(arr)
        if self._is_meet_table(arr, n):
            # a semilattice: each element is its own and only inverse
            inverse_map = tuple(range(n))
        else:
            self._check_associativity(arr, n)
            inverse_map = self._derive_inverses(arr, n)
        ar = np.arange(n)
        ident = np.flatnonzero((arr == ar).all(axis=1)
                               & (arr == ar[:, None]).all(axis=0))
        arr.flags.writeable = False
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "inverse_map", inverse_map)
        object.__setattr__(self, "identity_index",
                           int(ident[0]) if len(ident) else None)

    def __getattr__(self, name):
        # called only while the `table` slot is unset: fill it once, so
        # later reads are plain slot reads
        if name != "table":
            raise AttributeError("%r object has no attribute %r"
                                 % (type(self).__name__, name))
        table = self.array.tolist()
        object.__setattr__(self, "table", table)
        return table

    def __setattr__(self, name, value):
        raise AttributeError("CayleyTable is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__; the default restore
        # of the slots would go through the raising __setattr__
        return CayleyTable, (self.array,)

    @staticmethod
    def _is_meet_table(arr, n):
        """Whether the table is the meet of a semilattice.

        Only a commutative table of idempotents can be one.  Let D(a) be
        the set of c with c a = c.  The test is D(a b) = D(a) & D(b) for
        every a and b.  It is exact.  If it holds, set c <= a when
        c in D(a).  That order is reflexive (a a = a) and antisymmetric
        (c a = c and a c = a give c = a by commutativity).  It is
        transitive: if b <= c then b c = b, so D(b) = D(b) & D(c) lies
        in D(c).  Now a b lies in D(a b) = D(a) & D(b), so it is a lower
        bound of a and b, and every lower bound lies in D(a b), that is
        below a b.  So a b is the meet of a and b, the product is
        associative, and the table is a semilattice.  Conversely, in a
        semilattice c <= a b exactly when c <= a and c <= b.

        Each D(a) is a row of bits: by commutativity, c in D(a) says
        a c = c, the test of row a of the table against 0..n-1.  Packed
        into 64-bit words, down[j, a] is word j of D(a).  For a block of
        rows a and every b from the block's first row on, word j of
        D(a b) is one gather of down[j]: at most n^3/64 word operations
        in all, about half that for large n.  The blocks keep each
        gather near 2^14 words.
        """
        import numpy as np

        ar = np.arange(n)
        if not (arr.diagonal() == ar).all() \
                or not np.array_equal(arr, arr.T):
            return False
        bits = np.packbits(arr == ar, axis=1, bitorder="little")
        packed = np.zeros((n, 8 * -(-n // 64)), dtype=np.uint8)
        packed[:, :bits.shape[1]] = bits
        down = np.ascontiguousarray(packed.view(np.uint64).T)
        rows = max(1, (1 << 14) // n)
        for a in range(0, n, rows):
            # by commutativity, b >= a is enough; one index conversion
            # serves every word
            products = arr[a:a + rows, a:].astype(np.intp)
            for col in down:
                if not np.array_equal(col[products],
                                      col[a:a + rows, None] & col[a:]):
                    return False
        return True

    @staticmethod
    def _check_associativity(arr, n):
        import numpy as np

        # Light's test: the a with (x a) y = x (a y) for all x, y are
        # closed under the product even when the table is not
        # associative, so it is enough to test a generating set.  Both
        # sides are gathers of whole rows: i (g k) is row g k of the
        # transpose, read back transposed.  The narrow dtype matters: at
        # orders 256 and 514 the test ran 3 to 5 times faster on uint16
        # than on int32.  The generators go in blocks, as the rows do in
        # `_is_meet_table`, each block's gathers near 2^16 entries and
        # laid out [j, i, k] for its generator j: the first mismatch is
        # the first failing generator's first (i, k), as one generator
        # at a time would find it.
        at = np.ascontiguousarray(arr.T)
        gens = _generating_set(arr, n)
        block = max(1, (1 << 16) // (n * n))
        for start in range(0, len(gens), block):
            g = gens[start:start + block]
            # np.take gathers the rows about a sixth faster than indexing
            left = np.take(arr, arr[:, g].T, axis=0)  # (i g) k
            right = np.take(at, arr[g], axis=0).transpose(0, 2, 1)  # i (g k)
            if not np.array_equal(left, right):
                j, i, k = (int(v) for v in np.argwhere(left != right)[0])
                g = int(g[j])
                raise ValueError(
                    "not associative at (%d, %d, %d): (%d*%d)*%d != %d*(%d*%d)"
                    % (i, g, k, i, g, k, i, g, k)
                )

    @staticmethod
    def _derive_inverses(arr, n):
        import numpy as np

        # q[x, y] = (x y) x; ok[x, y]: x y x = x and y x y = y
        ar = np.arange(n)
        q = arr[arr, ar[:, None]]
        ok = (q == ar[:, None]) & (q.T == ar)
        counts = ok.sum(axis=1)
        bad = np.flatnonzero(counts != 1)
        if len(bad):
            x = int(bad[0])
            raise ValueError("element %d has %d inverses, expected exactly 1"
                             % (x, counts[x]))
        return tuple(ok.argmax(axis=1).tolist())

    # -- arithmetic --------------------------------------------------------

    def mul(self, x, y):
        return self.array.item(x, y)

    def inv(self, x):
        return self.inverse_map[x]

    # the rest of a codec (pbij), so that a ct system's kernel is its table
    product = mul
    undefined = None
    encode = decode = right = staticmethod(lambda x: x)

    def is_idempotent(self, x):
        return self.array.item(x, x) == x

    def idempotents(self):
        return [x for x in range(self.order) if self.is_idempotent(x)]

    def __eq__(self, other):
        import numpy as np

        return (isinstance(other, CayleyTable)
                and np.array_equal(self.array, other.array))

    def __hash__(self):
        return hash(self.array.tobytes())

    def __repr__(self):
        return "CayleyTable(order=%d)" % self.order


def _square_array(table):
    """The entries of `table` as a new n x n array of the smallest
    unsigned type that holds n - 1, after checking that there are n rows
    of n integers in 0..n-1."""
    import numpy as np

    n = len(table)
    if n < 1:
        raise ValueError("empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError("row %d has length %d, expected %d"
                             % (i, len(row), n))
    arr = np.asarray(table)
    if arr.dtype.kind not in "iu" or arr.shape != (n, n):
        # numpy gives integers beyond int64 a float or object dtype
        for row in table:
            for v in row:
                if isinstance(v, (bool, np.bool_)) \
                        or not isinstance(v, Integral):
                    raise ValueError("entry %r is not an integer" % (v,))
        raise ValueError("entry out of range")
    outside = (arr < 0) | (arr >= n)
    if outside.any():
        raise ValueError("entry %d out of range" % arr[outside][0])
    return arr.astype(np.min_scalar_type(n - 1))


def _generating_set(arr, n):
    """Generators of the table as an index array in increasing order:
    each x outside <0..x-1>, where <X> is the closure of X under the
    product (the table need not be associative).

    Let T(y) be the least t with y in <0..t>; the generators are the x
    with T(x) = x.  T is the limit of T_0(y) = y and the rounds of
    `_relax`, T_r+1(y) = min(T_r(y), max(T_r(a), T_r(b)) over a b = y).
    Each T_r >= T, since every <0..t> is closed under the product.  The
    limit L has L(a b) <= max(L(a), L(b)) and L(y) <= y, so the y with
    L(y) <= t are closed and hold 0..t: L <= T, and so L = T.

    T_r(y) is the least, over product trees of depth at most r with
    value y, of their largest leaf.  On an associative table, y in
    <0..t> is the value of a word over 0..t; a shortest one has at most
    n letters, since its prefixes take distinct values, and a balanced
    bracketing of it has depth ceil(log2 n).  So T settles within
    R = ceil(log2 n) rounds, and if round R + 1 still lowers T the table
    is not associative: the relaxation stops there.  Whatever round it
    stops at, T_r(x) <= x and T_r >= T, so the x with T_r(x) = x include
    every generator and still generate the table.  Light's test over
    them stays exact and, on that table, fails at a real triple.
    """
    import numpy as np

    least = np.arange(n, dtype=arr.dtype)
    products = arr.ravel().astype(np.intp)
    for _ in range((n - 1).bit_length() + 1):
        if not _relax(least, products):
            break
    return np.flatnonzero(least == np.arange(n))


def _relax(least, products):
    """One round of the relaxation in `_generating_set`, in place: each
    T(y) lowered to the least max(T(a), T(b)) over the products a b = y,
    with `products` the table's entries in row-major order.  The bounds
    all come from T before the round.  Returns whether any T(y) fell;
    only the pairs that lower it reach the scatter."""
    import numpy as np

    bound = np.maximum.outer(least, least).ravel()
    lower = np.flatnonzero(bound < least[products])
    np.minimum.at(least, products[lower], bound[lower])
    return len(lower) > 0


def preston_wagner(S):
    """Embed a CayleyTable into I(S): s maps to the partial bijection
    rho_s with t^(rho_s) = ts whenever t s s~ = t.
    """
    n = S.order
    result = []
    for s in range(n):
        e = S.mul(s, S.inv(s))
        images = [None] * n
        for t in range(n):
            if S.mul(t, e) == t:
                images[t] = S.mul(t, s)
        result.append(PartialBijection(n, images))
    return result


def y2_table():
    """The two-element semilattice {1, 0}; index 0 is the identity."""
    return CayleyTable(((0, 1), (1, 1)))


def brandt_table(n, with_identity=False):
    """B(Omega) on n points as a CayleyTable.

    Index 0 is the zero; the singleton map x -> y has index 1 + x*n + y;
    the identity, if adjoined, comes last.

    Returns (table, index) with the same key scheme as pbij.brandt.
    """
    m = 1 + n * n + (1 if with_identity else 0)
    idx = {("zero",): 0}
    table = [[0] * m for _ in range(m)]
    for x in range(n):
        for y in range(n):
            idx[(x, y)] = 1 + x * n + y
            # (x, y)(y, z) = (x, z); every other product is the zero
            for z in range(n):
                table[1 + x * n + y][1 + y * n + z] = 1 + x * n + z
    if with_identity:
        idx[("one",)] = m - 1
        for i in range(m):
            table[i][m - 1] = table[m - 1][i] = i
    return CayleyTable(table), idx


def direct_product_table(A, B):
    """Componentwise product; (a, b) gets index a*|B| + b."""
    nb = B.order
    table = [
        [
            A.table[i // nb][j // nb] * nb + B.table[i % nb][j % nb]
            for j in range(A.order * nb)
        ]
        for i in range(A.order * nb)
    ]
    return CayleyTable(table)
