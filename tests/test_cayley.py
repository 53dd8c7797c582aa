"""Cayley tables: validation, inverse derivation, and the embedding
into partial bijections."""

import copy
import itertools
import pickle
import random
import re

import numpy as np
import pytest

from invsem.pbij import compose
from invsem.cayley import (CayleyTable, preston_wagner, y2_table,
                           brandt_table, direct_product_table)
from invsem.gensys import GeneratorSystem
from invsem.oracle import close

from helpers import sample_systems
from reference import from_closure, inverse_candidates


def test_rejects_non_associative_with_triple():
    with pytest.raises(ValueError, match="not associative at"):
        CayleyTable(((0, 1), (0, 0)))


def test_rejects_single_non_associative_triple_at_order_300():
    # a null semigroup (every product 0) with t[5][6] = 7 and
    # t[7][8] = 9: (5*6)*8 = 9 but 5*(6*8) = 0, and every other triple
    # associates, so a sampled check almost surely misses it
    n = 300
    t = [[0] * n for _ in range(n)]
    t[5][6] = 7
    t[7][8] = 9
    with pytest.raises(ValueError, match=r"not associative at \(5, 6, 8\)"):
        CayleyTable(t)


def _non_associative_triples(t):
    """The n^3 reference: every triple (i, j, k) with (i j) k != i (j k)."""
    n = len(t)
    return {(i, j, k) for i in range(n) for j in range(n) for k in range(n)
            if t[t[i][j]][k] != t[i][t[j][k]]}


def _small_tables():
    yield y2_table().table
    for n in (1, 2, 3):
        yield brandt_table(n)[0].table
    yield brandt_table(2, with_identity=True)[0].table
    yield direct_product_table(y2_table(), brandt_table(2)[0]).table
    rng = random.Random(5)
    for gs, _ in sample_systems(rng, 1, degrees=(2, 3), closure_cap=40):
        yield from_closure(list(close(gs).elements), gs.mul)[0].table


def _perturbed_tables(rng, per_table):
    """per_table copies of each small table of order > 1, each with one
    entry changed at random."""
    for base in _small_tables():
        n = len(base)
        for _ in range(per_table if n > 1 else 0):
            t = [list(row) for row in base]
            i, j = rng.randrange(n), rng.randrange(n)
            t[i][j] = (t[i][j] + rng.randrange(1, n)) % n
            yield t


def test_light_test_agrees_with_brute_force_on_perturbed_tables():
    rejected = accepted = 0
    for t in _perturbed_tables(random.Random(11), 6):
        bad = _non_associative_triples(t)
        try:
            CayleyTable(t)
            found = None
        except ValueError as exc:
            # a table may also fail the inverse check after this one
            found = re.match(r"not associative at \((\d+), (\d+), (\d+)\)",
                             str(exc))
        if found:
            assert tuple(int(v) for v in found.groups()) in bad
            rejected += 1
        else:
            assert not bad, "missed non-associative %r" % (min(bad),)
            accepted += 1
    # the perturbations exercise both outcomes
    assert rejected >= 10 and accepted >= 10


def _commutative_idempotent_tables(n):
    """Every n x n table with x x = x and x y = y x."""
    pairs = list(itertools.combinations(range(n), 2))
    for values in itertools.product(range(n), repeat=len(pairs)):
        t = [[x if x == y else None for y in range(n)] for x in range(n)]
        for (x, y), v in zip(pairs, values):
            t[x][y] = t[y][x] = v
        yield t


def _assert_rejected_at_failing_triple(t):
    with pytest.raises(ValueError, match="not associative at") as exc:
        CayleyTable(t)
    i, g, k = (int(v) for v in re.match(
        r"not associative at \((\d+), (\d+), (\d+)\)",
        str(exc.value)).groups())
    assert t[t[i][g]][k] != t[i][t[g][k]]


def test_meet_test_agrees_with_brute_force_on_small_tables():
    # every commutative idempotent table of order <= 4: the meet test
    # holds exactly on the associative ones, which are accepted as
    # semilattices; the others are rejected at a failing triple
    counts = [0, 0]
    for n in range(1, 5):
        for t in _commutative_idempotent_tables(n):
            associative = not _non_associative_triples(t)
            assert CayleyTable._is_meet_table(
                np.array(t, dtype=np.uint8), n) == associative
            if associative:
                S = CayleyTable(t)
                assert S.inverse_map == tuple(range(n))
            else:
                _assert_rejected_at_failing_triple(t)
            counts[associative] += 1
    assert counts == [4038, 88]


def _relabelled(meet, n, rng):
    """The table of `meet` on 0..n-1 under a random relabelling p, and
    p as a list: p[x] p[y] = p[meet(x, y)]."""
    p = list(range(n))
    rng.shuffle(p)
    t = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            t[p[x]][p[y]] = p[meet(x, y)]
    return t, p


def test_semilattices_across_packed_word_boundaries():
    # chains (min) and the lower sets 0..n-1 of a Boolean lattice
    # (bitwise and) at orders around 64 and 128, relabelled
    rng = random.Random(25)
    for n in (63, 64, 65, 128, 129):
        for meet, top in ((min, n - 1),
                          (lambda x, y: x & y,
                           n - 1 if n & (n - 1) == 0 else None)):
            t, p = _relabelled(meet, n, rng)
            assert CayleyTable._is_meet_table(np.array(t), n)
            S = CayleyTable(t)
            assert S.inverse_map == tuple(range(n))
            assert S.identity_index == (None if top is None else p[top])
            # x < y < z with x z = z: (x y) z = z but x (y z) = x
            if meet is min:
                x, y, z = sorted(rng.sample(range(n), 3))
            else:
                z = rng.choice([v for v in range(n) if bin(v).count("1") > 1])
                y = z & ~(1 << rng.choice(
                    [b for b in range(8) if z >> b & 1]))
                x = y & ~(1 << rng.choice(
                    [b for b in range(8) if y >> b & 1]))
            assert meet(x, y) == x and meet(y, z) == y and meet(x, z) == x
            t[p[x]][p[z]] = t[p[z]][p[x]] = p[z]
            _assert_rejected_at_failing_triple(t)


def _passes_light_test(t):
    try:
        CayleyTable._check_associativity(np.array(t), len(t))
    except ValueError:
        return False
    return True


def test_derive_inverses_matches_python_reference():
    # the small tables, their perturbations that pass Light's test
    # whatever their inverses, and B(12) x Y2
    tables = list(_small_tables()) + [
        t for t in _perturbed_tables(random.Random(12), 12)
        if _passes_light_test(t)]
    tables.append(
        direct_product_table(brandt_table(12)[0], y2_table()).table)
    unique = failed = 0
    for t in tables:
        n = len(t)
        found = inverse_candidates(t)
        bad = [x for x in range(n) if len(found[x]) != 1]
        arr = np.array(t, dtype=np.min_scalar_type(n - 1))
        if bad:
            x = bad[0]
            with pytest.raises(ValueError) as exc:
                CayleyTable._derive_inverses(arr, n)
            assert str(exc.value) == (
                "element %d has %d inverses, expected exactly 1"
                % (x, len(found[x])))
            failed += 1
        else:
            assert CayleyTable._derive_inverses(arr, n) \
                == tuple(f[0] for f in found)
            unique += 1
    # both outcomes, perturbations among the unique ones
    assert unique >= 15 and failed >= 15


def test_rejects_bad_inverses():
    # left-zero band: every element is idempotent but inverses are not
    # unique
    with pytest.raises(ValueError, match="^element 0 has 2 inverses, "
                       "expected exactly 1$"):
        CayleyTable(((0, 0), (1, 1)))
    # each passes the meet test on the rows but for one of its
    # preconditions: the right-zero band is not commutative, the null
    # semigroup is not idempotent
    with pytest.raises(ValueError, match="^element 0 has 2 inverses, "
                       "expected exactly 1$"):
        CayleyTable(((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="^element 1 has 0 inverses, "
                       "expected exactly 1$"):
        CayleyTable(((0, 0), (0, 0)))


def test_rejects_ragged_and_out_of_range():
    with pytest.raises(ValueError):
        CayleyTable(((0,), (1, 1)))
    with pytest.raises(ValueError):
        CayleyTable(((0, 2), (1, 0)))


def test_rejects_non_integer_entries():
    for rows in (((0, 1.5), (1, 1)), (("0", "1"), ("1", "1")),
                 ((0, None), (1, 1)), ((True, False), (False, False)),
                 ((0, 1.0), (1, 1)), (((0,), (1,)), ((1,), (1,)))):
        with pytest.raises(ValueError, match="not an integer"):
            CayleyTable(rows)
    for arr in (np.array([[0.0, 1.0], [1.0, 1.0]]),
                np.array([[True, False], [False, False]])):
        with pytest.raises(ValueError, match="not an integer"):
            CayleyTable(arr)
    with pytest.raises(ValueError, match="out of range"):
        CayleyTable(((0, 2 ** 70), (1, 1)))
    with pytest.raises(ValueError, match="out of range"):
        CayleyTable(((0, 2 ** 64 - 1), (1, 1)))


def test_input_forms_agree():
    for ref in (y2_table(), brandt_table(3)[0],
                brandt_table(2, with_identity=True)[0]):
        rows = ref.table
        forms = [tuple(tuple(r) for r in rows), [list(r) for r in rows],
                 np.array(rows), np.array(rows, dtype=np.uint8),
                 [np.array(r, dtype=np.int16) for r in rows]]
        for form in forms:
            S = CayleyTable(form)
            assert S.table == rows
            assert all(type(v) is int for row in S.table for v in row)
            assert S.inverse_map == ref.inverse_map
            assert S.identity_index == ref.identity_index
            assert S == ref and hash(S) == hash(ref)
    # the table keeps its own copy of an ndarray input
    arr = np.array(y2_table().table)
    S = CayleyTable(arr)
    arr[0, 0] = 1
    assert S.mul(0, 0) == 0
    with pytest.raises(ValueError):
        S.array[0, 0] = 1


def test_large_table_matches_python_reference():
    # B(12) x Y2, order 290: the inverse of x is the y with x y x = x
    # and y x y = y, found by an n^2 scan of the rows
    S = direct_product_table(brandt_table(12)[0], y2_table())
    t = S.table
    n = S.order
    assert n >= 290
    inverse = []
    for found in inverse_candidates(t):
        assert len(found) == 1
        inverse.append(found[0])
    identity = [e for e in range(n)
                if t[e] == list(range(n))
                and all(t[x][e] == x for x in range(n))]
    assert S.inverse_map == tuple(inverse)
    assert S.identity_index == (identity[0] if identity else None)
    assert S.array.tolist() == t


def test_y2_is_two_element_semilattice():
    S = y2_table()
    assert S.order == 2
    assert S.identity_index == 0
    assert S.idempotents() == [0, 1]
    assert S.mul(1, 1) == 1 and S.mul(0, 1) == 1


def test_copy_and_pickle_give_an_equal_table():
    for S in (y2_table(), brandt_table(2, with_identity=True)[0],
              brandt_table(3)[0]):
        for T in (copy.copy(S), copy.deepcopy(S),
                  pickle.loads(pickle.dumps(S))):
            assert type(T) is CayleyTable and T == S
            assert T.array.dtype == S.array.dtype
            assert np.array_equal(T.array, S.array)
            assert T.inverse_map == S.inverse_map
            assert T.identity_index == S.identity_index
            assert T.table == S.table


def test_brandt_table_matches_pb_model():
    from invsem.pbij import brandt
    for n in (1, 2, 3):
        table, idx = brandt_table(n)
        maps, midx = brandt(n)
        assert set(idx) == set(midx)
        key_of = {maps[midx[k]]: k for k in midx}
        for a in idx:
            for b in idx:
                prod = compose(maps[midx[a]], maps[midx[b]])
                assert table.mul(idx[a], idx[b]) == idx[key_of[prod]]


def test_direct_product_table_componentwise():
    A = y2_table()
    B, _ = brandt_table(2)
    P = direct_product_table(A, B)
    nb = B.order
    for i in range(P.order):
        for j in range(P.order):
            v = P.mul(i, j)
            assert v // nb == A.mul(i // nb, j // nb)
            assert v % nb == B.mul(i % nb, j % nb)


def _pw_check(S):
    maps = preston_wagner(S)
    assert len(set(maps)) == S.order, "embedding not injective"
    for i in range(S.order):
        for j in range(S.order):
            assert compose(maps[i], maps[j]) == maps[S.mul(i, j)], \
                "embedding not multiplicative"


def test_preston_wagner_on_standard_tables():
    _pw_check(y2_table())
    for n in (1, 2, 3, 4):
        _pw_check(brandt_table(n)[0])
    _pw_check(brandt_table(2, with_identity=True)[0])
    _pw_check(direct_product_table(y2_table(), brandt_table(2)[0]))


def test_from_closure_round_trip():
    rng = random.Random(3)
    for gs, _ in sample_systems(rng, 3, degrees=(2, 4), closure_cap=60):
        elements = list(close(gs).elements)
        table, index = from_closure(elements, gs.mul)
        assert table.order == len(elements)
        for x in elements:
            for y in elements:
                assert table.mul(index[x], index[y]) == index[gs.mul(x, y)]
            assert elements[table.inv(index[x])] == gs.inv(x)
