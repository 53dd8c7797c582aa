"""Cayley tables: validation, inverse derivation, and the embedding
into partial bijections."""

import copy
import itertools
import pickle
import random
import re

import numpy as np
import pytest

from invsem import cayley
from invsem.pbij import compose
from invsem.cayley import (CayleyTable, preston_wagner, y2_table,
                           brandt_table, direct_product_table)
from invsem.gensys import GeneratorSystem
from invsem.oracle import close

from helpers import sample_systems
from reference import (from_closure, generating_set_by_closure,
                       inverse_candidates, light_test_by_generator)


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


def _brandt_over(group, k):
    """The rows of B(G, k) for the group table `group` on k points: 0
    is the zero and 1 + (i k + j) |G| + g is (i, g, j), with
    (i, g, j)(j, h, l) = (i, g h, l)."""
    m = len(group)
    n = 1 + k * k * m
    t = [[0] * n for _ in range(n)]
    for i, j, l in itertools.product(range(k), repeat=3):
        for g in range(m):
            for h in range(m):
                t[1 + (i * k + j) * m + g][1 + (j * k + l) * m + h] = \
                    1 + (i * k + l) * m + group[g][h]
    return t


def _symmetric(k):
    """The rows of S_k on its permutations in lexicographic order."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(q[x] for x in p)] for q in perms] for p in perms]


def _cyclic(m):
    return [[(a + b) % m for b in range(m)] for a in range(m)]


def _times_y2(rows):
    """rows x Y2, Y2 = {0 neutral, 1 absorbing}; (a, b) -> 2a + b."""
    n = 2 * len(rows)
    return [[2 * rows[a // 2][b // 2] + (a % 2 | b % 2) for b in range(n)]
            for a in range(n)]


def _differential_tables(rng):
    """Random magmas and random commutative magmas of order 1-12, then
    relabelled Brandt, B(n) x Y2, chain, S_n and B(G, k) tables, every
    other copy with one entry changed."""
    for _ in range(900):
        n = rng.randrange(1, 13)
        yield [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    for _ in range(400):
        n = rng.randrange(1, 13)
        t = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                t[a][b] = t[b][a] = rng.randrange(n)
        yield t
    bases = ([_brandt_over([[0]], k) for k in range(1, 6)]
             + [_times_y2(_brandt_over([[0]], k)) for k in range(1, 5)]
             + [[[min(a, b) for b in range(n)] for a in range(n)]
                for n in (1, 2, 5, 17, 40)]
             + [_symmetric(k) for k in range(1, 5)]
             + [_brandt_over(group, k)
                for group in (_cyclic(2), _cyclic(3), _symmetric(3))
                for k in (1, 2, 3)])
    for base in bases:
        n = len(base)
        for copy_ in range(40):
            t = _relabelled(lambda x, y: base[x][y], n, rng)[0]
            if copy_ % 2 and n > 1:
                i, j = rng.randrange(n), rng.randrange(n)
                t[i][j] = (t[i][j] + rng.randrange(1, n)) % n
            yield t


def _outcome(t):
    """What CayleyTable makes of t: its inverse map and identity, or the
    message it rejects t with."""
    try:
        S = CayleyTable(t)
    except ValueError as exc:
        return str(exc)
    return S.inverse_map, S.identity_index


def _counted_rounds(monkeypatch):
    """The relaxation's rounds from here on, each True if it lowered
    some T(y)."""
    rounds = []
    relax = cayley._relax

    def counted(least, products):
        rounds.append(relax(least, products))
        return rounds[-1]

    monkeypatch.setattr(cayley, "_relax", counted)
    return rounds


def test_generating_set_and_outcome_match_the_greedy_closure(monkeypatch):
    # the relaxation's generators are the greedy closure's unless the
    # round bound trips.  Then the table is not associative and the
    # generators include the greedy ones; if the lists differ, the
    # rejection still names a failing triple.  On the same list, the
    # outcome is the per-generator Light's test's
    rounds = _counted_rounds(monkeypatch)
    tables = list(_differential_tables(random.Random(39)))
    assert len(tables) >= 2000
    counts = {"accepted": 0, "rejected": 0, "tripped": 0, "differ": 0}
    for t in tables:
        n = len(t)
        arr = np.array(t, dtype=np.min_scalar_type(n - 1))
        del rounds[:]
        gens = cayley._generating_set(arr, n).tolist()
        tripped = len(rounds) == (n - 1).bit_length() + 1 and rounds[-1]
        expected = generating_set_by_closure(arr, n)
        outcome = _outcome(t)
        if isinstance(outcome, str) and outcome.startswith("not assoc"):
            _assert_rejected_at_failing_triple(t)
        if tripped:
            assert set(expected) <= set(gens)
            assert _non_associative_triples(t)
            counts["tripped"] += 1
        if gens != expected:
            assert tripped and outcome.startswith("not associative at")
            counts["differ"] += 1
            continue
        with monkeypatch.context() as m:
            m.setattr(CayleyTable, "_check_associativity",
                      staticmethod(light_test_by_generator))
            assert outcome == _outcome(t)
        counts["rejected" if isinstance(outcome, str) else "accepted"] += 1
    assert counts["accepted"] >= 300 and counts["rejected"] >= 1000
    # the bound trips on random magmas, and a few of those keep an
    # extra generator
    assert counts["tripped"] >= 100 and counts["differ"] >= 1


def _comb(n):
    """k 1 = k + 1 for k < n - 1 and every other product 0: only the
    left comb (((1 1) 1) ... ) 1 reaches k, a tree of depth k - 1, so an
    unbounded relaxation would run n rounds."""
    t = [[0] * n for _ in range(n)]
    for k in range(1, n - 1):
        t[k][1] = k + 1
    return t


def test_relaxation_stops_after_log_n_plus_one_rounds_on_a_comb(
        monkeypatch):
    rounds = _counted_rounds(monkeypatch)
    for n in (300, 600):
        del rounds[:]
        with pytest.raises(ValueError, match=r"^not associative at "
                           r"\(1, 1, 1\): \(1\*1\)\*1 != 1\*\(1\*1\)$"):
            CayleyTable(_comb(n))
        # every round lowers T, and the bound ends the relaxation
        assert rounds == [True] * ((n - 1).bit_length() + 1)


def test_cyclic_group_settles_in_exactly_log_n_rounds(monkeypatch):
    # Z_n with its generator 1 at index 0: n 1 = 0 is a word of n
    # letters over index 0 alone, so T(0) reaches 0 at round
    # ceil(log2 n) and not before; the bound is tight and never trips
    # on an associative table
    rounds = _counted_rounds(monkeypatch)
    rng = random.Random(40)
    for n in (2, 3, 5, 64, 65, 100, 300):
        # idx[x] is the index of the residue x; the generator 1 gets 0
        rest = list(range(1, n))
        rng.shuffle(rest)
        idx = [rest[0]] + [0] + rest[1:]
        t = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                t[idx[a]][idx[b]] = idx[(a + b) % n]
        del rounds[:]
        S = CayleyTable(t)
        assert S.identity_index == idx[0]
        assert rounds == [True] * (n - 1).bit_length() + [False]


def _null_with_failures(n, plants):
    """The null semigroup of order n (every product 0) with, for each
    (i, g, k, c, e), i g = c and c k = e: then (i g) k = e but
    i (g k) = i 0 = 0.  Each c and e lies below a factor of its
    product, so every element stays a generator."""
    t = [[0] * n for _ in range(n)]
    for i, g, k, c, e in plants:
        t[i][g] = c
        t[c][k] = e
    return t


def test_blocked_light_test_names_the_per_generator_triple():
    # order 60: blocks of 18 generators.  Generators 23 and 30 share
    # the block 18..35 and both fail, 30 at an (i, k) that comes first
    # in row-major order; the message names 23, as one generator at a
    # time finds it
    t = _null_with_failures(60, [(40, 23, 50, 10, 5), (2, 30, 3, 11, 7)])
    arr = np.array(t, dtype=np.uint8)
    assert cayley._generating_set(arr, 60).tolist() == list(range(60))
    message = r"^not associative at \(40, 23, 50\): "
    with pytest.raises(ValueError, match=message):
        CayleyTable(t)
    with pytest.raises(ValueError, match=message):
        light_test_by_generator(arr, 60)
    # random plants at orders with one block, several and single
    # generators per block: the same message as the per-generator loop
    rng = random.Random(41)
    for n in (12, 20, 60, 101, 260):
        for _ in range(20):
            plants = []
            for _ in range(rng.randrange(1, 5)):
                i, g, k = (rng.randrange(2, n) for _ in range(3))
                c = rng.randrange(1, max(i, g))
                plants.append((i, g, k, c, rng.randrange(1, max(c, k))))
            t = _null_with_failures(n, plants)
            arr = np.array(t, dtype=np.min_scalar_type(n - 1))
            with pytest.raises(ValueError) as expected:
                light_test_by_generator(arr, n)
            with pytest.raises(ValueError) as found:
                CayleyTable._check_associativity(arr, n)
            assert str(found.value) == str(expected.value)


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
