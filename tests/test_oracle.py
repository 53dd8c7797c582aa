"""Brute-force closure oracle and the relative Green relations."""

import random
from math import comb, factorial

import pytest

from invsem.classify import classify_generated
from invsem.pbij import BytesCodec, PartialBijection, TupleCodec
from invsem.gensys import GeneratorSystem
from invsem.oracle import (ClosureCapExceeded, close, naive_member,
                           naive_conjugate, naive_green, naive_green_leq)

from helpers import (counting_system, dispatched_as_the_oracle, rand_pb,
                     sample_systems, top_points_system)
from reference import close_bfs, eval_word, from_closure, green_leq_by_ideals


def test_close_idempotent():
    rng = random.Random(0)
    for gs, _ in sample_systems(rng, 4, degrees=(2, 5), closure_cap=300):
        elements = list(close(gs).elements)
        regs = GeneratorSystem(elements, degree=gs.degree)
        assert set(close(regs).elements) == set(elements)


def _check_right_graph(gs):
    cl = close(gs)
    assert len(cl.right) == len(cl.elements)
    for j, x in enumerate(cl.elements):
        assert len(cl.right[j]) == len(gs.generators)
        for i, g in enumerate(gs.generators):
            assert cl.right[j][i] == cl.index[cl.codec.encode(gs.mul(x, g))]


def test_closure_records_right_cayley_graph():
    # right[j][i] is the index of elements[j] * generators[i], on pb
    # systems, on ct systems and on systems given by a closed list
    rng = random.Random(7)
    for gs, _ in sample_systems(rng, 3, degrees=(2, 4), closure_cap=60):
        _check_right_graph(gs)
        elements = list(close(gs).elements)
        _check_right_graph(GeneratorSystem(elements, degree=gs.degree))
        table, _ = from_closure(elements, gs.mul)
        for _ in range(3):
            sigma = rng.sample(range(table.order),
                               rng.randrange(1, min(table.order, 3) + 1))
            _check_right_graph(GeneratorSystem(sigma, table=table))


def test_closure_words_evaluate():
    rng = random.Random(1)
    for gs, _ in sample_systems(rng, 4, degrees=(2, 5), closure_cap=300):
        cl = close(gs)
        for x in cl.elements:
            assert eval_word(gs, cl.word_for(x)) == x


def test_closure_words_are_the_first_breadth_first_words():
    # the word of each element is the first found by a breadth-first
    # search with generators in list order, so the shortlex-least one
    rng = random.Random(11)
    for gs, _ in sample_systems(rng, 4, degrees=(2, 5), closure_cap=300):
        words = {g: (i,) for i, g in enumerate(gs.generators)}
        queue = list(gs.generators)
        for x in queue:
            for i, g in enumerate(gs.generators):
                y = gs.mul(x, g)
                if y not in words:
                    words[y] = words[x] + (i,)
                    queue.append(y)
        cl = close(gs)
        assert queue == cl.elements
        assert [cl.word_for(x) for x in queue] == [words[x] for x in queue]


def _assert_close_matches_reference(gs):
    elements, witness, right = close_bfs(gs)
    cl = close(gs)
    assert cl.elements == elements
    assert all(type(x) is type(y) for x, y in zip(cl.elements, elements))
    assert cl.product_witness == witness
    assert cl.right == right
    for i, x in enumerate(elements):
        word = []
        while witness[i] is not None:
            i, g = witness[i]
            word.append(g)
        assert cl.word_for(x) == (i,) + tuple(reversed(word))
    return cl


def test_close_matches_reference_bfs():
    # the kernel gs.codec (bytes codes up to degree 255, tuple codes
    # above, and the table itself on Cayley tables) enumerates, records
    # and answers exactly as a breadth-first search over gs.mul
    rng = random.Random(19)
    for gs, _ in sample_systems(rng, 4, degrees=(2, 6), closure_cap=400):
        assert _assert_close_matches_reference(gs).codec is BytesCodec
        table, _ = from_closure(close(gs).elements, gs.mul)
        sigma = rng.sample(range(table.order), min(table.order, 2))
        ct_gs = GeneratorSystem(sigma, table=table)
        assert _assert_close_matches_reference(ct_gs).codec is table
    for n in (254, 255, 256, 257):
        gs = top_points_system(n)
        cl = _assert_close_matches_reference(gs)
        assert cl.codec is gs.codec
        assert isinstance(cl.codec, TupleCodec) == (n > 255)
        assert len(cl) > 20
        for x in cl.elements:
            assert x in cl
        # every element fixes or leaves undefined the points 2..n-3
        assert PartialBijection(n, [None, None, 3] + [None] * (n - 3)) \
            not in cl
        assert PartialBijection(n + 1, range(n + 1)) not in cl
        # images past 255 have no bytes code
        assert PartialBijection(2 * n, range(2 * n)) not in cl


def _kernel_answers(gens, n, pairs):
    """What a fresh system on gens answers through its element kernel:
    the kernel, the closure order and words, the variety, and the
    conjugacy and Green answers on pairs."""
    gs = GeneratorSystem(gens, degree=n)
    cl = close(gs)
    tag = classify_generated(gs)
    kernel = "bytes" if gs.codec is BytesCodec else type(gs.codec).__name__
    return (kernel, cl.codec is gs.codec, cl.elements,
            [cl.word_for(x) for x in cl.elements], tag, tag.idempotents,
            [dispatched_as_the_oracle(gs, s, t) for s, t in pairs],
            [naive_conjugate(gs, s, t) for s, t in pairs],
            [naive_green_leq(gs, s, t, r) for s, t in pairs[:4]
             for r in "RLJ"])


def test_element_kernel_matches_bytes_kernel(monkeypatch):
    # these pb systems have degree <= 6, so gs.codec is BytesCodec; with
    # max_degree below every degree the same generators, in a system
    # built then, run on tuple codes, and every scan must answer alike
    rng = random.Random(24)
    for gs, _ in sample_systems(rng, 3, degrees=(2, 6), closure_cap=150):
        elements = close(gs).elements
        picked = rng.sample(elements, min(len(elements), 4))
        pairs = [(s, t) for s in picked for t in picked]
        pairs += [(s, gs.mul(gs.mul(gs.inv(u), s), u))
                  for s, u in zip(picked, reversed(picked))]
        pairs += [(rand_pb(rng, gs.degree), rand_pb(rng, gs.degree))]
        by_codes = _kernel_answers(gs.generators, gs.degree, pairs)
        assert by_codes[:2] == ("bytes", True)
        assert any(ok for ok, _ in by_codes[6])
        with monkeypatch.context() as m:
            m.setattr(BytesCodec, "max_degree", -1)
            # the kernel is fixed when a system is built
            assert gs.codec is BytesCodec
            by_tuples = _kernel_answers(gs.generators, gs.degree, pairs)
        assert by_tuples[:2] == ("TupleCodec", True)
        assert by_tuples[2:] == by_codes[2:]
    for n in (1, 6, 254, 255, 256, 257):
        gs = top_points_system(n) if n > 6 else GeneratorSystem(
            [PartialBijection(n, range(n))], degree=n)
        assert gs.codec is BytesCodec if n <= 255 else (
            isinstance(gs.codec, TupleCodec) and gs.codec.undefined == n)
    pb = top_points_system(6)
    ct = GeneratorSystem([0, 1], table=from_closure(close(pb).elements,
                                                    pb.mul)[0])
    assert ct.codec is ct.table


def test_member_witness_evaluates():
    rng = random.Random(2)
    for gs, _ in sample_systems(rng, 4, degrees=(2, 5), closure_cap=300):
        for _ in range(10):
            t = rand_pb(rng, gs.degree)
            ok, word = naive_member(gs, t)
            if ok:
                assert eval_word(gs, word) == t
            else:
                assert word is None
                assert t not in set(close(gs).elements)


def test_conjugator_satisfies_both_equations():
    rng = random.Random(3)
    for gs, _ in sample_systems(rng, 4, degrees=(2, 5), closure_cap=300):
        elements = list(close(gs).elements)
        for _ in range(10):
            s = rng.choice(elements)
            t = rng.choice(elements)
            ok, u = naive_conjugate(gs, s, t)
            if ok:
                ub = gs.inv(u)
                assert gs.mul(gs.mul(ub, s), u) == t
                assert gs.mul(gs.mul(u, t), ub) == s


def test_closure_cap_raises():
    gs = GeneratorSystem(
        [PartialBijection(5, (1, 2, 3, 4, 0)),
         PartialBijection(5, (1, 0, 2, 3, 4))], degree=5)
    with pytest.raises(ClosureCapExceeded):
        close(gs, cap=10)


def test_green_degeneracy_on_closures():
    # if s and t are absolutely X-related then the relative pre-orders
    # in either direction agree
    rng = random.Random(4)
    for gs, _ in sample_systems(rng, 3, degrees=(2, 5), closure_cap=200):
        elements = list(close(gs).elements)
        if len(elements) > 40:
            elements = elements[:40]
        for rel in ("R", "L", "J"):
            for s in elements:
                for t in elements:
                    if rel == "R":
                        absolute = s.domain() == t.domain()
                    elif rel == "L":
                        absolute = s.ran() == t.ran()
                    else:
                        absolute = len(s.domain()) == len(t.domain())
                    if not absolute:
                        continue
                    assert (naive_green_leq(gs, s, t, rel)
                            == naive_green_leq(gs, t, s, rel))


def test_idempotent_conjugacy_is_j_equivalence():
    rng = random.Random(5)
    for gs, _ in sample_systems(rng, 4, degrees=(2, 5), closure_cap=200):
        idems = [x for x in close(gs).elements if gs.is_idempotent(x)]
        for e in idems:
            for f in idems:
                conj, _ = naive_conjugate(gs, e, f)
                assert conj == naive_green(gs, e, f, "J")


def test_green_h_is_r_and_l():
    rng = random.Random(6)
    for gs, _ in sample_systems(rng, 2, degrees=(2, 4), closure_cap=100):
        elements = list(close(gs).elements)[:15]
        for s in elements:
            for t in elements:
                assert naive_green(gs, s, t, "H") == (
                    naive_green(gs, s, t, "R")
                    and naive_green(gs, s, t, "L"))


def test_green_h_leq_is_r_leq_and_l_leq():
    rng = random.Random(6)
    for gs, _ in sample_systems(rng, 2, degrees=(2, 4), closure_cap=100):
        elements = list(close(gs).elements)[:15]
        for s in elements:
            for t in elements:
                assert naive_green_leq(gs, s, t, "H") == (
                    naive_green_leq(gs, s, t, "R")
                    and naive_green_leq(gs, s, t, "L"))


def test_unknown_relation_rejected():
    gs = GeneratorSystem([PartialBijection(2, (1, 0))], degree=2)
    with pytest.raises(ValueError):
        naive_green(gs, gs.generators[0], gs.generators[0], "X")


# -- Green's pre-orders: the search from t against the closure scans -------


def _refused_or(decide, *args):
    try:
        return decide(*args)
    except ClosureCapExceeded:
        return None


def _green_against_the_scans(gs, pairs, cap, expected):
    """naive_green_leq both ways and naive_green on every relation of
    each pair, at a cap that U fits, against the closure scans of
    `reference.green_leq_by_ideals`, which `expected` memoizes by
    (s, t, relation).  Returns the counts of answers compared and of
    refusals; each refusal is J or D from outside U."""
    members = close(gs, cap)
    compared = refused = 0
    for s, t in pairs:
        for rel in "RLJHD":
            for a, b in ((s, t), (t, s)):
                if (a, b, rel) not in expected:
                    expected[a, b, rel] = green_leq_by_ideals(gs, a, b, rel,
                                                              cap)
                got = _refused_or(naive_green_leq, gs, a, b, rel, cap)
                if got is None:
                    assert rel in "JD" and b not in members, (a, b, rel)
                    refused += 1
                else:
                    assert got == expected[a, b, rel], (a, b, rel)
                    compared += 1
            got = _refused_or(naive_green, gs, s, t, rel, cap)
            if got is None:
                assert rel in "JD" and not (s in members and t in members)
                refused += 1
            else:
                assert got == (expected[s, t, rel]
                               and expected[t, s, rel]), (s, t, rel)
                compared += 1
    return compared, refused


def _pairs(rng, inside, outside):
    """Pairs (s, t) with s and t inside U, either one outside, and both
    outside."""
    return [(rng.choice(inside), rng.choice(inside)),
            (rng.choice(inside), rng.choice(outside)),
            (rng.choice(outside), rng.choice(inside)),
            (rng.choice(outside), rng.choice(outside))]


def test_green_search_matches_the_closure_scans(monkeypatch):
    # 2000 random pb systems of degree 1-5, each at a cap that U fits:
    # the search from t answers as the closure scans on every relation,
    # on bytes codes and on tuple codes, and refuses only J and D from
    # outside U, where U^1 t U^1 passes cap + 1 while U fits the cap
    rng = random.Random(38)
    cases = []
    while len(cases) < 2000:
        n = rng.randrange(1, 6)
        gens = [rand_pb(rng, n) for _ in range(rng.randrange(1, 4))]
        gs = GeneratorSystem(gens, degree=n)
        try:
            cl = close(gs, 40)
        except ClosureCapExceeded:
            continue
        outside = [rand_pb(rng, n) for _ in range(3)] + [gs.one]
        cases.append((gens, n, rng.randrange(len(cl), 41),
                      _pairs(rng, cl.elements, outside), {}))
    totals = []
    for max_degree in (BytesCodec.max_degree, -1):
        with monkeypatch.context() as m:
            m.setattr(BytesCodec, "max_degree", max_degree)
            compared = refused = 0
            for gens, n, cap, pairs, expected in cases:
                gs = GeneratorSystem(gens, degree=n)
                assert (gs.codec is BytesCodec) == (max_degree >= n)
                counts = _green_against_the_scans(gs, pairs, cap, expected)
                compared += counts[0]
                refused += counts[1]
        totals.append((compared, refused))
    assert totals[0] == totals[1]
    assert totals[0][0] > 100000 and totals[0][1] > 0


def test_green_search_matches_the_closure_scans_on_cayley_tables():
    rng = random.Random(39)
    compared = 0
    for pb, _ in sample_systems(rng, 8, degrees=(2, 4), closure_cap=40):
        table, _ = from_closure(close(pb).elements, pb.mul)
        for _ in range(5):
            sigma = rng.sample(range(table.order),
                               rng.randrange(1, min(3, table.order) + 1))
            gs = GeneratorSystem(sigma, table=table)
            inside = close(gs).elements
            outside = [x for x in range(table.order) if x not in inside]
            pairs = _pairs(rng, inside, outside or inside)
            compared += _green_against_the_scans(gs, pairs, table.order,
                                                 {})[0]
    assert compared == 40 * 5 * 4 * 5 * 3


def test_green_refuses_a_two_sided_ideal_past_the_cap_from_outside_u():
    # U = S_3 fits cap 6, so the closure scans answer; t, a rank-2 map,
    # lies outside U, and U^1 t U^1 holds all 18 rank-2 maps, past t and
    # 6 more, so the search refuses J and D, while t U^1 and U^1 t (6
    # maps each) stay within the cap; the search holds t and cap more
    gens = [PartialBijection(3, (1, 2, 0)), PartialBijection(3, (1, 0, 2))]
    t = PartialBijection(3, (0, 1, None))
    s = PartialBijection(3, (None, 2, 0))
    gs = GeneratorSystem(gens, degree=3)
    assert len(close(gs, 6)) == 6 and t not in close(gs)
    for rel in "JD":
        assert green_leq_by_ideals(gs, s, t, rel, 6)
        with pytest.raises(ClosureCapExceeded,
                           match="^ideal U\\^1 t U\\^1 exceeded 6 elements "
                           "besides t$"):
            naive_green_leq(gs, s, t, rel, 6)
        with pytest.raises(ClosureCapExceeded):
            naive_green(gs, s, t, rel, 6)
        # the identity lies above t: a NO searches all of U^1 t U^1
        assert not naive_green_leq(gs, gs.one, t, rel, 17)
        with pytest.raises(ClosureCapExceeded):
            naive_green_leq(gs, gs.one, t, rel, 16)
    for rel in "RLH":
        assert naive_green_leq(gs, t, t, rel, 6)
        assert (naive_green_leq(gs, s, t, rel, 6)
                == green_leq_by_ideals(gs, s, t, rel, 6))


def test_green_searches_the_ideal_and_never_the_closure():
    # I_n from the n-cycle c, a transposition and the partial identity e
    # missing the top point (|Sigma| = 4 with c~): every relation leaves
    # the closure unbuilt, and c <=_J e, a NO, expands each map of
    # U^1 e U^1 (the maps of rank below n) once, with at most 2|Sigma|
    # products each, where the closure scans took |U^1 e| |U| products
    for n in (4, 5, 6):
        c = PartialBijection(n, tuple((i + 1) % n for i in range(n)))
        e = PartialBijection(n, tuple(range(n - 1)) + (None,))
        gens = [c, PartialBijection(n, (1, 0) + tuple(range(2, n))), e]
        gs, products = counting_system(gens, n)
        for rel in "RLJHD":
            for s, t in ((c, e), (e, c)):
                # c is a unit of U, so U^1 c = c U^1 = U^1 c U^1 = U
                assert naive_green_leq(gs, s, t, rel) == (s == e)
                assert not naive_green(gs, s, t, rel)
                assert gs._closure is None
        ideal = sum(comb(n, k) ** 2 * factorial(k) for k in range(n))
        del products[:]
        assert not naive_green_leq(gs, c, e, "J")
        assert ideal < len(products) <= ideal * 2 * len(gs.generators)
        assert gs._closure is None
