"""Schreier-Sims machinery, group membership and set transporters."""

import random

import pytest

from invsem.pbij import PartialBijection
from invsem.gensys import GeneratorSystem
from invsem.oracle import close, naive_member
from invsem.groups import (PermGroup, set_transporter, perm_group_of,
                           pb_group_member, group_conjugate)

from helpers import rand_perm_on


def _rand_perm(rng, m):
    p = list(range(m))
    rng.shuffle(p)
    return tuple(p)


def _brute_order(gens, m):
    identity = tuple(range(m))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def test_order_matches_brute_force():
    rng = random.Random(0)
    for _ in range(300):
        m = rng.randrange(2, 8)
        gens = [_rand_perm(rng, m) for _ in range(rng.randrange(1, 4))]
        G = PermGroup(gens, m)
        elements = _brute_order(gens, m)
        assert G.order == len(elements)
        assert len(elements) <= 5040


def test_contains_and_witness_word():
    rng = random.Random(1)
    for _ in range(150):
        m = rng.randrange(2, 7)
        gens = [_rand_perm(rng, m) for _ in range(rng.randrange(1, 4))]
        G = PermGroup(gens, m)
        elements = _brute_order(gens, m)
        # positive cases with word replay
        for p in list(elements)[:20]:
            ok, word = G.contains(p)
            assert ok
            acc = tuple(range(m))
            for i in word:
                acc = tuple(G.gens[i][x] for x in acc)
            assert acc == p
        # negative cases
        for _ in range(5):
            q = _rand_perm(rng, m)
            ok, _ = G.contains(q)
            assert ok == (q in elements)


def test_elements_enumeration():
    G = PermGroup([(1, 2, 0), (1, 0, 2)], 3)
    assert G.order == 6
    listed = {p for p, _ in G.elements()}
    assert listed == _brute_order(G.gens, 3)


def test_degree_mismatch_rejected():
    G = PermGroup([(1, 0)], 2)
    with pytest.raises(ValueError):
        G.contains((0, 1, 2))
    with pytest.raises(ValueError):
        PermGroup([(0, 0)], 2)


def test_set_transporter_reverified():
    rng = random.Random(2)
    hits = 0
    for _ in range(300):
        m = rng.randrange(3, 8)
        gens = [_rand_perm(rng, m) for _ in range(rng.randrange(1, 3))]
        G = PermGroup(gens, m)
        k = rng.randrange(1, m)
        ds = frozenset(rng.sample(range(m), k))
        dt = frozenset(rng.sample(range(m), k))
        found = set_transporter(G, ds, dt)
        brute = any(frozenset(p[x] for x in ds) == dt
                    for p in _brute_order(gens, m))
        assert (found is not None) == brute
        if found is not None:
            p, word = found
            assert frozenset(p[x] for x in ds) == dt
            acc = tuple(range(m))
            for i in word:
                acc = tuple(G.gens[i][x] for x in acc)
            assert acc == p
            hits += 1
    assert hits > 20


def test_pb_group_member_vs_oracle():
    rng = random.Random(3)
    count = 0
    while count < 10000:
        n = rng.randrange(2, 9)
        dom = [x for x in range(n) if rng.random() < 0.8] or [0]
        gens = [rand_perm_on(rng, n, dom)
                for _ in range(rng.randrange(1, 4))]
        gs = GeneratorSystem(gens, degree=n)
        elements = set(close(gs).elements)
        if len(elements) > 2000:
            continue
        for _ in range(25):
            if rng.random() < 0.5:
                t = rng.choice(list(elements))
            else:
                t = rand_perm_on(rng, n, dom)
            ok, word = pb_group_member(gs, t)
            assert ok == (t in elements)
            if ok:
                acc = gs.one
                for i in word:
                    acc = gs.mul(acc, gs.generators[i])
                # the sift word evaluates to t on the group domain
                assert gs.mul(gs.mul(t, gs.inv(t)), acc) == t
            count += 1


def test_group_conjugate_equations_and_oracle():
    rng = random.Random(4)
    from invsem.oracle import naive_conjugate
    for _ in range(150):
        n = rng.randrange(2, 6)
        dom = [x for x in range(n) if rng.random() < 0.8] or [0]
        gens = [rand_perm_on(rng, n, dom)
                for _ in range(rng.randrange(1, 3))]
        gs = GeneratorSystem(gens, degree=n)
        elements = list(close(gs).elements)
        s = rng.choice(elements)
        t = rng.choice(elements)
        ok, u = group_conjugate(gs, s, t)
        expected, _ = naive_conjugate(gs, s, t)
        assert ok == expected
        if ok:
            ub = gs.inv(u)
            assert gs.mul(gs.mul(ub, s), u) == t
            assert gs.mul(gs.mul(u, t), ub) == s


def test_perm_group_of_rejects_non_group():
    gs = GeneratorSystem([PartialBijection(3, (1, None, None))], degree=3)
    with pytest.raises(ValueError):
        perm_group_of(gs)


def _sym(m):
    return [tuple((i + 1) % m for i in range(m)),
            (1, 0) + tuple(range(2, m))]


def _wreath(k, blocks):
    """S_k wr S_blocks on k*blocks points: S_k on the first block and
    the block permutations."""
    m = k * blocks
    out = [g + tuple(range(k, m)) for g in _sym(k)] if k > 1 else []
    for b in _sym(blocks):
        out.append(tuple(b[x // k] * k + x % k for x in range(m)))
    return out


def _diagonal(gens, m):
    return [tuple(g[i] * m + g[j] for i in range(m) for j in range(m))
            for g in gens]


STORED_INVERSE_GROUPS = [
    ("S6", _sym(6), 6),
    ("S3wrS2", _wreath(3, 2), 6),
    ("S2wrS3", _wreath(2, 3), 6),
    ("S4 on pairs", _diagonal(_sym(4), 4), 16),
]


def _replay(G, word):
    acc = G.identity
    for i in word:
        acc = tuple(G.gens[i][x] for x in acc)
    return acc


def test_stored_inverses_undo_their_transversal_reps():
    for name, gens, m in STORED_INVERSE_GROUPS:
        G = PermGroup(gens, m)
        for lvl in G.levels:
            assert lvl.inverse.keys() == lvl.transversal.keys(), name
            for x, (r, rw) in lvl.transversal.items():
                ir, irw = lvl.inverse[x]
                assert tuple(ir[y] for y in r) == G.identity, name
                assert ir[x] == lvl.b
                assert irw == tuple(G.inv_index[i] for i in reversed(rw))
                assert _replay(G, irw) == ir


def test_witnesses_on_symmetric_wreath_and_diagonal_groups():
    rng = random.Random(5)
    for name, gens, m in STORED_INVERSE_GROUPS:
        G = PermGroup(gens, m)
        elements = _brute_order(gens, m)
        assert G.order == len(elements), name
        for p in rng.sample(sorted(elements), min(30, len(elements))):
            ok, word = G.contains(p)
            assert ok and _replay(G, word) == p, name
        for _ in range(30):
            q = _rand_perm(rng, m)
            assert G.contains(q)[0] == (q in elements), name
        for _ in range(30):
            k = rng.randrange(1, min(m, 5))
            ds = frozenset(rng.sample(range(m), k))
            dt = frozenset(rng.sample(range(m), k))
            if rng.random() < 0.5:
                # a reachable target, so both answers occur
                p = rng.choice(sorted(elements))
                dt = frozenset(p[x] for x in ds)
            found = set_transporter(G, ds, dt)
            assert (found is not None) == any(
                frozenset(p[x] for x in ds) == dt for p in elements), name
            if found is not None:
                p, word = found
                assert frozenset(p[x] for x in ds) == dt
                assert _replay(G, word) == p
