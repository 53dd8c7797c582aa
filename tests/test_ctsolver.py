"""Cayley-table greedy solver against the oracle."""

import random

import pytest

from invsem.cayley import (CayleyTable, brandt_table, direct_product_table,
                           y2_table)
from invsem.search import UnionFind
from invsem.gensys import GeneratorSystem
from invsem.oracle import close, naive_member, naive_conjugate, naive_green
from invsem.ctsolver import CTSolver

from helpers import sample_systems
from reference import from_closure


def _tables(rng, count, max_size=100):
    out = []
    for gs, _ in sample_systems(rng, count, degrees=(2, 5),
                                closure_cap=max_size):
        elements = list(close(gs).elements)
        table, _ = from_closure(elements, gs.mul)
        out.append(table)
    return out


def test_member_agrees_with_oracle():
    rng = random.Random(0)
    for table in _tables(rng, 3):
        n = table.order
        for _ in range(20):
            sigma = rng.sample(range(n), rng.randrange(1, min(4, n) + 1))
            gs = GeneratorSystem(sigma, table=table)
            members = set(close(gs).elements)
            solver = CTSolver(table, list(gs.generators))
            for _ in range(10):
                t = rng.randrange(n)
                ok, word, iterations = solver.member(t)
                assert ok == (t in members)
                assert iterations <= n
                if ok and word:
                    acc = word[0]
                    for x in word[1:]:
                        acc = table.mul(acc, x)
                    assert acc == t


def test_conjugate_agrees_with_oracle():
    rng = random.Random(1)
    for table in _tables(rng, 3, max_size=60):
        n = table.order
        for _ in range(15):
            sigma = rng.sample(range(n), rng.randrange(1, min(4, n) + 1))
            gs = GeneratorSystem(sigma, table=table)
            for _ in range(10):
                s = rng.randrange(n)
                t = rng.randrange(n)
                expected, _ = naive_conjugate(gs, s, t)
                assert CTSolver(table, sigma).conjugate(s, t) == expected


def test_r_equiv_agrees_with_oracle():
    rng = random.Random(2)
    for table in _tables(rng, 3, max_size=60):
        n = table.order
        for _ in range(15):
            sigma = rng.sample(range(n), rng.randrange(1, min(4, n) + 1))
            gs = GeneratorSystem(sigma, table=table)
            for _ in range(10):
                s = rng.randrange(n)
                t = rng.randrange(n)
                assert CTSolver(table, sigma).r_equiv(s, t) == \
                    naive_green(gs, s, t, "R")


def test_identity_target_cases():
    # a table with a real identity: membership of the identity needs a
    # generator with u u~ = 1
    table, idx = brandt_table(2, with_identity=True)
    one = idx[("one",)]
    s = idx[(0, 1)]
    ok, word, _ = CTSolver(table, [s, table.inv(s)]).member(one)
    assert not ok
    ok, word, _ = CTSolver(table, [one]).member(one)
    assert ok
    acc = word[0]
    for x in word[1:]:
        acc = table.mul(acc, x)
    assert acc == one


def test_brandt_member_matrix():
    table, idx = brandt_table(3)
    # edge maps of a path 0 - 1 - 2 generate all of B(3)
    sigma = [idx[(0, 1)], idx[(1, 2)]]
    gs = GeneratorSystem(sigma, table=table)
    members = set(close(gs).elements)
    assert members == set(range(table.order))
    for t in range(table.order):
        ok, _, _ = CTSolver(table, list(gs.generators)).member(t)
        assert ok


def test_y2_solver():
    table = y2_table()
    assert CTSolver(table, [1]).member(1)[0]
    assert not CTSolver(table, [1]).member(0)[0]
    assert CTSolver(table, [1]).conjugate(0, 0)
    assert not CTSolver(table, [1]).conjugate(0, 1)


def test_graph_edges_match_the_product_scan():
    # the R adjacency lists, in the order a scan of every x against every
    # (u, u~) finds their edges, fix the witness words; the conjugacy
    # graph must have the scan's components
    rng = random.Random(3)
    tables = _tables(rng, 4, max_size=60) + [brandt_table(3)[0]]
    for table in tables:
        n = table.order
        for _ in range(6):
            sigma = rng.sample(range(n), rng.randrange(1, min(4, n) + 1))
            solver = CTSolver(table, sigma)
            mul = solver.gs.mul
            adj = {x: [] for x in solver.elements}
            conj = []
            for x in solver.elements:
                for u, ub in solver._pairs:
                    y = mul(x, u)
                    if y != x and mul(y, ub) == x:
                        adj[x].append((y, u))
                        adj[y].append((x, ub))
                    y = mul(mul(ub, x), u)
                    if y != x and mul(mul(u, y), ub) == x:
                        conj.append((x, y))
            solver._build_r()
            assert solver._r_adj == adj
            ref = UnionFind()
            for x, y in conj:
                ref.union(x, y)
            for x in solver.elements:
                for y in solver.elements:
                    assert solver.conjugate(x, y) == \
                        (ref.find(x) == ref.find(y))


def test_member_at_order_514_reads_products_from_the_array():
    # B(16) x Y2: the greedy loop reads its products from the array, so
    # `table` is never built, and the answers and words are those of
    # the same loop on products read from lists of Python ints
    S = direct_product_table(brandt_table(16)[0], y2_table())
    assert S.order == 514
    rows = S.array.tolist()
    rng = random.Random(514)
    sigma = rng.sample(range(S.order), 4)
    solver = CTSolver(S, sigma)
    lists = CTSolver(S, sigma)
    one = lists.gs.one

    def list_mul(x, y):
        return y if x == one else x if y == one else rows[x][y]

    lists.gs.mul = list_mul
    members = sorted(close(solver.gs).elements)
    outside = sorted(set(range(S.order)) - set(members))
    for t in rng.sample(members, 6) + rng.sample(outside, 6):
        ok, word, iterations = solver.member(t)
        assert (ok, word, iterations) == lists.member(t)
        assert ok == (t in members)
        if ok:
            acc = solver.gs.one
            for u in word:
                acc = solver.gs.mul(acc, u)
            assert acc == t
    assert all(type(solver.gs.mul(x, y)) is int
               for x in sigma for y in range(S.order))
    with pytest.raises(AttributeError):
        CayleyTable.table.__get__(S, CayleyTable)
