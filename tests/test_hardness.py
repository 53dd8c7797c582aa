"""Reduction generators checked against small-scale oracles."""

import itertools
import random

import pytest

from invsem.pbij import PartialBijection, partial_identity
from invsem.gensys import GeneratorSystem
from invsem.oracle import close, naive_member, naive_conjugate
from invsem.ctsolver import CTSolver
from invsem.meta import mgs_decide, solve_equations
from invsem.hardness import (gen_ugap_conj, gen_ugap_member, ncl_encode,
                             gen_ncl_conj, gen_ncl_member,
                             gen_ncl_automata, gen_mgs, gen_equation)
from invsem.automata import validate, intersect_nonempty
from invsem.formats import parse_ncl

from helpers import (K4_NCL, PRISM_NCL, rand_ncl_machine,
                     sample_systems, rand_pb)
from reference import (automata_word_to_transitions, conjugation_orbit_decide,
                       ncl_reach_bruteforce, replay)


def _connected(n, edges, s, t):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return find(s) == find(t)


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield [p for p, b in zip(pairs, bits) if b]


def test_ugap_exhaustive_small():
    for n in (2, 3, 4):
        for edges in _all_graphs(n):
            for s in range(n):
                for t in range(n):
                    want = _connected(n, edges, s, t)
                    table, sigma, es, et = gen_ugap_conj(n, edges, s, t)
                    assert CTSolver(table, sigma).conjugate(es, et) == want
                    table, sigma, target = gen_ugap_member(n, edges, s, t)
                    assert CTSolver(table, sigma).member(target)[0] == want


def test_ugap_rejects_bad_graphs():
    with pytest.raises(ValueError):
        gen_ugap_conj(3, [(0, 0)], 0, 1)
    with pytest.raises(ValueError):
        gen_ugap_conj(3, [(0, 1), (1, 0)], 0, 1)
    with pytest.raises(ValueError):
        gen_ugap_member(3, [], 0, 5)


def test_ncl_encoding_shape():
    rng = random.Random(0)
    for _ in range(10):
        M = rand_ncl_machine(rng, rng.choice(("k4", "prism")))
        enc = ncl_encode(M)
        assert enc.degree <= 7 * M.vertices
        # the generator list is inverse-closed
        sigma = set(enc.sigma)
        for u in enc.sigma:
            assert u.inverse() in sigma
        # each generator moves exactly the two endpoint blocks
        for u, (e, d, c1, c2) in zip(enc.sigma, enc.labels):
            a, b, _ = M.edges[e]
            assert u[enc.point(a, c1)] is not None
            assert u[enc.point(b, c2)] is not None
            assert len(u.domain()) == enc.degree - \
                len(enc.locals_[a]) - len(enc.locals_[b]) + 2


def test_ncl_conj_reduction_agrees_with_bruteforce():
    rng = random.Random(1)
    seen = set()
    for _ in range(15):
        M = rand_ncl_machine(rng, rng.choice(("k4", "prism")))
        want, _ = ncl_reach_bruteforce(M)
        enc, sigma, e_s, e_t = gen_ncl_conj(M)
        gs = GeneratorSystem(sigma, degree=enc.degree)
        assert conjugation_orbit_decide(gs, e_s, e_t) == want
        seen.add(want)
    assert seen == {True, False}


def test_ncl_conj_reduction_agrees_with_closure_oracle():
    rng = random.Random(2)
    done = 0
    while done < 2:
        M = rand_ncl_machine(rng, "k4")
        enc, sigma, e_s, e_t = gen_ncl_conj(M)
        gs = GeneratorSystem(sigma, degree=enc.degree)
        if len(close(gs, cap=30000).elements) > 15000:
            continue
        want, _ = ncl_reach_bruteforce(M)
        ok, u = naive_conjugate(gs, e_s, e_t)
        assert ok == want
        assert conjugation_orbit_decide(gs, e_s, e_t) == want
        done += 1


def test_ncl_member_reduction_agrees_with_closure_oracle():
    rng = random.Random(3)
    done = 0
    while done < 3:
        M = rand_ncl_machine(rng, "k4")
        enc, sigma, target = gen_ncl_member(M)
        gs = GeneratorSystem(sigma, degree=enc.degree + 1)
        try:
            elements = set(close(gs, cap=30000).elements)
        except Exception:
            continue
        want, _ = ncl_reach_bruteforce(M)
        assert (target in elements) == want
        done += 1


def test_ncl_automata_reduction():
    rng = random.Random(4)
    seen = set()
    for _ in range(12):
        M = rand_ncl_machine(rng, rng.choice(("k4", "prism")))
        want, _ = ncl_reach_bruteforce(M)
        enc, automata = gen_ncl_automata(M)
        for A in automata:
            assert validate(A) == []
        word = intersect_nonempty(automata)
        assert (word is not None) == want
        if word is not None:
            seq = automata_word_to_transitions(enc, word)
            assert replay(M, seq) == M.config_t
        seen.add(want)
    assert seen == {True, False}


def test_conjugation_orbit_never_leaves_the_class():
    rng = random.Random(5)
    for gs, _ in sample_systems(rng, 6, degrees=(2, 5), closure_cap=300):
        elements = list(close(gs).elements)
        idems = [x for x in elements if gs.is_idempotent(x)]
        for e in idems[:4]:
            rank = len(e.domain())

            def step_check(cur, u, f):
                # accepted steps preserve the rank of the idempotent
                if gs.mul(gs.mul(u, f), gs.inv(u)) == cur:
                    assert len(f.domain()) == len(cur.domain()) == rank

            for f in idems[:4]:
                want, _ = naive_conjugate(gs, e, f)
                got = conjugation_orbit_decide(gs, e, f,
                                               step_check=step_check)
                assert got == want


def test_ncl_encode_unchecked_sigma_matches_checked_constructor():
    # ncl_encode builds sigma without the constructor's checks; the
    # checked constructor accepts every element and gives an equal one
    for text in (K4_NCL, PRISM_NCL):
        enc = ncl_encode(parse_ncl(text))
        assert enc.sigma
        for u in enc.sigma:
            checked = PartialBijection(enc.degree, tuple(u))
            assert type(u) is PartialBijection
            assert u == checked and hash(u) == hash(checked)
            assert u.images == checked.images and u.degree == enc.degree


def test_gen_mgs_reduction():
    rng = random.Random(6)
    done = 0
    while done < 40:
        n = rng.randrange(2, 4)
        gens = [rand_pb(rng, n) for _ in range(rng.randrange(1, 3))]
        gs = GeneratorSystem(gens, degree=n)
        if len(close(gs, cap=300).elements) > 200:
            continue
        t = rand_pb(rng, n) if rng.random() < 0.5 else \
            rng.choice(list(close(gs).elements))
        want, _ = naive_member(gs, t)
        big, k = gen_mgs(gs, t)
        assert k == 2 * len(gs.generators)
        ok, witness = mgs_decide(big, k)
        assert ok == want
        if ok:
            assert len(witness) <= k
            span = GeneratorSystem(list(witness), degree=big.degree)
            assert set(close(span).elements) == set(close(big).elements)
        done += 1


def test_gen_mgs_rejects_bad_input():
    gs = GeneratorSystem([PartialBijection(2, (1, 0))], degree=2)
    with pytest.raises(ValueError):
        gen_mgs(gs, PartialBijection(3, (0, 1, 2)))


def test_gen_equation_reduction():
    rng = random.Random(7)
    done = 0
    while done < 30:
        n = rng.randrange(2, 4)
        gens = [rand_pb(rng, n) for _ in range(rng.randrange(1, 3))]
        gs = GeneratorSystem(gens, degree=n)
        if len(close(gs, cap=300).elements) > 200:
            continue
        elements = list(close(gs).elements)
        idems = [x for x in elements if gs.is_idempotent(x)]
        pairs = [(e, f) for e in idems for f in idems
                 if len(e.domain()) == len(f.domain())]
        if not pairs:
            continue
        e_s, e_t = rng.choice(pairs)
        system, constraint = gen_equation(gs, e_s, e_t)
        want, _ = naive_conjugate(constraint, e_s, e_t)
        got = solve_equations(system, constraint)
        assert (got is not None) == want
        if got is not None:
            x = got["X"]
            assert gs.mul(gs.mul(gs.inv(x), e_s), x) == e_t
        done += 1


def test_gen_equation_rejects_bad_targets():
    gs = GeneratorSystem([PartialBijection(2, (1, 0))], degree=2)
    with pytest.raises(ValueError):
        gen_equation(gs, PartialBijection(2, (1, 0)), gs.one)
    with pytest.raises(ValueError):
        gen_equation(gs, partial_identity(2, [0]), gs.one)
