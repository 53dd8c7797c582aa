"""Minimum generating sets and equation solving."""

import itertools
import random
from collections import Counter

import pytest

from invsem.pbij import PartialBijection, partial_identity
from invsem.gensys import GeneratorSystem
from invsem.oracle import close, naive_conjugate
from invsem.hardness import gen_mgs
from invsem import meta
from invsem.meta import mgs_decide, EquationSystem, eval_word, solve_equations

from helpers import j_related, rand_pb, sample_systems, two_sided_ideals
from reference import solve_equations_bruteforce


def _closure_set(gens, n):
    return set(close(GeneratorSystem(gens, degree=n)).elements)


def test_mgs_tight_witness():
    # at the minimal k the decision flips from no to yes, and the
    # witness really generates everything
    rng = random.Random(0)
    done = 0
    while done < 25:
        n = rng.randrange(2, 5)
        gens = [rand_pb(rng, n) for _ in range(rng.randrange(1, 3))]
        gs = GeneratorSystem(gens, degree=n)
        try:
            full = set(close(gs, cap=300).elements)
        except Exception:
            continue
        kmin = None
        for k in range(1, 5):
            ok, witness = mgs_decide(gs, k)
            if ok:
                kmin = k
                assert len(witness) <= k
                assert _closure_set(list(witness), n) == full
                break
        assert kmin is not None
        if kmin > 1:
            assert not mgs_decide(gs, kmin - 1)[0]
        done += 1


def test_mgs_matches_brute_force_subset_search():
    # the smallest generating set found by trying every subset of U, on
    # GeneratorSystems and on their closures listed in a shuffled order
    rng = random.Random(3)
    done = 0
    while done < 30:
        n = rng.randrange(2, 4)
        gens = [rand_pb(rng, n) for _ in range(rng.randrange(1, 4))]
        gs = GeneratorSystem(gens, degree=n)
        full = _closure_set(gens, n)
        if len(full) > 25:
            continue
        elements = list(close(gs).elements)
        rng.shuffle(elements)
        for k in (1, 2, 3):
            want = any(_closure_set(list(sub), n) == full
                       for size in range(1, k + 1)
                       for sub in itertools.combinations(elements, size))
            for u in (gs, GeneratorSystem(elements, degree=n)):
                ok, witness = mgs_decide(u, k)
                assert ok == want, (gens, k)
                if ok:
                    assert len(witness) <= k
                    assert _closure_set(list(witness), n) == full
                else:
                    assert witness is None
        done += 1


def _min_generating_size(gs, elements, most):
    """The size of a smallest subset of the closed list `elements` that
    generates it, by trying every subset of up to `most` elements over
    an integer product table; None if there is none."""
    index = {x: i for i, x in enumerate(elements)}
    prod = [[index[gs.mul(a, b)] for b in elements] for a in elements]
    inv = [index[gs.inv(a)] for a in elements]
    for size in range(1, most + 1):
        for sub in itertools.combinations(range(len(elements)), size):
            letters = set(sub).union(inv[x] for x in sub)
            span, stack = set(letters), list(letters)
            while stack:
                a = stack.pop()
                for b in letters:
                    c = prod[a][b]
                    if c not in span:
                        span.add(c)
                        stack.append(c)
            if len(span) == len(elements):
                return size
    return None


def test_mgs_on_reduction_instances_is_one_closure(monkeypatch):
    # gen_mgs makes every maximal J-class forced, so after the
    # monogenic closure of each element the decision is one closure
    calls = []
    real = meta.reach

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(meta, "reach", spy)
    rng = random.Random(12)
    answers = []
    while len(answers) < 40:
        n = rng.randrange(2, 4)
        gs = GeneratorSystem([rand_pb(rng, n)
                              for _ in range(rng.randrange(1, 3))], degree=n)
        if len(close(gs, cap=300)) > 40:
            continue
        t = rand_pb(rng, n) if rng.random() < 0.5 else \
            rng.choice(close(gs).elements)
        big, k = gen_mgs(gs, t)
        full_n = len(close(big))
        calls.clear()
        ok, witness = mgs_decide(big, k)
        assert len(calls) <= full_n + 1
        assert ok == (t in close(gs))
        if ok:
            assert len(witness) <= k
            assert _closure_set(list(witness), big.degree) == \
                set(close(big).elements)
        answers.append(ok)
    assert 10 <= sum(answers) <= 30


def _block_system(rng):
    """Generators on disjoint blocks of at most three points.  A block
    gets two permutations of it, two maps of rank one or two random
    partial maps, so maximal J-classes of several candidates (such as
    S_3, or the Brandt semigroup B_3 without its zero) sit beside
    classes of one."""
    sizes = rng.choice([(3,), (1, 3), (3, 3), (2, 3), (2, 2), (1, 1, 2)])
    n = sum(sizes)
    gens = []
    offset = 0
    for m in sizes:
        kind = rng.choice(("perm", "rank1", "rand"))
        for _ in range(2):
            if kind == "rank1":
                p = [None] * m
                p[rng.randrange(m)] = rng.randrange(m)
            else:
                p = rand_pb(rng, m, 1.0 if kind == "perm" else 0.6)
            images = [None] * n
            for x, y in enumerate(p):
                if y is not None:
                    images[offset + x] = offset + y
            gens.append(PartialBijection(n, images))
        offset += m
    return GeneratorSystem(gens, degree=n)


def test_mgs_search_past_the_forced_start_matches_brute_force(monkeypatch):
    # budgets above the number of maximal J-classes and maximal classes
    # of two or more candidates, so the search runs on from the closure
    # of the forced candidates
    covers = []
    real_cover = meta._maximal_class_cover

    def spy_cover(edges, label, candidates):
        out = real_cover(edges, label, candidates)
        covers.append(out)
        return out

    reaches = []
    real_reach = meta.reach

    def spy_reach(*args):
        reaches.append(args)
        return real_reach(*args)

    monkeypatch.setattr(meta, "_maximal_class_cover", spy_cover)
    monkeypatch.setattr(meta, "reach", spy_reach)
    rng = random.Random(13)
    seen = Counter()
    done = 0
    while done < 300:
        gs = _block_system(rng)
        if len(close(gs, cap=300)) > 25:
            continue
        done += 1
        elements = close(gs).elements
        full = set(elements)
        kmin = _min_generating_size(gs, elements, 4)
        for k in range(1, 5):
            covers.clear()
            reaches.clear()
            ok, witness = mgs_decide(gs, k)
            assert ok == (kmin is not None and kmin <= k), (gs.generators, k)
            if ok:
                assert len(witness) <= k
                assert _closure_set(list(witness), gs.degree) == full
            else:
                assert witness is None
            (n_classes, class_of), = covers
            if k <= n_classes:
                continue
            per_class = Counter(c for c in class_of if c is not None)
            shared = max(per_class.values()) >= 2
            searched = len(reaches) > len(elements) + 1
            seen[shared, searched, ok] += 1
    assert all(seen[True, True, ok] >= 10 for ok in (True, False)), seen


def test_maximal_class_cover_matches_brute_force_j_classes(monkeypatch):
    # on systems and on their shuffled closures: the maximal
    # J-classes of the two-sided ideals, their number, and the class of
    # each candidate and of every element
    calls = []
    real = meta._maximal_class_cover

    def spy(edges, label, candidates):
        out = real(edges, label, candidates)
        calls.append((out, candidates, real(edges, label, range(len(label)))))
        return out

    monkeypatch.setattr(meta, "_maximal_class_cover", spy)
    rng = random.Random(9)
    systems = [gs for gs, _ in sample_systems(rng, 30, degrees=(2, 4),
                                              closure_cap=30)]
    while len(systems) < 300:
        n = rng.randrange(2, 5)
        gs = GeneratorSystem([rand_pb(rng, n) for _ in range(2)], degree=n)
        if len(close(gs)) <= 40:
            systems.append(gs)
    counts = set()
    for gs in systems:
        shuffled = list(close(gs).elements)
        rng.shuffle(shuffled)
        listed = GeneratorSystem(shuffled, degree=gs.degree)
        for u, order in ((gs, close(gs).elements),
                         (listed, close(listed).elements)):
            calls.clear()
            mgs_decide(u, 1)
            ((count, class_of), candidates, (_, every)), = calls
            ideals = two_sided_ideals(gs, order)
            n = len(order)
            maximal = [x for x in range(n)
                       if all(j_related(ideals, x, y)
                              for y in range(n) if x in ideals[y])]
            classes = {frozenset(y for y in maximal
                                 if j_related(ideals, x, y))
                       for x in maximal}
            assert count == len(classes)
            counts.add(count)
            assert [x for x in range(n) if every[x] is not None] == maximal
            for x, y in itertools.product(maximal, repeat=2):
                assert (every[x] == every[y]) == j_related(ideals, x, y)
            assert class_of == [every[x] for x in candidates]
    assert len(systems) >= 300 and len(counts) >= 3


def test_mgs_zero_budget():
    # U holds its generators, so k <= 0 is NO without enumerating U,
    # also where U = <S_3, a rank-2 idempotent> is past a cap of 2
    gs = GeneratorSystem([PartialBijection(2, (1, 0))], degree=2)
    assert mgs_decide(gs, 0) == (False, None)
    gens = [PartialBijection(3, (1, 2, 0)), PartialBijection(3, (1, 0, 2)),
            PartialBijection(3, (0, 1, None))]
    for k in (0, -1):
        gs = GeneratorSystem(gens, degree=3)
        assert mgs_decide(gs, k, cap=2) == (False, None)
        assert gs._closure is None


def test_equation_system_check_errors():
    gs = GeneratorSystem([PartialBijection(2, (1, 0))], degree=2)
    with pytest.raises(ValueError):
        EquationSystem(["X", "X"], {}, []).check()
    with pytest.raises(ValueError):
        EquationSystem(["X"], {}, [((), (("var", "X", False),))]).check()
    with pytest.raises(ValueError):
        EquationSystem(["X"], {},
                       [((("var", "Y", False),),
                         (("var", "X", False),))]).check()
    with pytest.raises(ValueError):
        EquationSystem(["X"], {},
                       [((("oops", "X", False),),
                         (("var", "X", False),))]).check()


def test_eval_word():
    gs = GeneratorSystem([PartialBijection(3, (1, 2, 0))], degree=3)
    u = gs.generators[0]
    word = (("const", u, False), ("var", "X", True))
    assert eval_word(word, {"X": u}, gs.mul, gs.inv) == gs.mul(u, gs.inv(u))


def test_solve_matches_bruteforce():
    rng = random.Random(1)
    done = 0
    while done < 30:
        n = rng.randrange(2, 4)
        gens = [rand_pb(rng, n) for _ in range(rng.randrange(1, 3))]
        gs = GeneratorSystem(gens, degree=n)
        elements = list(close(gs, cap=200).elements)
        if len(elements) > 60:
            continue
        s = rng.choice(elements)
        t = rng.choice(elements)
        lhs = (("var", "X", True), ("const", s, False),
               ("var", "X", False))
        rhs = (("const", t, False),)
        system = EquationSystem(["X"], {}, [(lhs, rhs)])
        got = solve_equations(system, gs)
        brute = solve_equations_bruteforce(system, gs)
        assert (got is None) == (brute is None)
        if got is not None:
            x = got["X"]
            assert gs.mul(gs.mul(gs.inv(x), s), x) == t
        done += 1


def test_two_variable_system():
    gs = GeneratorSystem([partial_identity(2, [0]),
                          partial_identity(2, [1])], degree=2)
    a, b = gs.generators[0], gs.generators[1]
    # X = a and Y = b forced by two equations
    system = EquationSystem(
        ["X", "Y"], {},
        [((("var", "X", False),), (("const", a, False),)),
         ((("var", "X", False), ("var", "Y", False)),
          (("const", gs.mul(a, b), False),))])
    got = solve_equations(system, gs)
    assert got is not None and got["X"] == a
    assert gs.mul(got["X"], got["Y"]) == gs.mul(a, b)


def test_conjugacy_duality():
    # for equal-rank idempotents, X~ e_s X = e_t is solvable iff
    # X e_t X~ = e_s is
    rng = random.Random(2)
    checked = 0
    for gs, _ in sample_systems(rng, 5, degrees=(2, 4), closure_cap=80):
        elements = list(close(gs).elements)
        idems = [x for x in elements if gs.is_idempotent(x)]
        for e_s in idems[:5]:
            for e_t in idems[:5]:
                if len(e_s.domain()) != len(e_t.domain()):
                    continue
                fwd = EquationSystem(
                    ["X"], {},
                    [((("var", "X", True), ("const", e_s, False),
                       ("var", "X", False)),
                      (("const", e_t, False),))])
                rev = EquationSystem(
                    ["X"], {},
                    [((("var", "X", False), ("const", e_t, False),
                       ("var", "X", True)),
                      (("const", e_s, False),))])
                a = solve_equations(fwd, gs)
                b = solve_equations(rev, gs)
                assert (a is None) == (b is None)
                want, _ = naive_conjugate(gs, e_s, e_t)
                assert (a is not None) == want
                checked += 1
    assert checked > 40


def test_constrained_variable_domain():
    gs = GeneratorSystem([partial_identity(3, [0, 1]),
                          partial_identity(3, [1, 2])], degree=3)
    a = gs.generators[0]
    constraint = GeneratorSystem([gs.generators[1]], degree=3)
    # X must come from a sub-closure that does not contain a
    system = EquationSystem(
        ["X"], {"X": constraint},
        [((("var", "X", False),), (("const", a, False),))])
    assert solve_equations(system, gs) is None
