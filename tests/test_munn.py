"""Munn graphs, bases, and the strict inverse solvers."""

import random
import re
import sys
from collections import Counter

import pytest

from invsem.pbij import (BytesCodec, PartialBijection, TupleCodec,
                         partial_identity, brandt, direct_product)
from invsem.gensys import GeneratorSystem
from invsem.oracle import (ClosureCapExceeded, close, naive_member,
                           naive_conjugate)
from invsem.classify import classify_generated, classify_from_generators
from invsem.groups import conj_signature
from invsem import munn as munn_module
from invsem import search
from invsem.munn import (OutsideTractable, orbit_closure,
                         munn_graph, munn_dot, basis_at, hclass_generators,
                         sis_min_idempotent, least_above,
                         dom_mask, idempotent_of,
                         sis_member, sis_conjugate, clifford_conjugate,
                         dispatch_member, dispatch_conjugate, route, solve,
                         SOLVERS, VARIETY_OF)

from helpers import (KINDS, rand_pb, sample_systems, sample_sis_systems,
                     check_munn_lemmas, counting_system,
                     dispatched_as_the_oracle, padded,
                     sample_multi_component_sis, top_points_system,
                     variety_gens)
from reference import (all_partial_bijections, from_closure, from_pairs,
                       idempotent_meet, le, orbit_labels,
                       sis_min_idempotent_scan)


def test_orbit_closure_skips_untouched_points():
    gs = GeneratorSystem([PartialBijection(4, (1, 0, None, None))],
                         degree=4)
    # sets of points as bit masks: 0b0011 is {0, 1}
    assert orbit_closure(gs, 0b0001) == 0b0011
    # point 3 has no incident generator edge, so it never enters
    assert orbit_closure(gs, 0b1000) == 0
    assert orbit_closure(gs, 0b1111) == 0b0011


def test_munn_graph_requires_invariant_set():
    gs = GeneratorSystem([PartialBijection(3, (1, 2, 0))], degree=3)
    with pytest.raises(ValueError):
        munn_graph(gs, 0b001)


def test_munn_graph_on_brandt_generators():
    maps, idx = brandt(3)
    gens = [maps[idx[(0, 1)]], maps[idx[(1, 2)]]]
    gs = GeneratorSystem(gens, degree=3)
    delta = orbit_closure(gs, 0b111)
    assert delta == 0b111
    M = munn_graph(gs, delta)
    # each point's identity is a vertex (as its domain mask), the path
    # edges connect them
    assert M.vertices == (0b001, 0b010, 0b100)
    assert len(M.edges) == 4
    assert set(M.comp) == {0}
    assert "--" in munn_dot(M)


def test_munn_dot_numbers_edges_as_word_lines_do():
    # an edge is labelled g<i> with i 1-based, as in `word` lines
    maps, idx = brandt(3)
    gs = GeneratorSystem([maps[idx[(0, 1)]], maps[idx[(1, 2)]]], degree=3)
    M = munn_graph(gs, 0b111)
    labels = re.findall(r'label="(g\d+)"', munn_dot(M))
    assert labels == ["g%d" % (gi + 1) for gi, _, _ in M.edges]
    assert sorted(labels) == ["g1", "g2", "g3", "g4"]


def test_basis_conjugators_and_hclass():
    rng = random.Random(0)
    checked = 0
    for gs, elements in sample_sis_systems(rng, 40, degrees=(2, 6)):
        deltas = {orbit_closure(gs, dom_mask(e))
                  for e in elements if gs.is_idempotent(e)}
        deltas.discard(0)
        decode = gs.codec.decode
        for delta in deltas:
            M = munn_graph(gs, delta)
            for anchor in range(len(M.vertices)):
                B = basis_at(gs, M, anchor)
                e = decode(idempotent_of(gs, M.vertices[anchor]))
                for v, g in B.gamma.items():
                    # gamma(f) conjugates the anchor onto vertex v
                    f, g = decode(idempotent_of(gs, M.vertices[v])), decode(g)
                    assert gs.mul(gs.mul(gs.inv(g), e), g) == f
                    assert gs.mul(gs.mul(g, f), gs.inv(g)) == e
                for h in hclass_generators(gs, B):
                    assert gs.mul(h, gs.inv(h)) == e
                    assert gs.mul(gs.inv(h), h) == e
                checked += 1
    assert checked > 30


def test_min_idempotent_solvers_agree_with_search():
    rng = random.Random(1)
    checked = 0
    for gs, elements in sample_sis_systems(rng, 60, degrees=(2, 5)):
        idems = [x for x in elements if gs.is_idempotent(x)]
        for e in idems[:6]:
            above = [f for f in idems if le(e, f)]
            ehat = sis_min_idempotent(gs, dom_mask(e))
            if above:
                want = above[0]
                for f in above[1:]:
                    want = gs.mul(want, f)
                assert ehat == dom_mask(want)
            else:
                assert ehat == -1
            from invsem.classify import classify_generated
            if classify_generated(gs).name in ("Trivial", "Semilattice",
                                               "Group", "Clifford"):
                assert least_above(gs.points.masks, dom_mask(e)) == ehat
            checked += 1
    assert checked > 50


def test_structural_invariants_on_sampled_closures():
    rng = random.Random(2)
    systems = sample_sis_systems(rng, 25, degrees=(2, 5), closure_cap=120)
    assert len(systems) >= 15
    for gs, elements in systems:
        assert check_munn_lemmas(gs, elements, rng, words_per_graph=10) == []


def test_sis_member_vs_oracle():
    rng = random.Random(3)
    checked = 0
    for gs, elements in sample_sis_systems(rng, 50, degrees=(2, 6)):
        n = gs.degree
        for _ in range(15):
            if rng.random() < 0.5:
                t = rng.choice(elements)
            else:
                from helpers import rand_pb
                t = rand_pb(rng, n)
            expected, _ = naive_member(gs, t)
            explain = {}
            assert sis_member(gs, t, explain=explain) == expected
            checked += 1
    assert checked > 500


def test_sis_conjugate_vs_oracle_with_witness():
    rng = random.Random(4)
    checked = 0
    for gs, elements in sample_sis_systems(rng, 50, degrees=(2, 6)):
        for _ in range(10):
            s = rng.choice(elements)
            t = rng.choice(elements)
            expected, _ = naive_conjugate(gs, s, t)
            # solve answers s == t; the solver takes s != t
            ok, u = (solve("StrictInverse", "conj", gs, s, t) if s == t
                     else sis_conjugate(gs, s, t))
            assert ok == expected
            if ok:
                ub = gs.inv(u)
                assert gs.mul(gs.mul(ub, s), u) == t
                assert gs.mul(gs.mul(u, t), ub) == s
            checked += 1
    assert checked > 400


def test_dispatch_member_all_routes():
    rng = random.Random(5)
    from helpers import rand_pb
    routes = set()
    for gs, name in sample_systems(rng, 12, degrees=(2, 5),
                                   closure_cap=400):
        elements = list(close(gs).elements)
        for _ in range(10):
            if rng.random() < 0.5:
                t = rng.choice(elements)
            else:
                t = rand_pb(rng, gs.degree)
            expected, _ = naive_member(gs, t)
            explain = {}
            assert dispatch_member(gs, t, explain=explain) == expected
            routes.add(explain["variety"])
    assert routes >= {"Semilattice", "Group", "StrictInverse", "General"}


def test_dispatch_conjugate_all_routes():
    rng = random.Random(6)
    for gs, name in sample_systems(rng, 8, degrees=(2, 5),
                                   closure_cap=300):
        elements = list(close(gs).elements)
        for _ in range(8):
            s = rng.choice(elements)
            t = rng.choice(elements)
            expected, _ = naive_conjugate(gs, s, t)
            ok, u = dispatch_conjugate(gs, s, t)
            assert ok == expected
            if ok and u is not None:
                ub = gs.inv(u)
                assert gs.mul(gs.mul(ub, s), u) == t
                assert gs.mul(gs.mul(u, t), ub) == s


def test_general_route_respects_cap():
    # two full-cycle style generators of the symmetric inverse monoid on
    # 6 points blow past a tiny cap
    gs = GeneratorSystem(
        [PartialBijection(6, (1, 2, 3, 4, 5, 0)),
         PartialBijection(6, (1, 0, 2, 3, 4, None))], degree=6)
    with pytest.raises(OutsideTractable, match=re.escape(
            "idempotent (E(U)) cap exceeded: more than 50 idempotents")):
        dispatch_member(gs, gs.one, cap=50)


def test_over_cap_closure_is_enumerated_once():
    # the 8-cycle, a transposition and a rank-7 idempotent generate I_8,
    # a General U far past the cap, with 256 idempotents: classifying it
    # walks E(U) under the cap, and the auto route then answers from
    # E(U) and one D-class, with no closure product; the closure, where
    # asked for, is enumerated up to the cap once, and a repeat is
    # refused without a second enumeration
    n, cap = 8, 300
    gens = [PartialBijection(n, tuple((i + 1) % n for i in range(n))),
            PartialBijection(n, (1, 0) + tuple(range(2, n))),
            PartialBijection(n, tuple(range(n - 1)) + (None,))]
    gs, one_closure = counting_system(gens, n)
    with pytest.raises(ClosureCapExceeded):
        close(gs, cap)
    assert len(one_closure) > cap - len(gs.generators)
    gs, from_generators = counting_system(gens, n)
    assert classify_from_generators(gs) is None
    gs, classified = counting_system(gens, n)
    tag = classify_generated(gs, cap)
    assert (tag.name, tag.idempotents) == ("General", 256)
    assert len(classified) > len(from_generators) + 256
    gs, products = counting_system(gens, n)
    for query in range(1, 4):
        assert dispatch_member(gs, gs.one, cap=cap)
        if query == 1:
            # the classification's products, then those of the D-class
            # {1} (`dclass`: a mul per generator for its steps, then per
            # idempotent and step a product for g <= u u~ and, where it
            # holds, three more and at most a mul) and the query's own
            # four muls (t t~, t~ t and h = r_e t r_f~)
            dclass_products = len(products) - len(classified) - 4
            assert 0 < dclass_products <= 6 * len(gs.generators)
        # a repeat makes only the query's own products
        assert len(products) == len(classified) + dclass_products + 4 * query
        assert gs._closure is None and gs._over_cap == 0
    with pytest.raises(ClosureCapExceeded):
        close(gs, cap)
    # a repeat is refused at once, and so is a smaller cap, with its
    # own figure; a larger one enumerates again
    before = len(products)
    assert before > len(classified) + cap - len(gs.generators)
    with pytest.raises(ClosureCapExceeded,
                       match="^closure exceeded %d elements$" % cap):
        close(gs, cap)
    assert len(products) == before
    with pytest.raises(ClosureCapExceeded,
                       match="^closure exceeded 100 elements$"):
        close(gs, 100)
    assert len(products) == before
    with pytest.raises(ClosureCapExceeded):
        close(gs, cap + 1)
    assert len(products) > before + len(one_closure)


def test_over_cap_idempotents_are_walked_once():
    # I_8 has 256 idempotents: past cap 100, E(U) is walked once and the
    # overflow is kept on the system, so that cap and every smaller one
    # are refused without a product; a larger cap walks E(U) again
    n = 8
    gens = [PartialBijection(n, tuple((i + 1) % n for i in range(n))),
            PartialBijection(n, (1, 0) + tuple(range(2, n))),
            PartialBijection(n, tuple(range(n - 1)) + (None,))]

    def refused(cap):
        return pytest.raises(OutsideTractable, match="^%s$" % re.escape(
            "idempotent (E(U)) cap exceeded: more than %d idempotents"
            % cap))

    gs, products = counting_system(gens, n)
    with refused(100):
        classify_generated(gs, 100)
    walked = len(products)
    assert walked > 100
    for cap in (100, 50):
        with refused(cap):
            classify_generated(gs, cap)
        with refused(cap):
            dispatch_member(gs, gs.one, cap=cap)
    assert len(products) == walked
    with refused(255):
        classify_generated(gs, 255)
    assert len(products) > walked
    tag = classify_generated(gs, 256)
    assert (tag.name, tag.idempotents) == ("General", 256)
    assert gs._closure is None and gs._over_cap == 0


def _brandt_over_symmetric(k, m):
    """B(S_k, m) on m blocks of k points: S_k on block 0 from a k-cycle
    and a transposition, and the maps of block i onto block i + 1.  It
    has m^2 k! + 1 elements and m + 1 idempotents."""
    n = k * m
    blank = (None,) * (n - k)
    gens = [PartialBijection(n, tuple((i + 1) % k for i in range(k)) + blank),
            PartialBijection(n, (1, 0) + tuple(range(2, k)) + blank)]
    for b in range(m - 1):
        images = [None] * n
        images[b * k:(b + 1) * k] = range((b + 1) * k, (b + 2) * k)
        gens.append(PartialBijection(n, images))
    return GeneratorSystem(gens, degree=n)


def test_dispatch_on_large_brandt_systems_never_enumerates():
    # B(S_12, 4) and B(S_50, 5) are strict inverse and far past the
    # default cap, with 5 and 6 idempotents: the split reads E(U) and the
    # sis solver decides, and no closure is started
    for k, m in ((12, 4), (50, 5)):
        gs = _brandt_over_symmetric(k, m)
        # the k-cycle on block 0, then block 0 onto block m - 1
        member = gs.generators[0]
        for shift in gs.generators[3::2]:
            member = gs.mul(member, shift)
        assert member.ran() == frozenset(range((m - 1) * k, m * k))
        explain = {}
        assert dispatch_member(gs, member, explain=explain)
        assert (explain["variety"], explain["classified_by"],
                explain["idempotents"]) == ("StrictInverse", "idempotents",
                                            m + 1)
        # the identity on blocks 0 and 1 has rank 2k, and every element
        # of U has rank k or 0
        assert not dispatch_member(gs, partial_identity(gs.degree,
                                                        range(2 * k)))
        assert gs._closure is None and gs._over_cap == 0


def _symmetric_group(n):
    """S_n on n points from the n-cycle and a transposition."""
    return GeneratorSystem(
        [PartialBijection(n, tuple((i + 1) % n for i in range(n))),
         PartialBijection(n, (1, 0) + tuple(range(2, n)))], degree=n)


def test_dispatch_on_s12_never_enumerates():
    # |S_12| = 479001600 is far above the cap; the group is recognised
    # from its generators and the sift and set transporter decide
    n = 12
    gs = _symmetric_group(n)
    reversal = PartialBijection(n, tuple(range(n - 1, -1, -1)))
    half = PartialBijection(n, tuple(range(n - 1)) + (None,))
    explain = {}
    assert dispatch_member(gs, reversal, cap=1000, explain=explain)
    assert explain["variety"] == "Group"
    assert explain["classified_by"] == "generators"
    assert not dispatch_member(gs, half, cap=1000)
    # two 3-cycles are conjugate in S_12; a 3-cycle and a transposition
    # are not
    s = PartialBijection(n, (1, 2, 0) + tuple(range(3, n)))
    t = PartialBijection(n, tuple(range(n - 3)) + (n - 2, n - 1, n - 3))
    ok, u = dispatch_conjugate(gs, s, t, cap=1000)
    assert ok
    ub = gs.inv(u)
    assert gs.mul(gs.mul(ub, s), u) == t and gs.mul(gs.mul(u, t), ub) == s
    assert dispatch_conjugate(gs, s, gs.generators[1], cap=1000) == (
        False, None)
    assert gs._closure is None


def test_explicit_solvers_are_checked_against_the_classification():
    order = ("Trivial", "Semilattice", "Group", "Clifford",
             "StrictInverse", "General")
    # the varieties each explicit solver is exact on
    below = {"group": {"Trivial", "Group"},
             "sis": set(order) - {"General"}}
    assert set(below) == set(VARIETY_OF)
    rng = random.Random(7)
    for gs, name in sample_systems(rng, 4, degrees=(2, 4),
                                   closure_cap=200):
        elements = list(close(gs).elements)
        s, t = rng.choice(elements), rand_pb(rng, gs.degree)
        for solver, varieties in below.items():
            if name in varieties:
                # an accepted solver is exact on U
                variety = route(gs, solver)
                assert SOLVERS[variety] == solver
                assert (solve(variety, "member", gs, t)[0]
                        == naive_member(gs, t)[0])
                assert (solve(variety, "conj", gs, s, t)[0]
                        == naive_conjugate(gs, s, t)[0])
            else:
                with pytest.raises(ValueError):
                    route(gs, solver)


def test_route_names_an_unknown_solver():
    # a name outside auto and VARIETY_OF is refused before U is
    # classified, on every variety, past the E(U) cap too
    rng = random.Random(8)
    systems = [gs for gs, _ in sample_systems(rng, 1, degrees=(2, 4))]
    systems.append(_symmetric_inverse_monoid(8))
    for gs in systems:
        for solver in ("clifford", "semilattice", "ct-greedy", "general",
                       "oracle", ""):
            with pytest.raises(ValueError, match="^%s$" % re.escape(
                    "unknown solver %r: expected auto, group, sis"
                    % solver)):
                route(gs, solver, cap=10)
    assert gs._variety is None and gs._over_e_cap == 0


def _fresh(gs):
    return GeneratorSystem(gs.generators, degree=gs.degree)


def _query_mix(rng, gs, count):
    """A mixed member/conj sequence over a small pool, so queries
    repeat: ("member", t) or ("conj", s, t)."""
    from helpers import rand_pb
    elements = list(close(gs).elements)
    pool = [rng.choice(elements) for _ in range(4)]
    # the first conj query is a distinct conjugate pair where there is one
    pairs = [(s, t) for s in elements[:12] for t in elements[:12]
             if s != t and naive_conjugate(gs, s, t)[0]][:1]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(count)]
    pool.append(rand_pb(rng, gs.degree))
    out = []
    for q in range(count):
        if q % 5 in (1, 3):
            out.append(("conj",) + pairs.pop(0))
        else:
            out.append(("member", rng.choice(pool)))
    return out


def _answer(gs, query):
    if query[0] == "member":
        return dispatch_member(gs, query[1])
    return dispatch_conjugate(gs, query[1], query[2])


def test_held_system_answers_as_fresh_systems_do():
    # the caches a held system builds change no answer or conjugator
    rng = random.Random(8)
    systems = sample_systems(rng, 3, degrees=(2, 5), closure_cap=300)
    systems.append((GeneratorSystem([partial_identity(3, [0, 1])],
                                    degree=3), "Trivial"))
    names = set()
    for gs, name in systems:
        names.add(name)
        for query in _query_mix(rng, gs, 15):
            assert _answer(gs, query) == _answer(_fresh(gs), query), query
    assert names == {"Trivial", "Semilattice", "Group", "Clifford",
                     "StrictInverse", "General"}


# a Group (S_4), a Clifford system (S_3 on {1,2,3} beside a partial
# transposition of {4,5}) and a strict inverse one (Brandt B(C_3, 2))
HELD_SYSTEMS = (
    ("Group", 4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
    ("Clifford", 5, [(1, 2, 0, 3, 4), (1, 0, 2, 3, 4),
                     (None, None, None, 4, 3)]),
    ("StrictInverse", 6, [(1, 2, 0, None, None, None),
                          (3, 4, 5, None, None, None)]),
)


def test_repeated_queries_build_no_new_groups_or_munn_graphs(monkeypatch):
    import invsem.groups as groups_module
    import invsem.munn as munn_module
    built = {"PermGroup": 0, "munn_graph": 0}
    perm_init = groups_module.PermGroup.__init__
    build_munn = munn_module.munn_graph

    def counted_init(self, *args):
        built["PermGroup"] += 1
        perm_init(self, *args)

    def counted_munn(*args):
        built["munn_graph"] += 1
        return build_munn(*args)

    monkeypatch.setattr(groups_module.PermGroup, "__init__", counted_init)
    monkeypatch.setattr(munn_module, "munn_graph", counted_munn)
    rng = random.Random(9)
    for name, n, images in HELD_SYSTEMS:
        gs = GeneratorSystem([PartialBijection(n, g) for g in images],
                             degree=n)
        assert classify_generated(gs).name == name
        queries = _query_mix(rng, gs, 30)
        start = dict(built)
        first = [_answer(gs, query) for query in queries]
        # some conjugate pair is distinct, so a set transporter ran
        assert any(q[0] == "conj" and q[1] != q[2] and a[0]
                   for q, a in zip(queries, first)), name
        before = dict(built)
        assert before["PermGroup"] > start["PermGroup"], name
        if name == "StrictInverse":
            assert before["munn_graph"] > start["munn_graph"]
        assert [_answer(gs, query) for query in queries] == first
        assert built == before, name


def test_conj_builds_one_permutation_group_per_group_system(monkeypatch):
    # a conjugator comes from the stabilizer chain of the group system
    # itself: no second group, such as its action on pairs, is built
    import invsem.groups as groups_module
    built = []
    perm_init = groups_module.PermGroup.__init__
    monkeypatch.setattr(groups_module.PermGroup, "__init__",
                        lambda G, *a: built.append(G) or perm_init(G, *a))
    rng = random.Random(11)
    # HELD_SYSTEMS, but with the Brandt semigroup B(S_3, 2): the
    # H-classes of B(C_3, 2) are abelian, so its conjugacy never
    # reaches a group search
    systems = HELD_SYSTEMS[:2] + (("StrictInverse", 6, [
        (1, 2, 0, None, None, None), (1, 0, 2, None, None, None),
        (3, 4, 5, None, None, None)]),)
    for name, n, images in systems:
        gs = GeneratorSystem([PartialBijection(n, g) for g in images],
                             degree=n)
        assert not hasattr(gs, "_diagonal")
        assert classify_generated(gs).name == name
        elements = close(gs).elements
        del built[:]
        found = 0
        for _ in range(40):
            s, u = rng.choice(elements), rng.choice(elements)
            t = gs.mul(gs.mul(gs.inv(u), s), u)
            found += s != t and dispatch_conjugate(gs, s, t)[0]
        assert found, name
        groups = [x._bsgs[0] for x in
                  [gs] + [H.group for H in gs._hclasses.values()]
                  if x._bsgs is not None]
        assert groups and len(built) == len(groups), name
        assert {id(G) for G in built} == {id(G) for G in groups}, name


def test_explicit_hint_rejects_a_system_outside_its_variety():
    # S_3 with a rank-2 idempotent is neither Clifford nor strict inverse
    def system():
        return GeneratorSystem([PartialBijection(3, (1, 2, 0)),
                                PartialBijection(3, (1, 0, 2)),
                                partial_identity(3, [0, 1])], degree=3)

    with pytest.raises(OutsideTractable):
        route(system(), "sis", cap=3)
    gs = system()
    for solver in ("group", "sis"):
        with pytest.raises(ValueError):
            route(gs, solver)
    assert route(system()) == "General"
    with pytest.raises(ValueError):
        # two Munn vertices dominate e: not a wrong answer under -O
        sis_min_idempotent(gs, 0b001)


def test_general_conjugate_matches_oracle_on_all_of_i3():
    # the auto route gives the oracle's answer, and a conjugator that
    # checks out, on every pair s != t of I_3, whatever the generators
    rng = random.Random(10)
    pairs = [(s, t) for s in all_partial_bijections(3)
             for t in all_partial_bijections(3) if s != t]
    varieties = set()
    for _ in range(30):
        gs = GeneratorSystem([rand_pb(rng, 3)
                              for _ in range(rng.randrange(1, 4))], degree=3)
        varieties.add(classify_generated(gs).name)
        for s, t in pairs:
            dispatched_as_the_oracle(gs, s, t)
    assert "General" in varieties


def test_general_conjugate_matches_oracle_across_the_bytes_threshold():
    # the General route reads bytes codes up to degree 255 and the
    # elements above
    for n in (255, 256):
        gs = top_points_system(n)
        assert classify_generated(gs).name == "General"
        elements = close(gs).elements
        yes = 0
        for s in elements[::15]:
            for t in elements:
                if s != t:
                    yes += dispatched_as_the_oracle(gs, s, t)[0]
        assert yes > 10


def test_general_conjugate_matches_oracle_on_conjugate_pairs():
    # t = u~ s u and its reverse over U, on I_3, I_4 and I_3 x I_2; with
    # s = e s0 e for e = u u~, also u t u~ = s, so the pair is conjugate
    rng = random.Random(11)

    def pair_system():
        gens = [direct_product([rand_pb(rng, 3), rand_pb(rng, 2)])
                for _ in range(rng.randrange(1, 4))]
        return GeneratorSystem(gens, degree=5)

    makers = [lambda n=n: GeneratorSystem(
                  [rand_pb(rng, n) for _ in range(rng.randrange(1, 4))],
                  degree=n) for n in (3, 4)] + [pair_system]
    yes = 0
    for make in makers:
        for _ in range(12):
            gs = make()
            elements = close(gs).elements
            for _ in range(15):
                u = rng.choice(elements)
                e = gs.mul(u, gs.inv(u))
                s = gs.mul(gs.mul(e, rng.choice(elements)), e)
                t = gs.mul(gs.mul(gs.inv(u), s), u)
                if s == t:
                    continue
                for a, b in ((s, t), (t, s)):
                    assert dispatched_as_the_oracle(gs, a, b)[0]
                    yes += 1
    assert yes > 150


def test_solve_answers_s_equals_t_by_the_identity_of_u1():
    # s == t is conjugate by the identity of U^1 on every route, also
    # where no element of U fixes s; the solvers behind solve take s != t
    rng = random.Random(29)
    for gs, name in sample_systems(rng, 3, degrees=(2, 5), closure_cap=300):
        s = rand_pb(rng, gs.degree)
        for variety in {name, "General"}:
            for word in (False, True):
                explain = {}
                assert solve(variety, "conj", gs, s, s, explain=explain,
                             word=word) == (True, gs.one)
                assert explain == {"solver": SOLVERS[variety]}
        assert naive_conjugate(gs, s, s) == (True, gs.one)


def test_repeated_clifford_conjugate_reads_cached_idempotents(monkeypatch):
    _, n, images = HELD_SYSTEMS[1]
    gs = GeneratorSystem([PartialBijection(n, g) for g in images], degree=n)
    assert classify_generated(gs).name == "Clifford"
    s = PartialBijection(5, (1, 0, 2, None, None))
    t = PartialBijection(5, (0, 2, 1, None, None))
    first = clifford_conjugate(gs, s, t)
    assert first[0]
    calls = []
    inv = gs.inv

    def counted(x):
        if x in gs.generators:
            calls.append(x)
        return inv(x)

    monkeypatch.setattr(gs, "inv", counted)
    assert clifford_conjugate(gs, s, t) == first
    assert calls == []


def _general_cases(rng, count):
    """`count` General systems of degree at most 7 from 1 to 3 random
    generators, each with closure at most 3000, and its queries with the
    oracle's answers: a member, a near miss (a member with its images
    permuted on the same domain), a random map, a conjugate pair
    (s, u~ s u) and a pair of members."""
    cases = []
    while len(cases) < count:
        n = rng.randrange(1, 8)
        gens = [rand_pb(rng, n) for _ in range(rng.randrange(1, 4))]
        gs = GeneratorSystem(gens, degree=n)
        if classify_from_generators(gs) is not None:
            continue
        try:
            elements = close(gs, 3000).elements
        except ClosureCapExceeded:
            continue
        if classify_generated(gs).name != "General":
            continue
        member = rng.choice(elements)
        images = [y for y in member if y is not None]
        rng.shuffle(images)
        near = PartialBijection(n, [None if y is None else images.pop()
                                    for y in member])
        s, u = rng.choice(elements), rng.choice(elements)
        conjugate = gs.mul(gs.mul(gs.inv(u), s), u)
        queries = [(t,) for t in (member, near, rand_pb(rng, n))]
        queries += [(s, conjugate), (s, rng.choice(elements))]
        answers = [naive_member(gs, *q)[0] if len(q) == 1
                   else naive_conjugate(gs, *q)[0] for q in queries]
        cases.append((gens, n, queries, answers))
    return cases


def _auto_answers(gens, n, queries, kernel=BytesCodec):
    """The auto route's answers on a fresh system, whose kernel is (an
    instance of) `kernel`, each conjugator checked against both defining
    equations and U^1."""
    gs = GeneratorSystem(gens, degree=n)
    assert gs.codec is kernel or isinstance(gs.codec, kernel)
    answers = []
    for q in queries:
        if len(q) == 1:
            answers.append(dispatch_member(gs, *q))
            continue
        ok, u = dispatch_conjugate(gs, *q)
        if ok:
            (s, t), ub = q, gs.inv(u)
            assert gs.mul(gs.mul(ub, s), u) == t
            assert gs.mul(gs.mul(u, t), ub) == s
            assert u == gs.one or dispatch_member(gs, u)
        answers.append(ok)
    assert gs._closure is None and gs._over_cap == 0
    return answers


def test_general_auto_route_matches_the_oracle(monkeypatch):
    # 2000 random General systems, on the bytes kernel and again on the
    # element kernel (as above degree 255); the auto route never calls
    # the closure
    import invsem.munn as munn_module
    import invsem.oracle as oracle_module
    cases = _general_cases(random.Random(27), 2000)
    kinds = {"member": set(), "conj": set()}
    for _, _, queries, answers in cases:
        for q, want in zip(queries, answers):
            kinds["member" if len(q) == 1 else "conj"].add(want)
    assert kinds == {"member": {True, False}, "conj": {True, False}}

    def no_closure(*args):
        raise AssertionError("the auto route enumerated U")

    assert not hasattr(munn_module, "close")
    monkeypatch.setattr(oracle_module, "close", no_closure)
    for gens, n, queries, answers in cases:
        assert _auto_answers(gens, n, queries) == answers, (gens, queries)
    monkeypatch.setattr(BytesCodec, "max_degree", -1)
    for gens, n, queries, answers in cases:
        assert _auto_answers(gens, n, queries, TupleCodec) == answers, (
            gens, queries)


def _symmetric_inverse_monoid(n):
    """I_n from the n-cycle, a transposition and a rank n-1 idempotent."""
    return GeneratorSystem(
        [PartialBijection(n, tuple((i + 1) % n for i in range(n))),
         PartialBijection(n, (1, 0) + tuple(range(2, n))),
         PartialBijection(n, tuple(range(n - 1)) + (None,))], degree=n)


def test_general_auto_route_on_i10_never_enumerates():
    # |I_10| = 234662231, far past the default cap, with 1024
    # idempotents: member and conj answer from E(U) and one D-class
    n = 10
    gs = _symmetric_inverse_monoid(n)
    reversal = PartialBijection(n, tuple(range(n - 1, -1, -1)))
    explain = {}
    assert dispatch_member(gs, reversal, explain=explain)
    assert (explain["variety"], explain["idempotents"],
            explain["dclass_idempotents"], explain["hclass_order"]) == (
        "General", 1024, 1, 3628800)
    # a partial 3-cycle on {1,2,3} and one on {8,9,10}; a partial
    # transposition is not conjugate to either
    s = PartialBijection(n, (1, 2, 0) + (None,) * (n - 3))
    t = PartialBijection(n, (None,) * (n - 3) + (n - 2, n - 1, n - 3))
    swap = PartialBijection(n, (1, 0, None) + (None,) * (n - 3))
    ok, u = dispatch_conjugate(gs, s, t)
    ub = gs.inv(u)
    assert ok and gs.mul(gs.mul(ub, s), u) == t
    assert gs.mul(gs.mul(u, t), ub) == s
    assert dispatch_member(gs, u)
    assert dispatch_conjugate(gs, s, swap) == (False, None)
    assert gs._closure is None and gs._over_cap == 0


# -- the conjugation signature ---------------------------------------------


def _signature_pairs(rng, gs, elements):
    """(s, u~ s u), a pair of random maps, and a near miss: u~ s u with
    the images of two of its points swapped."""
    n = gs.degree
    s, u = rng.choice(elements), rng.choice(elements)
    t = gs.mul(gs.mul(gs.inv(u), s), u)
    images = list(t)
    defined = [x for x in range(n) if images[x] is not None]
    if len(defined) >= 2:
        a, b = rng.sample(defined, 2)
        images[a], images[b] = images[b], images[a]
    return [(s, t), (rand_pb(rng, n), rand_pb(rng, n)),
            (s, PartialBijection(n, images))]


def test_signature_rules_out_only_pairs_that_are_not_conjugate(monkeypatch):
    # 2000 systems of every variety, 9 pairs each: a pair whose
    # signatures differ is not conjugate by the oracle, and the
    # dispatcher (which rules such pairs out first) agrees with the
    # oracle on every pair, on the bytes kernel and again on the
    # element kernel
    rng = random.Random(28)
    cases, names = [], set()
    differ = same_no = 0
    for gs, name in sample_systems(rng, 400, degrees=(2, 5),
                                   closure_cap=300):
        names.add(name)
        elements = close(gs).elements
        labels = gs.points.orbits
        for s, t in [p for _ in range(3)
                     for p in _signature_pairs(rng, gs, elements)]:
            want = naive_conjugate(gs, s, t)[0]
            if conj_signature(s, labels) != conj_signature(t, labels):
                assert not want, (gs.generators, s, t)
                differ += 1
            else:
                same_no += not want
            cases.append((gs.generators, gs.degree, s, t, want))
    assert len(cases) == 18000 and differ > 9000 and same_no > 30
    assert names >= {"Semilattice", "Group", "Clifford", "StrictInverse",
                     "General"}

    def check(gens, n, s, t, want):
        gs = GeneratorSystem(gens, degree=n)
        ok, u = dispatch_conjugate(gs, s, t)
        assert ok == want, (gens, s, t)
        if ok:
            ub = gs.inv(u)
            assert gs.mul(gs.mul(ub, s), u) == t
            assert gs.mul(gs.mul(u, t), ub) == s
        return gs.codec

    for case in cases:
        assert check(*case) is BytesCodec
    monkeypatch.setattr(BytesCodec, "max_degree", -1)
    for case in cases:
        assert isinstance(check(*case), TupleCodec)


def _with_untouched_points(rng, kind):
    """A system of `kind` on 2-6 points, padded with 1-4 points that no
    generator touches and relabelled by a random permutation, so that
    the untouched points fall anywhere."""
    n = rng.randrange(2, 7)
    m = n + rng.randrange(1, 5)
    perm = list(range(m))
    rng.shuffle(perm)
    gens = []
    for g in variety_gens(rng, kind, n, rng.randrange(1, 5)):
        images = [None] * m
        for x, y in enumerate(g):
            if y is not None:
                images[perm[x]] = perm[y]
        gens.append(PartialBijection(m, images))
    return GeneratorSystem(gens, degree=m)


def test_point_record_matches_the_orbit_search(monkeypatch):
    # 2000 systems with untouched points, on the bytes kernel and again
    # on the element kernel: the record's orbit masks partition the
    # touched points as a search from every point does, each untouched
    # x is labelled ~x, each generator mask is dom_mask of its generator,
    # and conj_signature rules out the same pairs (12 per system) under
    # the record's orbits as under the searched labels
    for bytes_kernel in (True, False):
        if not bytes_kernel:
            monkeypatch.setattr(BytesCodec, "max_degree", -1)
        rng = random.Random(37)
        differ = same = untouched = 0
        for i in range(2000):
            gs = _with_untouched_points(rng, KINDS[i % len(KINDS)])
            assert (gs.codec is BytesCodec if bytes_kernel
                    else isinstance(gs.codec, TupleCodec))
            masks, orbits = gs.points
            assert masks == tuple(map(dom_mask, gs.generators))
            touched = {x for g in gs.generators
                       for x, y in enumerate(g) if y is not None}
            labels = orbit_labels(gs)
            for x in range(gs.degree):
                assert orbits[x] == (
                    sum(1 << y for y in touched if labels[y] == labels[x])
                    if x in touched else ~x), (gs.generators, x)
            untouched += gs.degree - len(touched)
            words = []
            for _ in range(8):
                w = rng.choice(gs.generators)
                for _ in range(rng.randrange(4)):
                    w = gs.mul(w, rng.choice(gs.generators))
                words.append(w)
            pairs = [p for _ in range(3)
                     for p in _signature_pairs(rng, gs, words)]
            for _ in range(3):  # one edge each, often on untouched points
                a, b, c, d = (rng.sample(range(gs.degree), 2)
                              + rng.sample(range(gs.degree), 2))
                pairs.append((from_pairs(gs.degree, [(a, b)]),
                              from_pairs(gs.degree, [(c, d)])))
            for s, t in pairs:
                ruled_out = conj_signature(s, orbits) != conj_signature(
                    t, orbits)
                assert ruled_out == (conj_signature(s, labels)
                                     != conj_signature(t, labels))
                differ += ruled_out
                same += not ruled_out
        assert differ > 15000 and same > 5000 and untouched > 5000, (
            differ, same, untouched)


def _reach_and_union_calls(monkeypatch):
    """A list that records every search.reach call (in each invsem
    namespace that holds it) by its seeds and every UnionFind.union by
    its arguments."""
    calls = []
    real_reach, real_union = search.reach, search.UnionFind.union

    def counting_reach(seeds, maps, reached=None):
        seeds = list(seeds)
        calls.append(("reach", seeds))
        return real_reach(seeds, maps, reached)

    for name, module in list(sys.modules.items()):
        if name == "invsem" or name.startswith("invsem."):
            for key, value in list(vars(module).items()):
                if value is real_reach:
                    monkeypatch.setattr(module, key, counting_reach)
    monkeypatch.setattr(search.UnionFind, "union", lambda uf, a, b: (
        calls.append(("union", [a, b])) or real_union(uf, a, b)))
    return calls


def test_point_record_starts_nothing_at_an_untouched_point(monkeypatch):
    # B(S_3, 2) padded to 500 points touches 6 of them, in one orbit:
    # its point record makes one union per generator edge and no search,
    # where a search from every point made 495 reach calls from
    # untouched ones; a first member and a first conj then start no
    # search either
    calls = _reach_and_union_calls(monkeypatch)
    gs = padded(GeneratorSystem([PartialBijection(6, g) for g in (
        (1, 0, 2, None, None, None), (1, 2, 0, None, None, None),
        (3, 4, 5, None, None, None))], degree=6), 500)
    masks, orbits = gs.points
    assert calls and all(op == "union" and max(args) < 6
                         for op, args in calls)
    assert len(calls) == sum(bin(m).count("1") for m in masks)
    assert orbits == (0b111111,) * 6 + tuple(
        ~x for x in range(6, 500))
    del calls[:]
    target = PartialBijection(500, (4, 3, 5) + (None,) * 497)
    assert dispatch_member(gs, target)
    s = PartialBijection(500, (1, 0) + (None,) * 498)
    t = PartialBijection(500, (None,) * 3 + (4, 3) + (None,) * 495)
    assert dispatch_conjugate(gs, s, t)[0]
    assert not any(op == "reach" for op, _ in calls)


def test_equal_signatures_still_reach_the_group_search():
    # A_5: (1 2 3 4 5) and (1 2 3 5 4) share a cycle type and the one
    # orbit, so their signatures agree, but they lie in the two classes
    # that the 5-cycles of S_5 split into
    n = 5
    gs = GeneratorSystem([PartialBijection(n, (1, 2, 3, 4, 0)),
                          PartialBijection(n, (1, 2, 0, 3, 4))], degree=n)
    s = PartialBijection(n, (1, 2, 3, 4, 0))
    t = PartialBijection(n, (1, 2, 4, 0, 3))
    labels = gs.points.orbits
    assert labels == ((1 << n) - 1,) * n
    assert conj_signature(s, labels) == conj_signature(t, labels)
    explain = {}
    assert dispatch_conjugate(gs, s, t, explain=explain) == (False, None)
    assert "signature" not in explain and gs._bsgs is not None
    assert naive_conjugate(gs, s, t) == (False, None)
    assert dispatch_conjugate(gs, s, gs.mul(gs.mul(gs.inv(s), s), s))[0]


def test_signature_answers_before_any_solver_cache_is_built():
    # one pair per variety that the signature rules out: a 3-cycle
    # against a transposition, or against three fixed points
    S4 = [(1, 2, 3, 0), (1, 0, 2, 3)]
    cases = (
        ("Group", 4, S4, (1, 2, 0, 3), (1, 0, 2, 3)),
        ("Clifford", 5, [(1, 2, 0, 3, 4), (1, 0, 2, 3, 4),
                         (None, None, None, 4, 3)],
         (1, 2, 0, 3, 4), (1, 0, 2, 3, 4)),
        ("StrictInverse", 6, [(1, 2, 0, None, None, None),
                              (3, 4, 5, None, None, None)],
         (1, 2, 0, None, None, None), (0, 1, 2, None, None, None)),
        ("General", 4, S4 + [(0, 1, 2, None)],
         (1, 2, 0, None), (1, 0, None, None)),
    )
    for name, n, images, s, t in cases:
        gs = GeneratorSystem([PartialBijection(n, g) for g in images],
                             degree=n)
        s, t = PartialBijection(n, s), PartialBijection(n, t)
        explain = {}
        assert dispatch_conjugate(gs, s, t, explain=explain) == (False, None)
        assert (explain["variety"], explain["signature"]) == (name,
                                                             "differs")
        assert (gs._bsgs, gs._munn, gs._hclasses, gs._closure) == (
            None, {}, {}, None), name
        assert naive_conjugate(gs, s, t) == (False, None)


def test_mask_meets_match_the_composed_reference():
    # the least idempotents above, read off domain masks, against
    # products of idempotents: the Clifford e-hat over the generators'
    # u u~, the SIS anchor and its e-hat, and the General least
    # idempotent of E(U) above dom x | ran x; on 500 systems of each kind
    # as generated (bytes codes) and padded to 256 points (the system's
    # own elements)
    rng = random.Random(31)
    checked = Counter()
    for kind in KINDS:
        for _ in range(500):
            n = rng.randrange(2, 7)
            small = GeneratorSystem(
                variety_gens(rng, kind, n, rng.randrange(1, 5)), degree=n)
            x_small = rand_pb(rng, n)
            for gs in (small, padded(small, 256)):
                m = gs.degree
                kernel = "bytes" if m == n else "elements"
                tag = classify_generated(gs)
                idems = [gs.mul(u, gs.inv(u)) for u in gs.generators]
                for _ in range(3):
                    pts = rng.sample(range(n), rng.randrange(n + 1))
                    if rng.random() < 0.2:
                        pts.append(m - 1)  # untouched past the generators
                    e = partial_identity(m, pts)
                    want = idempotent_meet(gs, idems, e)
                    assert least_above(gs.points.masks, dom_mask(e)) == (
                        -1 if want is None else dom_mask(want))
                    checked[kernel, "clifford"] += 1
                    if tag.is_strict_inverse():
                        want = sis_min_idempotent_scan(gs, e)
                        assert sis_min_idempotent(gs, dom_mask(e)) == (
                            -1 if want is None else dom_mask(want))
                        checked[kernel, "sis", want is None] += 1
                if tag.name == "General":
                    ops = gs.codec
                    x = padded(GeneratorSystem([x_small], degree=n),
                               m).generators[0] if m > n else x_small
                    e = partial_identity(m, x.domain() | x.ran())
                    want = idempotent_meet(
                        gs, [ops.decode(f) for f in gs._d_roots], e)
                    assert munn_module._least_above(gs, x) == (
                        None if want is None else ops.encode(want))
                    checked[kernel, "general", want is None] += 1
    for kernel in ("bytes", "elements"):
        assert checked[kernel, "clifford"] == 3 * 500 * len(KINDS)
        for check in ("sis", "general"):
            assert min(checked[kernel, check, False],
                       checked[kernel, check, True]) > 50, (kernel, check)


def test_dispatch_rejects_a_cayley_table_system():
    # the dispatcher's solvers read partial bijections: on S_3's Cayley
    # table both calls end in a ValueError that names the pb model
    gs = GeneratorSystem([PartialBijection(3, (1, 2, 0)),
                          PartialBijection(3, (1, 0, 2))], degree=3)
    table, index = from_closure(close(gs).elements, gs.mul)
    ct = GeneratorSystem([index[g] for g in gs.generators], table=table)
    with pytest.raises(ValueError, match="pb model"):
        dispatch_member(ct, 2)
    with pytest.raises(ValueError, match="pb model"):
        dispatch_conjugate(ct, 1, 2)


# the caches of a system by invariant set, Munn component or e-hat: they
# fill as queries reach new ones, up to the size of U's structure
_STRUCTURE_CACHES = ("_munn", "_hclasses")
# the per-system caches that held queries read, each fixed by U alone
_SYSTEM_CACHES = ("points", "_group_points", "_e_masks")


def _cache_sizes(gs):
    """(system, attribute) -> the length of its repr, for every container
    held on gs or its H-class groups but the structure caches."""
    sizes = {}
    for x in [gs] + [H.group for H in gs._hclasses.values()]:
        for name, value in vars(x).items():
            if (name not in _STRUCTURE_CACHES
                    and isinstance(value, (tuple, list, dict, set))):
                sizes[id(x), name] = len(repr(value))
    return sizes


def _subpower_b2(rng, blocks, k):
    """k random generators of a subpower of B_2: on each 2-point block
    one of the four non-zero elements of B_2; one orbit per block."""
    gens = []
    for _ in range(k):
        images = [None] * (2 * blocks)
        for b in range(blocks):
            x, y = rng.randrange(2), rng.randrange(2)
            images[2 * b + x] = 2 * b + y
        gens.append(PartialBijection(2 * blocks, images))
    return gens


def test_held_queries_leave_the_per_system_caches_bounded():
    # 2000 random held queries: no cache that U alone determines grows
    # after the first 100, the orbit masks of a U with 8 orbits included
    rng = random.Random(17)
    S4 = [(1, 2, 3, 0), (1, 0, 2, 3)]
    systems = (
        ("Clifford", GeneratorSystem([PartialBijection(5, g) for g in
                                      HELD_SYSTEMS[1][2]], degree=5)),
        ("StrictInverse", GeneratorSystem(_subpower_b2(rng, 8, 4),
                                          degree=16)),
        ("General", GeneratorSystem([PartialBijection(4, g) for g in
                                     S4 + [(0, 1, 2, None)]], degree=4)),
    )
    used = set()
    for name, gs in systems:
        assert classify_generated(gs).name == name
        n, gens = gs.degree, gs.generators

        def word():
            out = rng.choice(gens)
            for _ in range(rng.randrange(6)):
                out = gs.mul(out, rng.choice(gens))
            return out

        def element():
            return word() if rng.random() < 0.7 else rand_pb(rng, n)

        for call in range(2000):
            if call % 2:
                dispatch_member(gs, element())
            else:
                s = element()
                u = word()
                t = gs.mul(gs.mul(gs.inv(u), s), u)
                dispatch_conjugate(gs, s, t if rng.random() < 0.5
                                   else element())
            if call == 99:
                early = _cache_sizes(gs)
        late = _cache_sizes(gs)
        for key, size in late.items():
            assert size <= early.get(key, size), (name, key)
        used.update(cache for _, cache in late)
    assert used >= set(_SYSTEM_CACHES)


def _sis_systems(rng):
    """(gs, elements, big) for 300 strict inverse systems (or in a
    smaller variety): 150 with a Munn graph of several components, about
    30% of those disjoint unions, and 150 from sample_sis_systems; every
    third also with big set, to be padded to 256 points."""
    systems = (sample_multi_component_sis(rng, 150)
               + sample_sis_systems(rng, 150, degrees=(2, 6)))
    assert len(systems) == 300
    return [(gs, elements, big) for i, (gs, elements) in enumerate(systems)
            for big in (False, True)[:1 + (i % 3 == 0)]]


def test_sis_records_read_ehat_off_one_basis_per_component():
    # for every Munn vertex v at the orbit closure of an idempotent of U:
    # e-hat at v is gamma~ e-hat_c gamma for gamma = gamma(v) of the
    # basis at the component's first vertex c, and is the least mask of
    # E(U) above v; a component's vertices lie in E(U) all or none, as
    # the record's group says; every rep r_w has r_w r_w~ = c and
    # r_w~ r_w = w
    rng = random.Random(41)
    counts = Counter()
    for small, elements, big in _sis_systems(rng):
        gs = padded(small, 256) if big else small
        ops, mul, inv = gs.codec, gs.mul, gs.inv
        e_masks = {dom_mask(x) for x in elements if x.is_idempotent()}
        deltas = {orbit_closure(gs, e) for e in e_masks} - {0}
        for delta in deltas:
            M = munn_graph(gs, delta)
            for cid in set(M.comp):
                H = munn_module.sis_class(gs, M, cid)
                c = M.comp.index(cid)
                ce = ops.decode(idempotent_of(gs, M.vertices[c]))
                ehat_c = ops.decode(idempotent_of(gs, H.basis.ehat))
                in_e = set()
                for v, gamma in H.basis.gamma.items():
                    w = M.vertices[v]
                    want = least_above(e_masks, w)
                    gamma = ops.decode(gamma)
                    ehat = mul(mul(inv(gamma), ehat_c), gamma)
                    assert dom_mask(ehat) == want, (gs, v)
                    assert sis_min_idempotent(gs, w) == want
                    in_e.add(w in e_masks)
                    r = ops.decode(H.reps[w])
                    assert mul(r, inv(r)) == ce
                    assert mul(inv(r), r) == ops.decode(idempotent_of(gs, w))
                    counts[big, "vertex"] += 1
                assert len(in_e) == 1 and in_e == {H.group is not None}
                assert sorted(H.basis.gamma) == [
                    v for v in range(len(M.comp)) if M.comp[v] == cid]
                counts[big, "in E(U)", H.group is not None] += 1
    for big in (False, True):
        assert counts[big, "vertex"] > 100, counts
        assert min(counts[big, "in E(U)", True],
                   counts[big, "in E(U)", False]) > 5, counts


def test_strict_inverse_solver_matches_the_oracle_on_multi_component_systems():
    # 1500 systems with a Munn graph of several components, about 30% of
    # them disjoint unions, each as generated (bytes codes) and padded to
    # 256 points (the system's own elements): member and conj answer as
    # the oracle does, and each conjugator lies in U^1
    rng = random.Random(43)
    counts = Counter()
    for small, elements in sample_multi_component_sis(rng, 1500):
        n = small.degree
        queries = []
        for _ in range(2):
            t = rng.choice(elements) if rng.random() < 0.7 else rand_pb(rng, n)
            queries.append(("member", t))
            # s below u u~ = e, so u~ s u is conjugate to s
            s, u = rng.choice(elements), rng.choice(elements)
            mul, e = small.mul, small.mul(u, small.inv(u))
            s = mul(mul(e, s), e)
            t = (mul(mul(small.inv(u), s), u) if rng.random() < 0.6
                 else rng.choice(elements))
            queries.append(("conj", s, t))
        want = [naive_member(small, *q[1:])[0] if q[0] == "member"
                else naive_conjugate(small, *q[1:])[0] for q in queries]
        members = set(elements)
        for gs in (small, padded(small, 256)):
            m = gs.degree
            for query, expected in zip(queries, want):
                xs = [PartialBijection(m, tuple(x) + (None,) * (m - n))
                      for x in query[1:]]
                ok, u = solve("StrictInverse", query[0], gs, *xs)
                assert ok == expected, (gs, query)
                counts[m > 255, query[0], ok] += 1
                if query[0] == "conj" and ok:
                    assert u == gs.one or (
                        not any(u[n:]) and
                        PartialBijection(n, u[:n]) in members), (gs, query)
    for big in (False, True):
        for query in ("member", "conj"):
            assert min(counts[big, query, True],
                       counts[big, query, False]) > 200, counts


def test_held_sis_queries_keep_one_record_per_munn_component(monkeypatch):
    # held member and conj queries build one basis, and keep one "sis"
    # record, per Munn component that they reach: none at ran t, and
    # none per queried vertex
    built = []
    basis_at = munn_module.basis_at
    monkeypatch.setattr(munn_module, "basis_at", lambda gs, M, anchor: (
        built.append((M.delta, M.comp[anchor])) or basis_at(gs, M, anchor)))
    rng = random.Random(47)
    reached = 0
    for gs, elements in sample_multi_component_sis(rng, 40):
        del built[:]
        for _ in range(30):
            s, u = rng.choice(elements), rng.choice(elements)
            dispatch_member(gs, s)
            dispatch_conjugate(gs, s, gs.mul(gs.mul(gs.inv(u), s), u))
        records = [key[1:] for key in gs._hclasses if key[0] == "sis"]
        components = {(delta, c) for delta, M in gs._munn.items()
                      for c in M.comp}
        assert sorted(built) == sorted(records), gs
        assert set(records) <= components, gs
        reached += len(records)
    assert reached > 80


def _perm_gens(n, pts, support):
    """A cycle on pts and a transposition of its first two points, each
    the identity on the rest of `support` and undefined off it."""
    out = []
    for cycle in (pts, pts[:2])[:1 + (len(pts) > 2)]:
        images = [x if x in support else None for x in range(n)]
        for i, x in enumerate(cycle):
            images[x] = cycle[(i + 1) % len(cycle)]
        out.append(images)
    return out


def _session_families(rng):
    """(name, generator images) for the pb-session families S6, SL8,
    C322, C44, B2x4, B4x2, I4 and I3xI3, each on 8 points."""
    n = 8

    def clifford(sizes, subsets):
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        blocks = [list(range(a, a + k)) for a, k in zip(starts, sizes)]
        return [g for sub in subsets for i in sub
                for g in _perm_gens(n, blocks[i],
                                    {x for j in sub for x in blocks[j]})]

    def brandt(m, b):
        first = list(range(m))
        return _perm_gens(n, first, set(first)) + [
            [j * m + x if x < m else None for x in range(n)]
            for j in range(1, b)]

    def ident(points):
        return [x if x in points else None for x in range(n)]

    return [
        ("S6", _perm_gens(n, list(range(6)), set(range(6)))),
        ("SL8", [ident({x for x in range(n) if rng.random() < 0.6})
                 for _ in range(7)]),
        ("C322", clifford((3, 2, 2), [(0, 1), (1, 2), (0, 2)])),
        ("C44", clifford((4, 4), [(0, 1), (0,), (1,)])),
        ("B2x4", brandt(2, 4)), ("B4x2", brandt(4, 2)),
        ("I4", _perm_gens(n, [0, 1, 2, 3], set(range(4)))
         + [ident({0, 1, 2})]),
        ("I3xI3", _perm_gens(n, [0, 1, 2], set(range(6)))
         + _perm_gens(n, [3, 4, 5], set(range(6)))
         + [ident({0, 1, 3, 4, 5}), ident({3, 4, 0, 1, 2})]),
    ]


def test_solver_side_multiplies_codes_only(monkeypatch):
    # on the bytes kernel the classification, the Munn graphs, bases and
    # H-class records multiply codes of gs.codec: a first and a held
    # auto-route member on a fresh system of each pb-session family make
    # no gensys.compose call, and a conj makes only those of the
    # defining-equation asserts in group_conjugate and munn._transport
    import sys
    from invsem import gensys
    rng = random.Random(53)
    callers = []
    compose = gensys.compose

    def counted(a, b):
        callers.append(sys._getframe(2).f_code.co_name)
        return compose(a, b)

    answers = Counter()
    for name, gens in _session_families(rng):
        n = len(gens[0])
        gens = [PartialBijection(n, g) for g in gens]
        word = [rng.choice(gens) for _ in range(4)]
        gens.append(word[0] * word[1] * word[2] * word[3])
        gs = GeneratorSystem(gens, degree=n)
        assert gs.codec is BytesCodec
        elements = list(close(GeneratorSystem(gens, degree=n)).elements)
        ts = [rng.choice(elements) for _ in range(4)]
        pairs = []
        for _ in range(6):
            s, u = rng.choice(elements), rng.choice(elements)
            e = u * u.inverse()
            s = e * s * e
            pairs.append((s, u.inverse() * s * u))
        with monkeypatch.context() as m:
            m.setattr(gensys, "compose", counted)
            for t in ts + [rand_pb(rng, n)]:
                answers[name, "member", dispatch_member(gs, t)] += 1
                assert callers == [], (name, callers)
            for s, t in pairs:
                ok, _ = dispatch_conjugate(gs, s, t)
                assert set(callers) <= {"group_conjugate", "_transport"}, (
                    name, callers)
                assert len(callers) % 4 == 0 and (ok or not callers), (
                    name, callers)
                answers[name, "conj", ok] += 1
                answers.update(set(callers))
                del callers[:]
    for name, _ in _session_families(rng):
        assert answers[name, "member", True] >= 4, answers
        assert answers[name, "conj", True] >= 3, answers
    assert min(answers["group_conjugate"], answers["_transport"]) > 5


def test_generators_are_encoded_once_per_system(monkeypatch):
    # the classification, the E(U) walk, Munn bases and H-class records
    # read the generator codes the system keeps: a first and a held
    # auto member and conj on a fresh system of each pb-session family
    # encode each generator at most once
    rng = random.Random(54)
    encoded = []
    encode = BytesCodec.encode
    monkeypatch.setattr(BytesCodec, "encode", staticmethod(
        lambda x: encoded.append(x) or encode(x)))
    for name, gens in _session_families(rng):
        n = len(gens[0])
        gs = GeneratorSystem([PartialBijection(n, g) for g in gens],
                             degree=n)
        # the queries are new objects, so that encodes of them are not
        # counted as encodes of a generator they may equal
        s = gs.mul(rng.choice(gs.generators), rng.choice(gs.generators))
        u = rng.choice(gs.generators)
        for _ in range(2):
            dispatch_member(gs, s)
            dispatch_conjugate(gs, s, gs.mul(gs.mul(gs.inv(u), s), u))
        counts = Counter(map(id, encoded))
        assert max(counts[id(g)] for g in gs.generators) == 1, name
        del encoded[:]
