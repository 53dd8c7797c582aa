"""Schreier-Sims machinery, group membership, set transporters and
conjugators."""

import hashlib
import math
import random
import sys

import pytest

from invsem.pbij import PartialBijection
from invsem.gensys import GeneratorSystem
from invsem.oracle import close, naive_conjugate
from invsem.formats import PBInstance, image_line, serialize
from invsem.cli import main
from invsem.groups import (PermGroup, set_transporter, perm_group_of,
                           pb_group_member, group_conjugate, group_domain)

from helpers import rand_pb, rand_perm_on
from reference import group_domain_by_sets, group_elements


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
    listed = {p for p, _ in group_elements(G)}
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
        elements = _brute_order(gens, m)
        brute = any(frozenset(p[x] for x in ds) == dt for p in elements)
        assert (found is not None) == brute
        if found is not None:
            assert found in elements
            assert frozenset(found[x] for x in ds) == dt
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
        for j, lvl in enumerate(G.levels):
            words = G.rep_words([(j, x) for x in lvl.transversal])
            for (x, (r, ir, x0, s)), rw in zip(lvl.transversal.items(),
                                               words):
                assert tuple(ir[r[y]] for y in range(m)) == G.identity, name
                assert r[lvl.b] == x and ir[x] == lvl.b
                # the Schreier vector: rep(x) = rep(x0) s
                if x == lvl.b:
                    assert x0 is None and s is None
                else:
                    r0 = lvl.transversal[x0][0]
                    assert all(s.perm[r0[y]] == r[y] for y in range(m))
                assert _replay(G, rw) == tuple(r[:m]), name


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
                assert found in elements
                assert frozenset(found[x] for x in ds) == dt


def _bsgs_record(G):
    """A build as plain data: per level its base point, its transversal
    in order (point, rep, inverse, parent point, Schreier generator) and
    its stored generators; per strong generator its table, how it was
    made and its strip."""
    m = G.m

    def serial(s):
        return None if s is None else s.serial

    levels = [(lvl.b, [(x, tuple(r[:m]), tuple(ir[:m]), x0, serial(s))
                       for x, (r, ir, x0, s) in lvl.transversal.items()],
               [s.serial for s in lvl.gens]) for lvl in G.levels]
    strong = [(tuple(s.perm[:m]), s.serial,
               s.how if isinstance(s.how, int)
               else (s.how[0], s.how[1], s.how[2].serial, s.how[3]),
               s.strip) for s in G.strong]
    return levels, strong


def test_bsgs_of_random_groups_is_pinned():
    # the digest of every build decision over 400 random groups (half
    # of them moving a random subset of points) and the structured
    # groups of this file, on both sides of the bytes threshold; it is
    # the digest of the build that sifted every Schreier generator from
    # level 0
    rng = random.Random(7)
    groups = []
    for k in range(400):
        m = rng.randrange(2, 13)
        pool = (range(m) if k % 2 else
                rng.sample(range(m), rng.randrange(2, m + 1)))
        gens = [tuple(rand_perm_on(rng, m, rng.sample(
                    pool, rng.randrange(2, len(pool) + 1))).images)
                for _ in range(rng.randrange(1, 4))]
        groups.append(([tuple(x if y is None else y
                              for x, y in enumerate(g)) for g in gens], m))
    groups += [(gens, m) for _, gens, m in STORED_INVERSE_GROUPS]
    groups += [(gens, m) for m in (255, 256, 257) for gens in _near_top(m)]
    records = repr([_bsgs_record(PermGroup(gens, m)) for gens, m in groups])
    assert hashlib.sha256(records.encode()).hexdigest() == (
        "3c7e4cd965b57dd3ece2ff23c4356cf3d60d83866758a89f4b9b4ddf5f9c7fed")


def test_schreier_sims_sifts_no_tree_edge(monkeypatch):
    # rep(x) s rep(y)^-1 is the identity where y entered the transversal
    # from (x, s), so the build never sifts it.  Each sift that
    # _find_violation makes is recorded from its loop variables: level
    # j, point x, strong generator s.
    sifted = []
    strip = PermGroup._strip

    def recording(G, p, start=0, pts=None):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_find_violation":
            names = caller.f_locals
            sifted.append((G, names["j"], names["x"], names["s"]))
        return strip(G, p, start, pts)

    monkeypatch.setattr(PermGroup, "_strip", recording)
    a8 = [(1, 2, 0, 3, 4, 5, 6, 7), (0, 2, 3, 4, 5, 6, 7, 1)]
    for name, gens, m in [("S8", _sym(8), 8),
                          ("A8", a8, 8)] + STORED_INVERSE_GROUPS:
        del sifted[:]
        G = PermGroup(gens, m)
        assert G.order == {"S8": 40320, "A8": 20160}.get(name, G.order)
        assert sifted, name
        tree = {(j, x0, s.serial) for j, lvl in enumerate(G.levels)
                for x0, s in [t[2:] for t in lvl.transversal.values()]
                if s is not None}
        assert tree, name
        for H, j, x, s in sifted:
            assert H is G
            assert (j, x, s.serial) not in tree, (name, j, x, s.serial)


def test_symmetric_group_of_degree_30():
    G = PermGroup(_sym(30), 30)
    assert G.order == math.factorial(30)
    assert [lvl.b for lvl in G.levels] == list(range(29))


def _near_top(m):
    """A small group moving the last points of degree m (a 3-cycle on
    the top three and a transposition of 0 with the top point) and one
    that also moves points 1 and 2."""
    top = m - 1

    def perm(*cycles):
        p = list(range(m))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                p[a] = b
        return tuple(p)

    return [[perm((top - 2, top - 1, top)), perm((0, top))],
            [perm((1, 2, top)), perm((top - 1, top)), perm((0, top - 2))]]


@pytest.mark.parametrize("m", [255, 256, 257])
def test_both_sides_of_the_bytes_threshold(m):
    rng = random.Random(m)
    for gens in _near_top(m):
        G = PermGroup(gens, m)
        elements = _brute_order(gens, m)
        assert G.order == len(elements)
        for p in elements:
            ok, word = G.contains(p)
            assert ok and _replay(G, word) == p
        moved = sorted({x for g in gens for x in range(m) if g[x] != x})
        for p in rng.sample(sorted(elements), 5):
            # a transposition of two moved points, mostly outside G
            a, b = rng.sample(moved, 2)
            q = list(p)
            q[a], q[b] = q[b], q[a]
            assert G.contains(tuple(q))[0] == (tuple(q) in elements)
        for _ in range(40):
            k = rng.randrange(1, 4)
            pool = moved + [3, 4, m // 2]
            ds = frozenset(rng.sample(pool, k))
            dt = frozenset(rng.sample(pool, k))
            found = set_transporter(G, ds, dt)
            assert (found is not None) == any(
                frozenset(p[x] for x in ds) == dt for p in elements)
            if found is not None:
                assert found in elements
                assert frozenset(found[x] for x in ds) == dt


@pytest.mark.parametrize("n", [255, 256, 257])
def test_group_conjugate_on_both_sides_of_the_bytes_threshold(n):
    rng = random.Random(n)
    # the dihedral group of the n-gon: every point is in the domain, and
    # n = 255 is the last degree whose tables are bytes
    rotation = PartialBijection(n, tuple((i + 1) % n for i in range(n)))
    reflection = PartialBijection(n, tuple((-i) % n for i in range(n)))
    gs = GeneratorSystem([rotation, reflection], degree=n)
    G = perm_group_of(gs)[0]
    assert G.order == 2 * n and (G._id == bytes(range(256))) == (n < 256)
    elements = sorted(close(gs).elements)
    answers = set()
    for _ in range(60):
        s = rng.choice(elements)
        t = rng.choice(elements)
        if rng.random() < 0.3:
            # a partial bijection on the domain, outside U
            t = rand_perm_on(rng, n, rng.sample(range(n), rng.randrange(1, n)))
            s = t if rng.random() < 0.2 else rand_perm_on(
                rng, n, rng.sample(range(n), len(t.domain())))
        ok, u = group_conjugate(gs, s, t)
        assert ok == naive_conjugate(gs, s, t)[0]
        if ok:
            ub = gs.inv(u)
            assert gs.mul(gs.mul(ub, s), u) == t
            assert gs.mul(gs.mul(u, t), ub) == s
        answers.add(ok)
    assert answers == {True, False}
    perms = [tuple(g) for g in elements]
    answers = set()
    for _ in range(30):
        ds = frozenset(rng.sample(range(n), rng.randrange(1, 4)))
        dt = frozenset(rng.sample(range(n), len(ds)))
        if rng.random() < 0.5:
            dt = frozenset(rng.choice(perms)[x] for x in ds)
        found = set_transporter(G, ds, dt)
        assert (found is not None) == any(
            frozenset(p[x] for x in ds) == dt for p in perms)
        if found is not None:
            assert found in perms and frozenset(found[x] for x in ds) == dt
        answers.add(found is not None)
    assert answers == {True, False}


def _random_group_system(rng):
    """A group GeneratorSystem of degree 2-9 and order at most 720: one
    to three permutations of random parts of a common domain."""
    while True:
        n = rng.randrange(2, 10)
        dom = [x for x in range(n) if rng.random() < 0.8] or [0]
        gens = []
        for _ in range(rng.randrange(1, 4)):
            part = rng.sample(dom, rng.randrange(1, len(dom) + 1))
            images = list(rand_perm_on(rng, n, part))
            gens.append(PartialBijection(n, [
                y if y is not None or x not in dom else x
                for x, y in enumerate(images)]))
        gs = GeneratorSystem(gens, degree=n)
        if perm_group_of(gs)[0].order <= 720:
            return gs, dom


def test_group_conjugate_agrees_with_the_oracle_and_verify(tmp_path,
                                                           capsys):
    rng = random.Random(10)
    instance, answer = tmp_path / "g.pb", tmp_path / "g.answer"
    answers = {True: 0, False: 0}
    for _ in range(1000):
        gs, dom = _random_group_system(rng)
        n = gs.degree
        elements = close(gs).elements
        s = (rng.choice(elements) if rng.random() < 0.5 else
             rand_perm_on(rng, n, rng.sample(dom, rng.randrange(1, len(dom)
                                                                 + 1))))
        s = PartialBijection(n, [None if rng.random() < 0.3 else y
                                 for y in s])
        u = rng.choice(elements)
        t = (gs.mul(gs.mul(gs.inv(u), s), u) if rng.random() < 0.6 else
             PartialBijection(n, rng.sample(list(s), n)))
        ok, u = group_conjugate(gs, s, t)
        assert ok == naive_conjugate(gs, s, t)[0], (gs.generators, s, t)
        answers[ok] += 1
        if ok:
            instance.write_text(serialize(PBInstance(
                n, list(gs.generators), s=s, t=t)))
            answer.write_text("YES\n%s\n" % image_line("conjugator", u))
            assert main(["verify", "conj", str(instance), str(answer)]) == 0
            assert capsys.readouterr().out == "OK\n"
    assert min(answers.values()) > 200


def test_no_word_is_expanded_unless_printed(tmp_path, capsys, monkeypatch):
    from invsem.munn import dispatch_member, dispatch_conjugate
    from invsem.cli import main
    from helpers import sample_systems
    calls = []
    expand = PermGroup.rep_words
    monkeypatch.setattr(PermGroup, "rep_words",
                        lambda G, pairs: calls.append(1) or expand(G, pairs))
    rng = random.Random(6)
    routes = set()
    for gs, name in sample_systems(rng, 6, degrees=(3, 6)):
        if name not in ("Group", "Clifford", "StrictInverse"):
            continue
        routes.add(name)
        elements = list(close(gs).elements)
        for _ in range(10):
            s, t = rng.choice(elements), rng.choice(elements)
            assert dispatch_member(gs, t)
            dispatch_conjugate(gs, s, t)
    assert routes == {"Group", "Clifford", "StrictInverse"}
    path = tmp_path / "s4.pb"
    path.write_text("pb 4\ngen 2 3 4 1\ngen 2 1 3 4\ntarget 4 3 2 1\n"
                    "s 2 1 3 4\nt 1 2 4 3\nds 1 2\ndt 4 3\n")
    for argv in (["transport", str(path)], ["conj", str(path)],
                 ["member", str(path)]):
        assert main(argv) == 0
    assert calls == []
    # the one printed word is the one expansion
    assert main(["member", str(path), "--solver", "group"]) == 0
    assert calls == [1]
    assert capsys.readouterr().out.count("YES") == 4


def _count_group_builds(monkeypatch):
    built = []
    perm_init = PermGroup.__init__
    monkeypatch.setattr(PermGroup, "__init__",
                        lambda G, *a: built.append(G) or perm_init(G, *a))
    return built


def test_a_target_off_the_domain_builds_no_group(tmp_path, capsys,
                                                 monkeypatch):
    # S_4 on {1, 2, 3, 4}, undefined at 5: a target defined at 5 is off
    # the group's domain, so member and slp answer NO before any BSGS is
    # built; a target on the domain is sifted
    built = _count_group_builds(monkeypatch)
    gens = "pb 5\ngen 2 3 4 1 _\ngen 2 1 3 4 _\n"
    off = tmp_path / "off.pb"
    off.write_text(gens + "target 2 1 3 4 5\n")
    for argv in (["member", str(off)], ["slp", str(off)],
                 ["member", str(off), "--solver", "group"]):
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == "NO"
    gs = GeneratorSystem([PartialBijection(5, (1, 2, 3, 0, None)),
                          PartialBijection(5, (1, 0, 2, 3, None))], degree=5)
    assert pb_group_member(gs, PartialBijection(5, (1, 0, 2, None, None))) \
        == (False, None)
    assert built == [] and gs._bsgs is None
    on = tmp_path / "on.pb"
    on.write_text(gens + "target 4 3 2 1 _\n")
    assert main(["member", str(on)]) == 0
    assert capsys.readouterr().out == "YES\n" and len(built) == 1


def test_transport_rules_out_sets_that_meet_the_orbits_differently(
        tmp_path, capsys, monkeypatch):
    # S_4 x S_4 on {1..4} and {5..8}: {1, 2} and {1, 5} meet the two
    # orbits in different counts, so no transporter exists and none is
    # searched for; {1, 2} and {3, 4} need the group
    built = _count_group_builds(monkeypatch)
    path = tmp_path / "s4s4.pb"
    gens = ("pb 8\ngen 2 3 4 1 5 6 7 8\ngen 2 1 3 4 5 6 7 8\n"
            "gen 1 2 3 4 6 7 8 5\ngen 1 2 3 4 6 5 7 8\nds 1 2\n")
    path.write_text(gens + "dt 1 5\n")
    assert main(["transport", str(path)]) == 0
    assert capsys.readouterr().out == "NO\n" and built == []
    path.write_text(gens + "dt 3 4\n")
    assert main(["transport", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("YES\ntransporter ") and len(built) == 1


def _outcome(check, gs):
    try:
        return check(gs)
    except ValueError as exc:
        return str(exc)


def test_group_domain_reads_the_point_record():
    # the generators' domain masks and inverse positions make the test
    # of the domain and range sets, with the same message first
    rng = random.Random(38)
    outcomes = set()
    for _ in range(2000):
        n = rng.randrange(1, 7)
        dom = [x for x in range(n) if rng.random() < 0.7]
        gens = [rand_perm_on(rng, n, dom) for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.5:
            gens.insert(rng.randrange(len(gens) + 1),
                        rand_perm_on(rng, n, dom[1:]) if rng.random() < 0.5
                        else rand_pb(rng, n))
        gs = GeneratorSystem(gens, degree=n)
        want = _outcome(group_domain_by_sets, gs)
        got = _outcome(group_domain, gs)
        if isinstance(want, str):
            assert got == want
        else:
            assert got == sum(1 << x for x in want)
        outcomes.add("group" if not isinstance(want, str)
                     else "dom != ran" if "dom != ran" in want else want)
    assert outcomes == {"group", "dom != ran",
                        "generators have inconsistent domains; not a group"}
