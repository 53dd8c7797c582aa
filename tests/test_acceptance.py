"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL
line (also to the real stdout, so it shows up under pytest capture).
"""

import itertools
import math
import random
import sys
import time

import numpy as np

from invsem.pbij import PartialBijection, partial_identity, compose
from invsem.gensys import GeneratorSystem
from invsem.oracle import (close, naive_member, naive_conjugate,
                           ClosureCapExceeded)
from invsem.cayley import (y2_table, brandt_table, direct_product_table,
                           preston_wagner, CayleyTable)
from invsem.ctsolver import CTSolver
from invsem.munn import dispatch_member, dispatch_conjugate
from invsem.slp import slp_eval, slp_semilattice, slp_group, slp_clifford
from invsem.automata import intersect_nonempty, validate as ia_validate
from invsem.hardness import (gen_ugap_conj, gen_ugap_member, gen_ncl_conj,
                             gen_ncl_member, gen_ncl_automata, gen_mgs,
                             gen_equation)
from invsem.meta import mgs_decide, solve_equations

from helpers import (rand_pb, rand_partial_identity, clifford_gens,
                     sample_systems, sample_sis_systems, check_munn_lemmas,
                     rand_ncl_machine)
from reference import (all_partial_bijections, automata_word_to_transitions,
                       conjugation_orbit_decide, from_closure, le,
                       ncl_reach_bruteforce, replay)


def _report(num, desc, ok, detail=""):
    suffix = " (%s)" % detail if detail else ""
    line = "ACCEPTANCE %d %s: %s%s" % (num, desc,
                                       "PASS" if ok else "FAIL", suffix)
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)
        sys.__stdout__.flush()
    assert ok, line


_CORPUS = None


def _corpus():
    """Shared randomized instance corpus for criteria 1 and 2."""
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(11)
        _CORPUS = sample_systems(rng, 84, degrees=(2, 6), sig_max=4,
                                 closure_cap=2000)
    return _CORPUS


def test_criterion_1_membership_oracle_equivalence():
    start = time.time()
    rng = random.Random(101)
    queries = 0
    disagreements = 0
    routes = set()
    for gs, name in _corpus():
        routes.add(name)
        pool = list(close(gs).elements)
        for _ in range(25):
            if rng.random() < 0.5:
                t = rng.choice(pool)
            else:
                t = rand_pb(rng, gs.degree)
            want, word = naive_member(gs, t)
            if dispatch_member(gs, t) != want:
                disagreements += 1
            queries += 1
    elapsed = time.time() - start
    spanning = routes >= {"Semilattice", "Group", "Clifford",
                          "StrictInverse", "General"}
    _report(1, "pb membership dispatch vs oracle",
            queries >= 10**4 and disagreements == 0 and spanning
            and elapsed < 120,
            "%d queries, %d disagreements, %.1fs"
            % (queries, disagreements, elapsed))


def test_criterion_2_conjugacy_oracle_equivalence():
    rng = random.Random(102)
    queries = 0
    disagreements = 0
    bad_witness = 0
    for gs, _ in _corpus():
        pool = list(close(gs).elements)
        for _ in range(24):
            if rng.random() < 0.5:
                s = rng.choice(pool)
                t = rng.choice(pool)
            else:
                s = rand_pb(rng, gs.degree)
                t = rand_pb(rng, gs.degree)
            want, _ = naive_conjugate(gs, s, t)
            ok, u = dispatch_conjugate(gs, s, t)
            if ok != want:
                disagreements += 1
            if ok and u is not None:
                ub = gs.inv(u)
                if gs.mul(gs.mul(ub, s), u) != t or \
                        gs.mul(gs.mul(u, t), ub) != s:
                    bad_witness += 1
            queries += 1
    _report(2, "pb conjugacy dispatch vs oracle",
            queries >= 10**4 and disagreements == 0 and bad_witness == 0,
            "%d queries, %d disagreements, %d bad conjugators"
            % (queries, disagreements, bad_witness))


def test_criterion_3_cayley_table_greedy():
    rng = random.Random(103)
    tables = []
    for gs, _ in sample_systems(rng, 8, degrees=(2, 5), closure_cap=200):
        elements = list(close(gs).elements)
        table, _ = from_closure(elements, gs.mul)
        tables.append(table)
    queries = 0
    bad = 0
    for table in tables:
        n = table.order
        for _ in range(16):
            sigma = rng.sample(range(n), rng.randrange(1, min(5, n) + 1))
            gs = GeneratorSystem(sigma, table=table)
            members = set(close(gs).elements)
            solver = CTSolver(table, list(gs.generators))
            for _ in range(20):
                t = rng.randrange(n)
                ok, word, iterations = solver.member(t)
                if ok != (t in members) or iterations > n:
                    bad += 1
                queries += 1
    _report(3, "ct greedy membership vs oracle",
            queries >= 10**4 and bad == 0,
            "%d tables, %d queries, %d failures"
            % (len(tables), queries, bad))


def test_criterion_4_munn_lemma_suite():
    rng = random.Random(104)
    systems = sample_sis_systems(rng, 150, degrees=(2, 6), closure_cap=200)
    violations = []
    for gs, elements in systems:
        violations.extend(
            check_munn_lemmas(gs, elements, rng, words_per_graph=20))
    _report(4, "Munn graph structural invariants",
            len(systems) >= 100 and not violations,
            "%d closures, %d violations" % (len(systems), len(violations)))


def _cycle(m):
    return PartialBijection(m, tuple((x + 1) % m for x in range(m)))


def _rotation_power(m, j):
    return PartialBijection(m, tuple((x + j) % m for x in range(m)))


def _reflection(m, j=0):
    return PartialBijection(m, tuple((j - x) % m for x in range(m)))


def _q8_table():
    # quaternion units as (sign, axis) with axis 0 = 1, 1 = i, 2 = j,
    # 3 = k; element index = axis * 2 + (0 if positive else 1)
    axis_mul = {}
    for a in range(4):
        axis_mul[(0, a)] = (1, a)
        axis_mul[(a, 0)] = (1, a)
    for a in (1, 2, 3):
        axis_mul[(a, a)] = (-1, 0)
    axis_mul[(1, 2)] = (1, 3)
    axis_mul[(2, 1)] = (-1, 3)
    axis_mul[(2, 3)] = (1, 1)
    axis_mul[(3, 2)] = (-1, 1)
    axis_mul[(3, 1)] = (1, 2)
    axis_mul[(1, 3)] = (-1, 2)

    def index(sign, axis):
        return axis * 2 + (0 if sign > 0 else 1)

    rows = []
    for x in range(8):
        row = []
        for y in range(8):
            sx, ax = 1 if x % 2 == 0 else -1, x // 2
            sy, ay = 1 if y % 2 == 0 else -1, y // 2
            s, a = axis_mul[(ax, ay)]
            row.append(index(sx * sy * s, a))
        rows.append(row)
    return CayleyTable(rows)


def test_criterion_5_slp_bounds():
    rng = random.Random(105)
    round_trips = 0
    failures = 0

    # semilattices up to 512 idempotents, bound 2 log2(|E| + 1)
    while round_trips < 7500:
        n = rng.randrange(2, 10)
        gens = [rand_partial_identity(rng, n)
                for _ in range(rng.randrange(1, 7))]
        gs = GeneratorSystem(gens, degree=n)
        elements = list(close(gs).elements)
        bound = 2 * math.ceil(math.log2(len(elements) + 1))
        for t in elements:
            slp = slp_semilattice(gs, t)
            if slp_eval(gs, slp) != t or len(slp) > bound:
                failures += 1
            round_trips += 1

    # Clifford closures, round trips only
    clifford_trips = 0
    while clifford_trips < 2600:
        n = rng.randrange(2, 7)
        gs = GeneratorSystem(clifford_gens(rng, n, rng.randrange(1, 4)),
                             degree=n)
        elements = list(close(gs).elements)
        if len(elements) > 400:
            continue
        for t in elements:
            slp = slp_clifford(gs, t)
            if slp_eval(gs, slp) != t:
                failures += 1
            clifford_trips += 1
    round_trips += clifford_trips

    # group test set with the 16 log2^2 |G| length bound
    group_trips = 0

    def check_group(gs, order, targets):
        nonlocal group_trips, failures
        bound = 16 * max(1.0, math.log2(order)) ** 2
        for t in targets:
            slp = slp_group(gs, t)
            if slp_eval(gs, slp) != t or len(slp) > bound:
                failures += 1
            group_trips += 1

    for m in (8, 12, 341, 1024):
        gs = GeneratorSystem([_cycle(m)], degree=m)
        targets = [_rotation_power(m, rng.randrange(m)) for _ in range(3)]
        check_group(gs, m, targets)
    for m in (4, 32, 256):
        gs = GeneratorSystem([_cycle(m), _reflection(m)], degree=m)
        targets = [_rotation_power(m, rng.randrange(m)) for _ in range(2)]
        targets += [_reflection(m, rng.randrange(m)) for _ in range(2)]
        check_group(gs, 2 * m, targets)
    s4 = GeneratorSystem([PartialBijection(4, (1, 0, 2, 3)),
                          PartialBijection(4, (1, 2, 3, 0))], degree=4)
    check_group(s4, 24, list(close(s4).elements))
    a4 = GeneratorSystem([PartialBijection(4, (1, 2, 0, 3)),
                          PartialBijection(4, (1, 0, 3, 2))], degree=4)
    check_group(a4, 12, list(close(a4).elements))
    q8 = GeneratorSystem([2, 4], table=_q8_table())
    check_group(q8, 8, list(range(8)))
    round_trips += group_trips

    _report(5, "SLP round trips and length bounds",
            round_trips >= 10**4 and failures == 0,
            "%d round trips (%d group), %d failures"
            % (round_trips, group_trips, failures))


def _np_closure(T, gens):
    seen = np.zeros(T.shape[0], dtype=bool)
    seen[gens] = True
    frontier = np.array(sorted(set(gens)))
    garr = np.array(sorted(set(gens)))
    while frontier.size:
        prod = T[np.ix_(frontier, garr)].ravel()
        new = np.unique(prod)
        new = new[~seen[new]]
        seen[new] = True
        frontier = new
    return np.flatnonzero(seen)


def _np_ideal(T, gens, seed):
    seen = np.zeros(T.shape[0], dtype=bool)
    seen[seed] = True
    frontier = np.array([seed])
    garr = np.array(sorted(set(gens)))
    while frontier.size:
        left = T[np.ix_(garr, frontier)].ravel()
        right = T[np.ix_(frontier, garr)].ravel()
        new = np.unique(np.concatenate((left, right)))
        new = new[~seen[new]]
        seen[new] = True
        frontier = new
    return seen


def test_criterion_6_ugap_exhaustive():
    rng = random.Random(106)
    total = 0
    disagreements = 0
    cross_checked = 0
    cross_bad = 0
    for n in range(1, 7):
        table, idx = brandt_table(n)
        T = np.array(table.table, dtype=np.int32)
        inv_arr = np.array([table.inv(x) for x in range(table.order)])
        loops = [idx[(x, x)] for x in range(n)]
        pairs = list(itertools.combinations(range(n), 2))
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            edges = [p for p, b in zip(pairs, bits) if b]

            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for a, b in edges:
                parent[find(a)] = find(b)

            sigma = loops + [idx[e] for e in edges]
            sigma_inv = sorted(set(sigma)
                               | {table.inv(x) for x in sigma})
            closure = _np_closure(T, sigma_inv)
            # conjugate idempotent pairs (u u~, u~ u) over the closure
            left = T[closure, inv_arr[closure]]
            right = T[inv_arr[closure], closure]
            conj_pairs = set(zip(left.tolist(), right.tolist()))
            ideals = [_np_ideal(T, sigma_inv, loops[s]) for s in range(n)]
            for s in range(n):
                for t in range(n):
                    want = find(s) == find(t)
                    conj = s == t or \
                        (loops[s], loops[t]) in conj_pairs
                    member = bool(ideals[s][loops[t]])
                    if conj != want or member != want:
                        disagreements += 1
                    total += 2
            # cross-validate the fast evaluators against the package
            # solvers on the generated instances
            if n <= 4 or rng.random() < 0.003:
                s = rng.randrange(n)
                t = rng.randrange(n)
                want = find(s) == find(t)
                ctab, csig, e_s, e_t = gen_ugap_conj(n, edges, s, t)
                mtab, msig, target = gen_ugap_member(n, edges, s, t)
                if CTSolver(ctab, csig).conjugate(e_s, e_t) != want:
                    cross_bad += 1
                if CTSolver(mtab, msig).member(target)[0] != want:
                    cross_bad += 1
                cross_checked += 1
    _report(6, "UGAP reduction exhaustive to 6 vertices",
            disagreements == 0 and cross_bad == 0 and cross_checked > 150,
            "%d queries, %d disagreements, %d cross-checks"
            % (total, disagreements, cross_checked))


def _conjugating_word(gs, e_s, e_t):
    """Generator-index word u with u~ e_s u = e_t along the
    conjugation orbit, or None."""
    mul = gs.mul
    inv = gs.inv
    if e_s == e_t:
        return ()
    prev = {e_s: None}
    frontier = [e_s]
    while frontier:
        nxt = []
        for e in frontier:
            for i, u in enumerate(gs.generators):
                f = mul(mul(inv(u), e), u)
                if mul(mul(u, f), inv(u)) != e or f in prev:
                    continue
                prev[f] = (e, i)
                if f == e_t:
                    word = []
                    cur = f
                    while prev[cur] is not None:
                        cur, i = prev[cur]
                        word.append(i)
                    return tuple(reversed(word))
                nxt.append(f)
        frontier = nxt
    return None


def test_criterion_7_ncl_reductions():
    start = time.time()
    rng = random.Random(107)
    machines = [rand_ncl_machine(rng, "k4") for _ in range(60)]
    machines += [rand_ncl_machine(rng, "prism") for _ in range(60)]
    failures = []
    for pos, M in enumerate(machines):
        want, _ = ncl_reach_bruteforce(M)

        enc, sigma, e_s, e_t = gen_ncl_conj(M)
        if enc.degree > 7 * M.vertices:
            failures.append("size bound")
        gs = GeneratorSystem(sigma, degree=enc.degree)
        if conjugation_orbit_decide(gs, e_s, e_t) != want:
            failures.append("conj disagrees")

        # membership through the marker-wrapper instance: the answer
        # tracks idempotent conjugacy of the unwrapped parts, and every
        # positive must replay as an explicit generator product
        enc2, sigma2, target = gen_ncl_member(M)
        got_member = conjugation_orbit_decide(gs, e_s, e_t)
        if got_member != want:
            failures.append("member disagrees")
        if got_member:
            word = _conjugating_word(gs, e_s, e_t)
            if word is None:
                failures.append("member witness missing")
            else:
                wrapped = {u.images[:-1]: u for u in sigma2}
                marker = sigma2[-2]
                value = marker
                for i in word:
                    u = wrapped[gs.generators[i].images]
                    value = compose(compose(u.inverse(), value), u)
                if value != target:
                    failures.append("member witness does not replay")

        enc3, automata = gen_ncl_automata(M)
        if any(ia_validate(A) for A in automata):
            failures.append("invalid automaton")
        witness = intersect_nonempty(automata)
        if (witness is not None) != want:
            failures.append("automata disagree")
        if witness is not None:
            seq = automata_word_to_transitions(enc3, witness)
            if replay(M, seq) != M.config_t:
                failures.append("automata witness does not replay")
    elapsed = time.time() - start
    _report(7, "NCL reductions on K4 and prism machines",
            len(machines) >= 100 and not failures and elapsed < 600,
            "%d machines, %d failures, %.1fs"
            % (len(machines), len(failures), elapsed))


def test_criterion_8_mgs_and_equations():
    rng = random.Random(108)
    count = 0
    eq_count = 0
    failures = 0
    while count < 1000:
        deg = rng.choice((3, 3, 3, 3, 4, 4, 5))
        gens = [rand_pb(rng, deg) for _ in range(rng.randrange(1, 3))]
        gs = GeneratorSystem(gens, degree=deg)
        try:
            elements = list(close(gs, cap=600).elements)
        except ClosureCapExceeded:
            continue
        if rng.random() < 0.5:
            t = rng.choice(elements)
        else:
            t = rand_pb(rng, deg)
            # keep the enlarged instance at desk scale
            try:
                close(GeneratorSystem(gens + [t], degree=deg), cap=600)
            except ClosureCapExceeded:
                continue
        want, _ = naive_member(gs, t)
        big, k = gen_mgs(gs, t)
        ok, witness = mgs_decide(big, k)
        if ok != want:
            failures += 1
        if ok:
            span = GeneratorSystem(list(witness), degree=big.degree)
            if set(close(span).elements) != set(close(big).elements):
                failures += 1
        count += 1

        if count % 10 == 0:
            e_s = gs.mul(t, gs.inv(t))
            e_t = gs.mul(gs.inv(t), t)
            system, constraint = gen_equation(gs, e_s, e_t)
            want_c, _ = naive_conjugate(constraint, e_s, e_t)
            got = solve_equations(system, constraint)
            if (got is not None) != want_c:
                failures += 1
            if got is not None:
                x = got["X"]
                if gs.mul(gs.mul(gs.inv(x), e_s), x) != e_t:
                    failures += 1
            eq_count += 1
    _report(8, "MGS and equation reductions",
            count >= 1000 and eq_count >= 100 and failures == 0,
            "%d mgs instances, %d equations, %d failures"
            % (count, eq_count, failures))


def test_criterion_9_core_validity():
    failures = 0
    tables = [y2_table(), _q8_table()]
    tables += [brandt_table(n)[0] for n in (1, 2, 3, 4, 5)]
    tables.append(brandt_table(2, with_identity=True)[0])
    tables.append(direct_product_table(y2_table(), brandt_table(3)[0]))
    rng = random.Random(109)
    for gs, _ in sample_systems(rng, 4, degrees=(2, 4), closure_cap=30):
        table, _ = from_closure(list(close(gs).elements), gs.mul)
        tables.append(table)
    checked_tables = 0
    for S in tables:
        if S.order > 30:
            continue
        maps = preston_wagner(S)
        if len(set(maps)) != S.order:
            failures += 1
        for i in range(S.order):
            for j in range(S.order):
                if compose(maps[i], maps[j]) != maps[S.mul(i, j)]:
                    failures += 1
        checked_tables += 1

    # inverse-semigroup axioms, exhaustive on I(4)
    elements = all_partial_bijections(4)
    idems = [e for e in elements if compose(e, e) == e]
    for e in idems:
        for f in idems:
            if compose(e, f) != compose(f, e):
                failures += 1
    for s in elements:
        inverses = [t for t in elements
                    if compose(compose(s, t), s) == s
                    and compose(compose(t, s), t) == t]
        if len(inverses) != 1 or inverses[0] != s.inverse():
            failures += 1
    for s in elements:
        sb = s.inverse()
        for t in elements:
            low = s == compose(compose(s, sb), t)
            alt = s == compose(t, compose(sb, s))
            if low != alt or low != le(s, t):
                failures += 1
    _report(9, "core embedding and axiom checks",
            checked_tables >= 9 and failures == 0,
            "%d tables, %d failures" % (checked_tables, failures))
