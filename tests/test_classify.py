"""Variety classification and the divisor characterizations."""

import itertools
import random
from collections import Counter

import pytest

from invsem.pbij import PartialBijection, brandt, identity, partial_identity
from invsem.gensys import GeneratorSystem
from invsem.oracle import close
from invsem.classify import CLIFFORD, classify_generated, d_class_labels
from invsem.cayley import brandt_table, direct_product_table

from helpers import (j_related, rand_pb, sample_systems, top_points_system,
                     two_sided_ideals)
from reference import (classify, from_closure, idempotent_indices,
                       is_strict_inverse)


def _tag_of(gens, n):
    return classify_generated(GeneratorSystem(gens, degree=n))


def test_y2_is_semilattice():
    tag = _tag_of([partial_identity(2, [0, 1]), partial_identity(2, [0])], 2)
    assert tag.name == "Semilattice"
    assert not tag.divides_B2 and not tag.divides_B21
    assert tag.divides_Y2


def test_b2_is_strict_inverse_not_clifford():
    maps, idx = brandt(2)
    s = maps[idx[(0, 1)]]
    tag = _tag_of([s], 2)
    assert tag.name == "StrictInverse"
    assert tag.divides_B2
    assert not tag.divides_B21


def test_group_tag():
    tag = _tag_of([PartialBijection(3, (1, 2, 0))], 3)
    assert tag.name == "Group"
    assert not tag.divides_Y2


def test_trivial_tag():
    tag = _tag_of([PartialBijection(2, (0, 1))], 2)
    assert tag.name == "Trivial"
    assert not (tag.divides_Y2 or tag.divides_B2 or tag.divides_B21)


def test_general_example():
    # a non-bijective-domain mix that generates past strict inverse
    rng = random.Random(0)
    found = False
    for _ in range(200):
        gens = [rand_pb(rng, 4) for _ in range(3)]
        tag = _tag_of(gens, 4)
        if tag.name == "General":
            assert tag.divides_B21
            found = True
            break
    assert found


def test_tags_upward_consistent():
    rng = random.Random(1)
    for gs, name in sample_systems(rng, 8, degrees=(2, 5), closure_cap=300):
        tag = classify_generated(gs)
        assert tag.name == name
        if tag.name in ("Trivial", "Semilattice", "Group", "Clifford"):
            assert not tag.divides_B2
        if tag.name != "General":
            assert not tag.divides_B21
        if tag.name in ("Trivial", "Group"):
            assert not tag.divides_Y2
        # flag consistency with the definitions
        elements = list(close(gs).elements)
        clifford = all(
            gs.mul(x, gs.inv(x)) == gs.mul(gs.inv(x), x) for x in elements)
        assert tag.divides_B2 == (not clifford)


def test_clifford_product_identity():
    # in a Clifford closure, s1...sn sn~...s1~ = s1 s1~ ... sn sn~
    rng = random.Random(2)
    checked = 0
    for gs, name in sample_systems(rng, 10, degrees=(2, 5),
                                   closure_cap=300):
        if name not in ("Trivial", "Semilattice", "Group", "Clifford"):
            continue
        elements = list(close(gs).elements)
        for _ in range(20):
            seq = [rng.choice(elements)
                   for _ in range(rng.randrange(1, 5))]
            left = seq[0]
            for x in seq[1:]:
                left = gs.mul(left, x)
            left = gs.mul(left, gs.inv(left))
            right = None
            for x in seq:
                ee = gs.mul(x, gs.inv(x))
                right = ee if right is None else gs.mul(right, ee)
            assert left == right
            checked += 1
    assert checked > 100


def test_strict_inverse_commuting_product_identity():
    # with si si~ = si~ si for each factor, the same identity holds in
    # a strict inverse closure
    rng = random.Random(3)
    checked = 0
    for gs, name in sample_systems(rng, 10, degrees=(2, 5),
                                   closure_cap=300):
        if name == "General":
            continue
        elements = [x for x in close(gs).elements
                    if gs.mul(x, gs.inv(x)) == gs.mul(gs.inv(x), x)]
        if not elements:
            continue
        for _ in range(20):
            seq = [rng.choice(elements)
                   for _ in range(rng.randrange(1, 5))]
            left = seq[0]
            for x in seq[1:]:
                left = gs.mul(left, x)
            left = gs.mul(left, gs.inv(left))
            right = None
            for x in seq:
                ee = gs.mul(x, gs.inv(x))
                right = ee if right is None else gs.mul(right, ee)
            assert left == right
            checked += 1
    assert checked > 100


def test_classify_on_element_list_matches_generated():
    rng = random.Random(4)
    for gs, _ in sample_systems(rng, 3, degrees=(2, 4), closure_cap=100):
        elements = list(close(gs).elements)
        assert classify(gs, elements).name == classify_generated(gs).name
    # a list without x x~ or x~ x is not closed and is rejected
    x = PartialBijection(2, (1, None))
    for elements in ([x], [x, x.inverse()]):
        with pytest.raises(ValueError):
            classify(GeneratorSystem([x], degree=2), elements)


def test_generators_agree_with_closure_on_pb_systems():
    rng = random.Random(5)
    names = set()
    for gs, _ in sample_systems(rng, 40, degrees=(2, 5), closure_cap=500):
        # a fresh system, so nothing cached decides the tag
        fresh = GeneratorSystem(gs.generators, degree=gs.degree)
        tag = classify_generated(fresh)
        assert tag == classify(gs, close(gs).elements), gs.generators
        assert tag.classified_by == (
            "generators" if tag.name in CLIFFORD else "idempotents")
        names.add(tag.name)
    assert names == {"Trivial", "Semilattice", "Group", "Clifford",
                     "StrictInverse", "General"}


def test_idempotent_split_matches_the_closure_split():
    # on random systems of degree 1 to 6 and on either side of the bytes
    # codes, the split on E(U) gives the tag of the idempotent-pair test
    # on the whole closure, and counts E(U)
    rng = random.Random(9)
    systems = [top_points_system(255), top_points_system(256)]
    for _ in range(2000):
        n = rng.randrange(1, 7)
        systems.append(GeneratorSystem(
            [rand_pb(rng, n) for _ in range(rng.randrange(1, 4))], degree=n))
    names = Counter()
    for gs in systems:
        tag = classify_generated(gs)
        elements = close(gs).elements
        assert tag == classify(gs, elements), gs.generators
        if tag.classified_by == "idempotents":
            assert tag.idempotents == sum(map(gs.is_idempotent, elements))
        else:
            assert tag.idempotents is None and tag.name in CLIFFORD
        names[tag.name] += 1
    assert names["StrictInverse"] > 100 and names["General"] > 500
    assert [classify_generated(gs).classified_by
            for gs in systems[:2]] == ["idempotents"] * 2


def test_generators_agree_with_closure_on_ct_systems():
    rng = random.Random(6)
    tables = [brandt_table(3)[0], brandt_table(2, with_identity=True)[0],
              direct_product_table(brandt_table(2)[0],
                                   brandt_table(1, with_identity=True)[0])]
    for gs, _ in sample_systems(rng, 6, degrees=(2, 4), closure_cap=40):
        tables.append(from_closure(close(gs).elements, gs.mul)[0])
    with_identity = 0
    names = set()
    for table in tables:
        with_identity += table.identity_index is not None
        for _ in range(6):
            sigma = rng.sample(range(table.order),
                               rng.randrange(1, min(table.order, 4) + 1))
            gs = GeneratorSystem(sigma, table=table)
            tag = classify_generated(GeneratorSystem(sigma, table=table))
            assert tag == classify(gs, close(gs).elements), sigma
            names.add(tag.name)
    assert 0 < with_identity < len(tables)
    assert names == {"Trivial", "Semilattice", "Group", "Clifford",
                     "StrictInverse", "General"}


def test_pair_classes_match_brute_force_ideals():
    # the D-classes read off the pairs (x x~, x~ x) are the J-classes of
    # the two-sided ideals, and the strict-inverse verdict is the
    # idempotent-pair test on those classes
    maps, idx = brandt(2)
    b2 = [maps[idx[(0, 1)]]]
    systems = [GeneratorSystem(b2, degree=2),
               GeneratorSystem(b2 + [identity(2)], degree=2)]
    rng = random.Random(8)
    systems += [gs for gs, _ in sample_systems(rng, 40, degrees=(2, 4),
                                               closure_cap=30)]
    while len(systems) < 330:
        n = rng.randrange(2, 5)
        gs = GeneratorSystem([rand_pb(rng, n) for _ in range(2)], degree=n)
        if len(close(gs)) <= 40:
            systems.append(gs)
    verdicts = []
    for gs in systems:
        mul = gs.mul
        elements = close(gs).elements
        ideals = two_sided_ideals(gs, elements)
        label = d_class_labels(*idempotent_indices(gs, elements))
        for x, y in itertools.product(range(len(elements)), repeat=2):
            assert (label[x] == label[y]) == j_related(ideals, x, y)
        idems = [e for e in elements if mul(e, e) == e]
        want = not any(
            j_related(ideals, elements.index(f1), elements.index(f2))
            for e in idems
            for f1, f2 in itertools.combinations(
                [f for f in idems if mul(f, e) == f], 2))
        assert is_strict_inverse(gs, elements) == want, gs.generators
        verdicts.append(want)
    assert len(systems) >= 300
    assert verdicts[:2] == [True, False]  # B_2 and B_2^1
    assert 60 < sum(verdicts) < len(verdicts) - 60
