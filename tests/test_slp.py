"""Straight-line programs: round trips, length bounds, and the text
form."""

import math
import random

import pytest

from invsem import slp as slp_module
from invsem.pbij import (BytesCodec, PartialBijection, TupleCodec,
                         partial_identity)
from invsem.gensys import GeneratorSystem
from invsem.oracle import close
from invsem.slp import (BFS_THRESHOLD, SLP, NotGenerated, slp_eval,
                        slp_to_text, slp_from_text, slp_semilattice,
                        slp_group, slp_clifford)

from helpers import (rand_partial_identity, rand_perm_on, clifford_gens,
                     sample_systems, top_points_group)


def test_validate_rejects_bad_programs():
    with pytest.raises(ValueError):
        SLP((("m", 0, 0),), 0).validate(1)
    with pytest.raises(ValueError):
        SLP((("g", 2),), 0).validate(1)
    with pytest.raises(ValueError):
        SLP((("g", 0),), 3).validate(1)
    with pytest.raises(ValueError):
        SLP((("q", 0),), 0).validate(1)


def test_text_round_trip():
    slp = SLP((("g", 0), ("i", 0), ("m", 0, 1)), 2)
    text = slp_to_text(slp)
    assert slp_from_text(text) == slp
    with pytest.raises(ValueError):
        slp_from_text("g x\n")
    with pytest.raises(ValueError):
        slp_from_text("g 0\n")  # missing target


def test_text_form_is_read_as_records():
    # slp_from_text reads the records formats.records reads: comment
    # lines, blank lines and everything from a % on (inside a token too)
    # drop out, and a message names the line of the text it came from
    rng = random.Random(26)
    build = {"Semilattice": slp_semilattice, "Group": slp_group,
             "Clifford": slp_clifford}
    checked = 0
    for gs, name in sample_systems(rng, 4, degrees=(2, 5)):
        if name not in build:
            continue
        for t in list(close(gs).elements)[:5]:
            slp = build[name](gs, t)
            lines = slp_to_text(slp).splitlines()
            assert slp_from_text("\n".join(lines)) == slp
            text = "% an slp\n\n" + "".join(
                "%s%%%d\n  %% note\n\n" % (line, i)
                for i, line in enumerate(lines))
            assert slp_from_text(text) == slp
            # record i sits on line 3 + 3 i; corrupt the target record
            bad = text.replace("target %d%%" % slp.target, "target x%")
            with pytest.raises(ValueError, match="^line %d: cannot parse "
                               "'target x'$" % (3 + 3 * len(slp.items))):
                slp_from_text(bad)
            checked += 1
    assert checked >= 20


def test_semilattice_round_trip_and_bound():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(2, 9)
        gens = [rand_partial_identity(rng, n)
                for _ in range(rng.randrange(1, 6))]
        gs = GeneratorSystem(gens, degree=n)
        elements = list(close(gs).elements)
        bound = 2 * math.ceil(math.log2(len(elements) + 1))
        for t in elements:
            slp = slp_semilattice(gs, t)
            assert slp_eval(gs, slp) == t
            assert len(slp) <= bound
        # a non-member idempotent is refused
        outside = partial_identity(n + 1, range(n + 1))
        with pytest.raises(Exception):
            slp_semilattice(gs, outside)


def test_semilattice_rejects_non_idempotent_generator():
    gs = GeneratorSystem([PartialBijection(2, (1, 0))], degree=2)
    with pytest.raises(ValueError):
        slp_semilattice(gs, gs.one)


def test_group_round_trip_small():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randrange(2, 7)
        dom = [x for x in range(n) if rng.random() < 0.8] or [0]
        gens = [rand_perm_on(rng, n, dom)
                for _ in range(rng.randrange(1, 3))]
        gs = GeneratorSystem(gens, degree=n)
        elements = list(close(gs).elements)
        for t in elements[:30]:
            slp = slp_group(gs, t)
            assert slp_eval(gs, slp) == t


def test_group_cube_doubling_path(monkeypatch):
    # force the cube-doubling branch with a tiny BFS threshold
    monkeypatch.setattr(slp_module, "BFS_THRESHOLD", 2)
    gs = GeneratorSystem([PartialBijection(7, (1, 2, 3, 4, 5, 6, 0))],
                         degree=7)
    elements = list(close(gs).elements)
    for t in elements:
        slp = slp_group(gs, t)
        assert slp_eval(gs, slp) == t


def _slp_cases(n):
    """(builder, system, target) over the elements of fresh group and
    Clifford systems on n points."""
    group = top_points_group(n)
    clifford = top_points_group(n, clifford=True)
    return ([(slp_group, group, t) for t in close(group).elements]
            + [(slp_clifford, clifford, t)
               for t in close(clifford).elements])


@pytest.mark.parametrize("n", [254, 255, 256, 257])
def test_search_on_codes_emits_the_tuple_search_slp(monkeypatch, n):
    # bytes codes up to degree 255, tuple codes above; systems built
    # with the tuple kernel forced must give the same items on the BFS
    # and the cube-doubling paths
    cases = _slp_cases(n)
    assert all((gs.codec is BytesCodec) == (n <= 255) for _, gs, _ in cases)
    code_products = []
    code_mul = BytesCodec.mul
    monkeypatch.setattr(BytesCodec, "mul", staticmethod(
        lambda x, y: code_products.append(1) or code_mul(x, y)))
    for threshold in (BFS_THRESHOLD, 2):
        monkeypatch.setattr(slp_module, "BFS_THRESHOLD", threshold)
        del code_products[:]
        slps = [build(gs, t) for build, gs, t in cases]
        assert bool(code_products) == (n <= BytesCodec.max_degree)
        for slp, (_, gs, t) in zip(slps, cases):
            assert slp_eval(gs, slp) == t
        with monkeypatch.context() as m:
            m.setattr(BytesCodec, "max_degree", -1)
            tuple_cases = _slp_cases(n)
            assert all(isinstance(gs.codec, TupleCodec)
                       for _, gs, _ in tuple_cases)
            assert [t for _, _, t in tuple_cases] == [t for _, _, t in cases]
            assert [build(gs, t) for build, gs, t in tuple_cases] == slps


def test_group_not_generated():
    gs = GeneratorSystem([PartialBijection(4, (1, 0, 2, 3))], degree=4)
    with pytest.raises(NotGenerated):
        slp_group(gs, PartialBijection(4, (2, 3, 0, 1)))


def test_clifford_round_trip():
    rng = random.Random(2)
    checked = 0
    for _ in range(150):
        n = rng.randrange(2, 7)
        gs = GeneratorSystem(clifford_gens(rng, n, rng.randrange(1, 4)),
                             degree=n)
        elements = list(close(gs).elements)
        if len(elements) > 300:
            continue
        for t in elements[:20]:
            slp = slp_clifford(gs, t)
            assert slp_eval(gs, slp) == t
            checked += 1
    assert checked > 300


def test_clifford_idempotents_generated_by_generator_idempotents():
    # E(S) equals the closure of the generator idempotents s s~
    rng = random.Random(3)
    checked = 0
    for gs, name in sample_systems(rng, 10, degrees=(2, 5),
                                   closure_cap=200):
        if name not in ("Trivial", "Semilattice", "Group", "Clifford"):
            continue
        elements = list(close(gs).elements)
        idems = {x for x in elements if gs.is_idempotent(x)}
        egens = [gs.mul(s, gs.inv(s)) for s in gs.generators]
        espan = set(close(GeneratorSystem(egens, degree=gs.degree)).elements)
        assert espan == idems
        checked += 1
    assert checked > 10
