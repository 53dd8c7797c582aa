"""Partial bijection algebra: composition, inverses, idempotents and
the natural partial order, and the element kernels' codes."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from invsem.munn import dom_mask
from invsem.pbij import (BytesCodec, PartialBijection, TupleCodec, compose,
                         identity, empty_map, partial_identity, singleton,
                         idempotent_power, brandt, direct_product, kernel)

from helpers import rand_pb
from reference import all_partial_bijections, from_pairs, le


def test_constructor_rejects_non_injective():
    with pytest.raises(ValueError):
        PartialBijection(2, (0, 0))


def test_constructor_rejects_out_of_range():
    with pytest.raises(ValueError):
        PartialBijection(2, (2, None))


def test_constructor_rejects_bad_lengths_and_negative_images():
    for degree, images in ((2, (0,)), (2, (0, 1, None)), (2, (-1, None)),
                           (-1, ())):
        with pytest.raises(ValueError):
            PartialBijection(degree, images)


def test_unchecked_constructors_match_the_validated_one():
    rng = random.Random(3)
    made = [identity(4), empty_map(4), partial_identity(4, [0, 2]),
            direct_product([rand_pb(rng, 2), rand_pb(rng, 3)])]
    made += all_partial_bijections(3)
    for _ in range(200):
        a, b = rand_pb(rng, 5), rand_pb(rng, 5)
        made += [compose(a, b), a.inverse()]
    for p in made:
        checked = PartialBijection(p.degree, p.images)
        assert p == checked and hash(p) == hash(checked)
        assert type(p.images) is tuple and p.degree == len(p.images)


def test_attributes_cannot_be_assigned():
    p = compose(identity(3), partial_identity(3, [1]))
    for name in ("degree", "images", "_hash"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    assert p.images == (None, 1, None)


def test_copy_and_pickle_give_an_equal_element():
    for p in (identity(3), empty_map(2), partial_identity(4, [1, 3]),
              PartialBijection(0, ())):
        for q in (copy.copy(p), copy.deepcopy(p),
                  pickle.loads(pickle.dumps(p))):
            assert type(q) is PartialBijection
            assert q == p and q.degree == p.degree and hash(q) == hash(p)


def test_compose_associative_exhaustive_degree_3():
    els = all_partial_bijections(3)
    for a in els:
        for b in els:
            ab = compose(a, b)
            for c in els:
                assert compose(ab, c) == compose(a, compose(b, c))


def test_compose_associative_randomized():
    rng = random.Random(0)
    for _ in range(100000):
        n = rng.randrange(1, 9)
        a, b, c = (rand_pb(rng, n) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_inverse_laws(n, rnd):
    a = rand_pb(rnd, n)
    ai = a.inverse()
    assert compose(compose(a, ai), a) == a
    assert compose(compose(ai, a), ai) == ai
    assert ai.inverse() == a


def test_idempotents_are_partial_identities_and_commute():
    for e, f in itertools.product(
            [p for p in all_partial_bijections(4) if p.is_idempotent()],
            repeat=2):
        assert e.domain() == e.ran()
        assert all(e[x] == x for x in e.domain())
        assert compose(e, f) == compose(f, e)


def test_natural_order_dual_forms_agree():
    # x <= y iff x = x x~ y iff x = y x~ x
    els = all_partial_bijections(3)
    for x in els:
        xb = x.inverse()
        for y in els:
            left = compose(compose(x, xb), y) == x
            right = compose(compose(y, xb), x) == x
            assert left == right
            assert le(x, y) == left


def test_natural_order_is_partial_order():
    els = all_partial_bijections(3)
    for x in els:
        assert le(x, x)
        for y in els:
            if le(x, y) and le(y, x):
                assert x == y
            for z in els:
                if le(x, y) and le(y, z):
                    assert le(x, z)


def test_constructors():
    assert identity(3).images == (0, 1, 2)
    assert empty_map(3).images == (None, None, None)
    assert partial_identity(4, [1, 3]).images == (None, 1, None, 3)
    assert singleton(3, 0, 2).images == (2, None, None)
    assert from_pairs(3, [(0, 1), (1, 0)]).images == (1, 0, None)


def test_idempotent_power():
    rng = random.Random(1)
    for _ in range(200):
        x = rand_pb(rng, 5)
        e = idempotent_power(x)
        assert e.is_idempotent()
        # e is a power of x
        seen = {x}
        y = x
        while not y.is_idempotent():
            y = compose(y, x)
            assert y not in seen or y.is_idempotent()
            seen.add(y)
        assert e == y


def test_brandt_structure():
    maps, idx = brandt(3)
    zero = maps[idx[("zero",)]]
    assert zero == empty_map(3)
    s = maps[idx[(0, 2)]]
    t = maps[idx[(2, 1)]]
    assert compose(s, t) == maps[idx[(0, 1)]]
    assert compose(t, s) == zero


def test_direct_product_componentwise():
    rng = random.Random(2)
    for _ in range(50):
        a1, a2 = rand_pb(rng, 3), rand_pb(rng, 2)
        b1, b2 = rand_pb(rng, 3), rand_pb(rng, 2)
        p = compose(direct_product([a1, a2]), direct_product([b1, b2]))
        assert p == direct_product([compose(a1, b1), compose(a2, b2)])


def test_all_partial_bijections_count():
    # sum over k of C(n, k)^2 * k!
    assert len(all_partial_bijections(3)) == 34
    assert len(set(all_partial_bijections(3))) == 34


# the inputs of the reject tests above, with the message each raises
REJECTED = (((2, (0, 0)), "not injective: image 0 repeated"),
            ((2, (2, None)), "image 2 out of range"),
            ((2, (0,)), "expected 2 images, got 1"),
            ((2, (0, 1, None)), "expected 2 images, got 3"),
            ((2, (-1, None)), "image -1 out of range"),
            ((-1, ()), "degree must be >= 0"))


def test_an_element_is_the_tuple_of_its_images():
    rng = random.Random(5)
    els = all_partial_bijections(3)
    els += [rand_pb(rng, rng.randrange(0, 7)) for _ in range(300)]
    for p in els:
        assert hash(p) == hash(p.images) and p == p.images
        assert len(p) == p.degree and list(p) == list(p.images)
        assert ~p == p.inverse()
    for p in all_partial_bijections(3):
        for q in all_partial_bijections(3):
            assert p * q == compose(p, q)
    assert identity(2) != identity(3) and empty_map(2) != empty_map(3)
    with pytest.raises(ValueError, match="^degree mismatch: 2 vs 3$"):
        compose(identity(2), identity(3))
    for (degree, images), message in REJECTED:
        with pytest.raises(ValueError, match="^%s$" % message):
            PartialBijection(degree, images)


@pytest.mark.parametrize("kind, n", [
    (kind, n) for n in (1, 2, 254, 255, 256, 257, 500)
    for kind in (("bytes", "tuple") if n <= 255 else ("tuple",))])
def test_codecs_match_compose_and_inverse(kind, n):
    # both kernels against pbij.compose and PartialBijection.inverse on
    # random partial maps, total and empty ones included
    codec = BytesCodec if kind == "bytes" else TupleCodec(n)
    rng = random.Random(n)
    maps = [rand_pb(rng, n, p) for p in (0.0, 0.5, 0.9, 1.0) * 5]
    codes = [codec.encode(x) for x in maps]
    assert kernel(n) is BytesCodec if n <= 255 else (
        isinstance(kernel(n), TupleCodec) and kernel(n).undefined == n)
    for x, cx in zip(maps, codes):
        assert codec.decode(cx) == x and type(codec.decode(cx)) is type(x)
        assert codec.inv(cx) == codec.encode(x.inverse())
        assert dom_mask(cx, codec.undefined) == dom_mask(x)
        for y, cy in zip(maps[:6], codes[:6]):
            xy = codec.encode(compose(x, y))
            assert codec.mul(cx, cy) == xy
            assert codec.product(cx, codec.right(cy)) == xy
    assert len(set(codes)) == len(set(maps))
