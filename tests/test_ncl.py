"""Constraint-logic machines: validation, configurations, and
reachability."""

import random

import pytest

from invsem.ncl import (NCLMachine, incident_edges, in_flow, is_config,
                        ncl_validate, local_configs, restrict)

from helpers import K4_EDGES, rand_ncl_machine
from reference import (all_configs, ncl_reach_bruteforce, replay,
                       transitions_of)


def _k4(weights, cs=None, ct=None):
    edges = tuple((a, b, w) for (a, b), w in zip(K4_EDGES, weights))
    m = len(edges)
    probe = NCLMachine(4, edges, (0,) * m, (0,) * m)
    configs = all_configs(probe)
    cs = configs[0] if cs is None else cs
    ct = configs[-1] if ct is None else ct
    return NCLMachine(4, edges, cs, ct)


def test_validate_accepts_k4():
    M = _k4([2] * 6)
    assert ncl_validate(M) == []


def test_validate_flags_problems():
    M = _k4([2] * 6)
    loop = NCLMachine(4, ((0, 0, 2),) + M.edges[1:], M.config_s,
                      M.config_t)
    assert any("loop" in p for p in ncl_validate(loop))
    parallel = NCLMachine(4, M.edges[:5] + (M.edges[0],), M.config_s,
                          M.config_t)
    assert any("parallel" in p for p in ncl_validate(parallel))
    bad_weight = NCLMachine(4, ((0, 1, 3),) + M.edges[1:], M.config_s,
                            M.config_t)
    assert any("weight" in p for p in ncl_validate(bad_weight))
    not_cubic = NCLMachine(4, M.edges[:5], M.config_s[:5],
                           M.config_t[:5])
    assert any("degree" in p for p in ncl_validate(not_cubic))
    short_cfg = NCLMachine(4, M.edges, M.config_s[:3], M.config_t)
    assert any("length" in p for p in ncl_validate(short_cfg))
    # all-weight-1 edges cannot give in-flow 2 from a single edge
    starved = NCLMachine(4, tuple((a, b, 1) for a, b, _ in M.edges),
                         M.config_s, M.config_t)
    assert any("in-flow" in p for p in ncl_validate(starved))


def test_flows_and_configs():
    M = _k4([2] * 6)
    for v in range(4):
        assert len(incident_edges(M, v)) == 3
    for c in all_configs(M):
        assert is_config(M, c)
        for v in range(4):
            assert in_flow(M, c, v) >= 2
            assert restrict(M, c, v) in local_configs(M, v)


def test_local_configs_orders_and_contents():
    M = _k4([2] * 6)
    for v in range(4):
        lcs = local_configs(M, v)
        assert lcs == sorted(lcs)
        assert len(set(lcs)) == len(lcs)
        # every local configuration keeps in-flow at least 2 at v
        inc = incident_edges(M, v)
        for lc in lcs:
            full = list(M.config_s)
            for i, bit in zip(inc, lc):
                full[i] = bit
            assert in_flow(M, tuple(full), v) >= 2


def test_transitions_are_reversible():
    rng = random.Random(0)
    for _ in range(10):
        M = rand_ncl_machine(rng, rng.choice(("k4", "prism")))
        for c in all_configs(M)[:20]:
            for i, nxt in transitions_of(M, c):
                assert is_config(M, nxt)
                assert (i, c) in transitions_of(M, nxt)


def test_reachability_witness_replays():
    rng = random.Random(1)
    seen_yes = seen_no = 0
    for _ in range(40):
        M = rand_ncl_machine(rng, rng.choice(("k4", "prism")))
        ok, seq = ncl_reach_bruteforce(M)
        if ok:
            assert replay(M, seq) == M.config_t
            seen_yes += 1
        else:
            assert seq is None
            seen_no += 1
        # reachability is symmetric: reversals are involutions
        rev = NCLMachine(M.vertices, M.edges, M.config_t, M.config_s)
        assert ncl_reach_bruteforce(rev)[0] == ok
    assert seen_yes > 5 and seen_no > 2


def test_replay_rejects_invalid_step():
    M = _k4([2] * 6)
    # find an edge whose immediate reversal starves a vertex
    bad = None
    for i in range(6):
        nxt = list(M.config_s)
        nxt[i] = 1 - nxt[i]
        if not is_config(M, tuple(nxt)):
            bad = i
            break
    if bad is None:
        pytest.skip("every single reversal is valid here")
    with pytest.raises(ValueError):
        replay(M, (bad,))


def test_trivial_reachability():
    M = _k4([2] * 6)
    same = NCLMachine(4, M.edges, M.config_s, M.config_s)
    ok, seq = ncl_reach_bruteforce(same)
    assert ok and seq == ()
