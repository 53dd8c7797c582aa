"""Checks of the benchmark's own machinery, run from a checkout root:

    python3 perfbench/selfcheck.py

- self-time arithmetic on a synthetic span tree;
- the same seed writes the same instances, another seed others;
- no two CLI ops share an instance, and the generator refuses a repeat;
- a planted wrong expectation and a corrupted witness are caught for
  every workload;
- BENCHMARK.json names exactly the metrics run.py prints;
- without the invsem sources the benchmark exits non-zero and prints no
  result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import run, tracing, workloads  # noqa: E402


def check_self_times():
    # root 0..10 with children 1..3 and 4..6; 1..3 has a child
    # 1.5..2.5; a second root 20..21 has overlapping children
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 3.0, 0, 0],
             ["b", 4.0, 6.0, 0, 0], ["c", 1.5, 2.5, 1, 0],
             ["r2", 20.0, 21.0, -1, 1], ["d", 20.0, 20.6, 4, 1],
             ["e", 20.4, 20.8, 4, 1]]
    got = tracing.self_times(spans)
    want = [6.0, 1.0, 2.0, 1.0, 0.2, 0.6, 0.4]
    assert all(abs(g - w) < 1e-9 for g, w in zip(got, want)), got
    # without overlaps, self times add up to the root's duration
    assert abs(sum(got[:4]) - 10.0) < 1e-9


def _files(path):
    out = {}
    for base, _, names in os.walk(path):
        for name in names:
            full = os.path.join(base, name)
            with open(full, encoding="utf-8") as handle:
                out[os.path.relpath(full, path)] = handle.read()
    return out


def _build(workload, seed, workdir, rounds=1):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ctx = workloads.BuildContext(seed, workdir)
    built = run.WORKLOADS[workload][0](ctx, rounds)
    warm = run.WORKLOADS[workload][1](ctx)
    return ctx, built, warm


def check_determinism(tmp):
    for workload in ("pb-query", "ct-query", "reductions"):
        a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        _build(workload, 5, a)
        _build(workload, 5, b)
        assert _files(a) == _files(b), workload
        _build(workload, 6, b)
        assert _files(a) != _files(b), workload


def check_no_sharing(tmp):
    for workload in ("pb-query", "ct-query", "reductions"):
        _, built, warm = _build(workload, 7, tmp, rounds=2)
        keys = [k for ops in built for op in ops for k in op.keys]
        keys += [k for op in warm for k in op.keys]
        assert len(keys) == len(set(keys)), workload
    ctx = workloads.BuildContext(0, tmp)
    assert ctx.fresh("x") and not ctx.fresh("x")


def _corrupt(op, result):
    """A wrong witness for a YES result, per witness kind."""
    if op.call is not None:
        gs, s, t = op.call[1]
        empty = type(s)(s.degree, (None,) * s.degree)
        return (True, empty)
    outs = list(result)
    lines = outs[-1].splitlines()
    head = lines[1].split()[0] if len(lines) > 1 else ""
    if op.kind == "mgs":
        outs[-1] = "YES\n"
    elif head == "word" and op.kind == "automata":
        outs[-1] = lines[0] + "\n" + lines[1] + " no-such-symbol\n"
    elif head == "word":
        outs[-1] = lines[0] + "\nword 999999\n"
    elif head in ("conjugator", "transporter", "assign"):
        keep = 2 if head == "assign" else 1
        parts = lines[1].split()
        outs[-1] = "YES\n%s\n" % " ".join(
            parts[:keep] + ["_"] * (len(parts) - keep))
    elif op.kind == "slp":
        outs[-1] = "YES\nlength 0\n"
    else:
        return None
    return outs


def check_planted(tmp):
    """Every op: a flipped expectation fails verify().  Every witness
    kind: some corrupted witness fails its check (a corruption can be
    valid by chance, as the empty conjugator of two empty maps)."""
    from invsem import cli, munn
    runner = run.Runner(cli, munn)
    for workload in run.WORKLOADS:
        _, built, _ = _build(workload, 8, tmp)
        caught = {}
        for op in built[0]:
            status, result = runner.execute(op)
            assert status == 0, (workload, op.kind, result)
            assert run.verify(op, result) is None, (workload, op.kind)
            op.expect = not op.expect
            assert run.verify(op, result), (workload, op.kind)
            op.expect = not op.expect
            if op.expect and op.check is not None:
                bad = _corrupt(op, result)
                if bad is not None:
                    caught.setdefault(op.kind, []).append(
                        op.check(bad) is not None)
        assert caught and all(any(v) for v in caught.values()), \
            (workload, caught)


def check_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS, sorted(e2e)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == run.per_layer_units(), (
        set(layer) ^ set(run.per_layer_units()))
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(run.WORKLOADS)


def check_bare_directory(tmp):
    bare = os.path.join(tmp, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pb-query",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main():
    tmp = os.path.join(ROOT, ".perfbench", "selfcheck-%d" % os.getpid())
    os.makedirs(tmp)
    checks = [check_self_times, check_metric_names, check_determinism,
              check_no_sharing, check_planted, check_bare_directory]
    try:
        for check in checks:
            if check.__code__.co_argcount:
                check(tmp)
            else:
                check()
            print("ok", check.__name__)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
