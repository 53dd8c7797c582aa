"""invsem benchmark: one closed-loop client in one process.

Usage, from the root of an invsem checkout:

    python3 perfbench/run.py --workload pb-query --seed 1 --seconds 20 \
        --trace 0

Workloads: pb-query, pb-session, ct-query, reductions (see
perfbench/README.md).  Each op starts when the previous one ends.  Set-up
(instance generation, expected answers, warm-up, a cold `import
invsem.cli` in a child interpreter) runs three times and its median is
reported.  The timed loop runs whole rounds until --seconds of op time
have passed; times are scaled by a host speed probe.
Every answer is checked after the loop.  With --trace 0 the last line
holds the end-to-end metrics; with --trace 1 rounds alternate between
untraced and traced, and the last line holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# Host speed probe: the benchmark's own closure of S_6 (2160 products),
# run with the collector off between ops at least every PROBE_EVERY_S
# of op time.  Times are scaled to a host on which it takes PROBE_REF_S.
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.0025
TAIL_PERCENTILES = (99, 95, 90)
VARIETIES = ("Group", "Semilattice", "Clifford", "StrictInverse", "General")

if __package__ in (None, ""):
    sys.path.insert(0, ROOT)

from perfbench import pbgen, tracing, workloads  # noqa: E402

# name -> (op-list function, warm-up function, estimated seconds per
# round at the seed commit, most rounds, CLI path?).  ct-query stops
# after five rounds (155 ops): from about 181 ops on the tail rule picks
# p95 instead of p90, which would change what the metric measures
# between runs.
WORKLOADS = {
    "pb-query": (workloads.build_pb_query, workloads.pb_warmup, 3.2, None,
                 True),
    "pb-session": (workloads.build_pb_session, workloads.session_warmup,
                   1.0, None, False),
    "ct-query": (workloads.build_ct_query, workloads.ct_warmup, 4.5, 5, True),
    "reductions": (workloads.build_reductions, workloads.reductions_warmup,
                   0.6, None, True),
}

CLI_COMMANDS = ("member", "conj", "slp", "transport", "green", "gen", "mgs",
                "eqn", "automata")
SELF_SPANS = (
    "cli", "formats.parse", "formats.serialize", "gensys.GeneratorSystem",
    "cayley.CayleyTable", "oracle.close", "oracle.naive_member",
    "oracle.naive_conjugate", "oracle.naive_green",
    "classify.classify_generated", "groups.PermGroup", "groups.contains",
    "groups.set_transporter", "groups.group_conjugate", "munn.dispatch",
    "munn.munn_graph", "munn.basis_at", "munn.sis", "munn.clifford",
    "ctsolver.member", "ctsolver.conjugate", "slp.build", "slp.eval",
    "meta.mgs_decide", "meta.solve_equations",
    "automata.intersect_nonempty", "hardness.gen")
# counters reported per traced op
PER_OP_COUNTS = (
    ["cli.%s.calls" % c for c in CLI_COMMANDS]
    + ["formats.parse.calls", "formats.parse.bytes",
       "gensys.GeneratorSystem.calls", "cayley.CayleyTable.calls",
       "oracle.close.calls", "oracle.close.elements", "oracle.close.products",
       "classify.classify_generated.calls"]
    + ["classify.tag.%s" % v for v in ("Trivial",) + VARIETIES]
    + ["groups.PermGroup.calls", "groups.contains.calls",
       "groups.set_transporter.calls", "munn.munn_graph.calls",
       "ctsolver.member.calls", "ctsolver.greedy_iterations",
       "meta.mgs_decide.calls", "automata.intersect_nonempty.calls",
       "hardness.gen.calls"])
# counters reported per call of the named entry point: (metric, calls)
PER_CALL_COUNTS = (
    ("groups.PermGroup.base_len", "groups.PermGroup.calls"),
    ("groups.PermGroup.orbit_points", "groups.PermGroup.calls"),
    ("munn.munn_graph.vertices", "munn.munn_graph.calls"),
    ("munn.munn_graph.edges", "munn.munn_graph.calls"),
    ("munn.munn_graph.components", "munn.munn_graph.calls"),
    ("slp.length", "slp.build.calls"),
    ("meta.mgs_decide.elements", "meta.mgs_decide.calls"),
    ("automata.witness_len", "automata.witnesses"),
)
# shares of traced op wall time (excluding each held system's first
# query) that the prediction table rests on
SPLITS = {
    "split.close_classify": ("oracle.close", "classify.classify_generated"),
    "split.cayley_parse": ("cayley.CayleyTable", "formats.parse"),
    "split.mgs_close": ("meta.mgs_decide", "oracle.close"),
    "split.groups_munn": tuple(n for n in SELF_SPANS
                               if n.startswith(("groups.", "munn."))),
}


END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def per_layer_units():
    units = {"%s.self_s" % n: "s/op" for n in SELF_SPANS}
    units.update({n: "1/op" for n in PER_OP_COUNTS})
    units.update({n: "1/call" for n, _ in PER_CALL_COUNTS})
    units["cayley.CayleyTable.order_max"] = "count"
    units.update({n: "ratio" for n in SPLITS})
    units["trace.overhead"] = "ratio"
    units["trace.coverage"] = "ratio"
    units.update({"input.yes_share": "ratio", "input.reuse_share": "ratio",
                  "input.closure_p50": "count", "input.closure_max": "count",
                  "input.order_p50": "count", "input.order_max": "count"})
    units.update({"input.variety.%s" % v: "ratio" for v in VARIETIES})
    return units


# -- executing ops -----------------------------------------------------------


class Runner:
    def __init__(self, cli, munn):
        self.cli = cli
        self.munn = munn

    def execute(self, op):
        """(exit status, result): 0 decided, 1 refused, 2 errored.  The
        result is the list of stdout texts or the library return value."""
        if op.call is not None:
            name, args = op.call
            try:
                return 0, getattr(self.munn, name)(*args)
            except self.munn.OutsideTractable as exc:
                return 1, repr(exc)
            except Exception as exc:  # an uncaught error counts as errored
                return 2, repr(exc)
        outs = []
        for step in op.steps:
            argv = step(outs) if callable(step) else step
            out = io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    status = self.cli.main(argv)
            except Exception as exc:
                return 2, outs + [repr(exc)]
            outs.append(out.getvalue())
            if status != 0:
                return status, outs
        return 0, outs


def verify(op, result):
    """None if the answer and any witness are right, else the reason."""
    if op.call is not None:
        answer = result if isinstance(result, bool) else result[0]
    else:
        first = result[-1].split("\n", 1)[0]
        if first not in ("YES", "NO"):
            return "first line %r is not YES or NO" % first
        answer = first == "YES"
    if answer != op.expect:
        return "answered %s, expected %s" % (answer, op.expect)
    if answer and op.check is not None:
        return op.check(result)
    return None


# -- statistics ------------------------------------------------------------


def percentile(values, p):
    values = sorted(values)
    pos = (len(values) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def tail(latencies):
    """The highest of p99/p95/p90 with at least ten samples beyond it,
    falling back to the median for short runs: (value, percentile)."""
    for p in TAIL_PERCENTILES:
        value = percentile(latencies, p)
        if sum(1 for x in latencies if x > value) >= 10:
            return value, p
    return percentile(latencies, 50), 50


def input_stats(ops):
    closures = [op.info["closure"] for op in ops if "closure" in op.info]
    orders = [op.info["order"] for op in ops if "order" in op.info]
    out = {
        "input.yes_share": sum(bool(op.expect) for op in ops) / len(ops),
        "input.reuse_share": sum(op.info.get("first") is False
                                 for op in ops) / len(ops),
        "input.closure_p50": percentile(closures, 50) if closures else 0,
        "input.closure_max": max(closures, default=0),
        "input.order_p50": percentile(orders, 50) if orders else 0,
        "input.order_max": max(orders, default=0),
    }
    for v in VARIETIES:
        out["input.variety.%s" % v] = sum(
            op.info.get("variety") == v for op in ops) / len(ops)
    return out


def layer_metrics(tracer, traced, slowdowns, overhead):
    """Per-layer metrics from the traced ops: [(op, scaled latency)]
    and each op's host slowdown."""
    n = len(traced)
    spans = tracer.spans
    selfs = [self_s / slowdowns[rec[4]] for rec, self_s
             in zip(spans, tracing.self_times(spans))]
    total = {name: 0.0 for name in SELF_SPANS}
    steady_self = {name: 0.0 for name in SELF_SPANS}
    steady = {i for i, (op, _) in enumerate(traced)
              if op.info.get("first") is not True}
    top = 0.0
    for rec, self_s in zip(spans, selfs):
        name, start, end, parent, opid = rec
        total[name] += self_s
        if opid in steady:
            steady_self[name] += self_s
        if parent < 0:
            top += (end - start) / slowdowns[opid]
    wall = sum(lat for _, lat in traced)
    steady_wall = sum(lat for i, (_, lat) in enumerate(traced) if i in steady)
    out = {"%s.self_s" % name: total[name] / n for name in SELF_SPANS}
    out.update({name: tracer.counts[name] / n for name in PER_OP_COUNTS})
    for name, calls in PER_CALL_COUNTS:
        out[name] = tracer.counts[name] / max(tracer.counts[calls], 1)
    out["cayley.CayleyTable.order_max"] = tracer.maxima.get(
        "cayley.CayleyTable.order_max", 0)
    for name, parts in SPLITS.items():
        out[name] = sum(steady_self[p] for p in parts) / steady_wall
    out["trace.overhead"] = overhead
    out["trace.coverage"] = top / wall
    return out


# -- the run ---------------------------------------------------------------


def set_up(workload, seed, seconds, workdir, runner):
    """Build the op list and warm up; returns (rounds, elapsed seconds)."""
    build, warm, round_s, most, cli_path = WORKLOADS[workload]
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ctx = workloads.BuildContext(seed, workdir)
    rounds = build(ctx, min(math.ceil(1.5 * seconds / round_s) + 1,
                            most or math.inf))
    warm_ops = warm(ctx)
    if cli_path:
        keys = [k for ops in rounds for op in ops for k in op.keys]
        keys += [k for op in warm_ops for k in op.keys]
        if len(keys) != len(set(keys)):
            raise AssertionError("two CLI ops share an instance")
    for op in warm_ops:
        status, result = runner.execute(op)
        problem = verify(op, result) if status == 0 else "exit %d" % status
        if problem:
            raise AssertionError("warm-up op failed: %s" % problem)
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import invsem.cli"], env=env,
                   cwd=ROOT, check=True)
    return rounds, time.perf_counter() - start


_PROBE_GENS = pbgen.sym(6).gens


def speed_probe():
    """The time of a fixed piece of Python work as a multiple of
    PROBE_REF_S; the collector is off so the heap cannot change it."""
    gc.disable()
    try:
        start = time.perf_counter()
        pbgen.closure(_PROBE_GENS, 720)
        return (time.perf_counter() - start) / PROBE_REF_S
    finally:
        gc.enable()


def run_rounds(rounds, runner, seconds, tracer=None):
    """Whole rounds until `seconds` of op time have passed.  With a
    tracer, rounds alternate untraced / traced.  Returns {traced?:
    ([(op, latency, status, result, slowdown)], [(ok ops, scaled
    seconds, seconds) per round])}.  An op's slowdown is the mean of the
    probes just before and after it; its latency over its slowdown is
    its scaled latency."""
    done = {False: ([], []), True: ([], [])}
    elapsed = 0.0
    for i, ops in enumerate(rounds):
        # a traced run needs at least one round of each kind
        if elapsed >= seconds and (tracer is None or i >= 2):
            break
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracing.install_all(tracer)
        records, per_round = done[traced]
        first = len(records)
        probes = [speed_probe()]
        ok = 0
        since = 0.0
        for op in ops:
            if traced:
                tracer.op = len(records)
            t0 = time.perf_counter()
            status, result = runner.execute(op)
            latency = time.perf_counter() - t0
            records.append([op, latency, status, result, len(probes) - 1])
            ok += status == 0
            since += latency
            if since >= PROBE_EVERY_S:
                probes.append(speed_probe())
                since = 0.0
        probes.append(speed_probe())
        for rec in records[first:]:
            rec[4] = (probes[rec[4]] + probes[rec[4] + 1]) / 2
        took = sum(rec[1] for rec in records[first:])
        per_round.append((ok, sum(rec[1] / rec[4] for rec in records[first:]),
                          took))
        elapsed += took
        if traced:
            tracer.uninstall()
            tracer.op = None
        for op in ops:
            if op.call is not None:
                # drop the held system so later rounds start from the
                # same memory footprint; verify() needs only the answer
                op.call = (op.call[0], None)
    return done


def round_rate(per_round, scaled=True):
    """Median over rounds of ops per second: every round has the same
    op mix, and the median discards a round slowed by the host."""
    return statistics.median(ok / (busy if scaled else took)
                             for ok, busy, took in per_round)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "invsem", "cli.py")):
        print("error: no invsem sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from invsem import cli, munn
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print("error: invsem imported from %s, not the checkout"
              % cli.__file__, file=sys.stderr)
        return 2

    runner = Runner(cli, munn)
    bench_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(bench_dir, "%s-%d-%d" % (args.workload, args.seed,
                                                    os.getpid()))
    try:
        setups = []
        rounds = None
        for _ in range(SETUP_REPEATS):
            # each repeat starts from the same heap: no previous op list
            rounds = None
            gc.collect()
            before = speed_probe()
            rounds, took = set_up(args.workload, args.seed, args.seconds,
                                  workdir, runner)
            setups.append(took / ((before + speed_probe()) / 2))
        # the collector skips the benchmark's own objects from here on,
        # as it would in an invsem process that holds no op list
        gc.collect()
        gc.freeze()
        tracer = tracing.Tracer() if args.trace else None
        done = run_rounds(rounds, runner, args.seconds, tracer)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records = done[False][0] + done[True][0]
        wrong = []
        failed = 0
        for op, _, status, result, _ in records:
            if status != 0:
                failed += 1
                continue
            problem = verify(op, result)
            if problem:
                wrong.append("%s: %s" % (op.kind, problem))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed,
              "attempted": len(records), "failed": failed,
              "failed_ratio": failed / len(records), "wrong": wrong[:10],
              "setup_runs_s": setups}
    if args.trace:
        untraced, traced = done[False], done[True]
        metrics = layer_metrics(
            tracer, [(op, lat / slow) for op, lat, _, _, slow in traced[0]],
            [slow for *_, slow in traced[0]],
            round_rate(traced[1]) / round_rate(untraced[1]))
        metrics.update(input_stats([rec[0] for rec in records]))
        units = per_layer_units()
        os.makedirs(bench_dir, exist_ok=True)
        tracer.dump(os.path.join(bench_dir, "trace-%s-%d.json"
                                 % (args.workload, args.seed)))
    else:
        recs, per_round = done[False]
        # a failed op misses any latency limit: it counts as the run
        lat_ms = [lat * 1e3 / slowdown if status == 0 else args.seconds * 1e3
                  for _, lat, status, _, slowdown in recs]
        tail_ms, tail_p = tail(lat_ms)
        metrics = {
            "ops_per_s": round_rate(per_round),
            "latency_p50_ms": percentile(lat_ms, 50),
            "latency_tail_ms": tail_ms,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END_UNITS
        report.update(tail_percentile=tail_p, samples=len(lat_ms),
                      rounds=len(per_round),
                      timed_s=sum(took for *_, took in per_round),
                      unscaled_ops_per_s=round_rate(per_round, False),
                      host_slowdown=statistics.median(
                          slowdown for *_, slowdown in recs))
        report.update(input_stats([rec[0] for rec in recs]))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
