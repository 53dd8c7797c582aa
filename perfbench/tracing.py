"""Spans around invsem's public entry points, installed from outside.

A span is (name, start, end, parent, op id).  Wrappers replace each
traced callable in every invsem module namespace that holds it, because
cli, munn, classify and meta import names directly; methods are
replaced on their class.  Spans stay in memory and are written out when
the run ends.  Counters are read from arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None
        self.counts = Counter()  # summed counters
        self.maxima = {}
        self._installed = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, after=None, before=None):
        """fn with a span named `name`; before(args) runs ahead of the
        call and its value is passed to after(args, result, value)."""
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, pre)
            return result

        return traced

    def count(self, key, value=1):
        self.counts[key] += value

    def peak(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    # -- installation ------------------------------------------------------

    def install_function(self, module, attr, name, **hooks):
        """Replace module.attr in every invsem namespace that holds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **hooks)
        for modname, mod in list(sys.modules.items()):
            if modname != "invsem" and not modname.startswith("invsem."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._installed.append((mod, key, original))

    def install_method(self, cls, attr, name, **hooks):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, **hooks))
        self._installed.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)


def self_times(spans):
    """Per-span self time: duration minus the union of the intervals of
    its direct children (children of one parent never overlap in a
    single thread, but the union is taken anyway)."""
    children = {}
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(end - start - covered)
    return out


# -- the traced entry points -------------------------------------------------


def install_all(tracer):
    """Wrap every entry point that the per-layer metrics name."""
    # by module path: the package re-exports a function named classify
    (automata, cayley, classify, cli, ctsolver, formats, gensys, groups,
     hardness, meta, munn, oracle, slp) = (
        importlib.import_module("invsem." + name) for name in (
            "automata", "cayley", "classify", "cli", "ctsolver", "formats",
            "gensys", "groups", "hardness", "meta", "munn", "oracle", "slp"))
    count = tracer.count
    peak = tracer.peak

    def cli_after(args, result, _):
        argv = args[0] if args else []
        count("cli.%s.calls" % argv[0])

    tracer.install_function(cli, "main", "cli", after=cli_after)

    def parse_before(args):
        return os.path.getsize(args[0])

    def parse_after(args, result, size):
        count("formats.parse.calls")
        count("formats.parse.bytes", size)

    tracer.install_function(formats, "parse", "formats.parse",
                            before=parse_before, after=parse_after)
    tracer.install_function(formats, "serialize", "formats.serialize")

    tracer.install_method(
        gensys.GeneratorSystem, "__init__", "gensys.GeneratorSystem",
        after=lambda a, r, p: count("gensys.GeneratorSystem.calls"))

    def table_after(args, result, _):
        count("cayley.CayleyTable.calls")
        peak("cayley.CayleyTable.order_max", args[0].order)

    tracer.install_method(cayley.CayleyTable, "__init__",
                          "cayley.CayleyTable", after=table_after)

    def close_before(args):
        return args[0]._closure is None

    def close_after(args, result, fresh):
        count("oracle.close.calls")
        if fresh:
            count("oracle.close.elements", len(result.elements))
            count("oracle.close.products",
                  len(result.elements) * len(args[0].generators))

    tracer.install_function(oracle, "close", "oracle.close",
                            before=close_before, after=close_after)
    for fn in ("naive_member", "naive_conjugate", "naive_green"):
        tracer.install_function(oracle, fn, "oracle.%s" % fn)

    def classify_after(args, result, _):
        count("classify.classify_generated.calls")
        count("classify.tag.%s" % result.name)

    tracer.install_function(classify, "classify_generated",
                            "classify.classify_generated",
                            after=classify_after)

    def permgroup_after(args, result, _):
        G = args[0]
        count("groups.PermGroup.calls")
        count("groups.PermGroup.base_len", len(G.levels))
        count("groups.PermGroup.orbit_points",
              sum(len(lvl.transversal) for lvl in G.levels))

    tracer.install_method(groups.PermGroup, "__init__", "groups.PermGroup",
                          after=permgroup_after)
    tracer.install_method(
        groups.PermGroup, "contains", "groups.contains",
        after=lambda a, r, p: count("groups.contains.calls"))
    tracer.install_function(
        groups, "set_transporter", "groups.set_transporter",
        after=lambda a, r, p: count("groups.set_transporter.calls"))
    tracer.install_function(groups, "group_conjugate",
                            "groups.group_conjugate")

    for fn in ("dispatch_member", "dispatch_conjugate"):
        tracer.install_function(munn, fn, "munn.dispatch")

    def munn_after(args, result, _):
        count("munn.munn_graph.calls")
        count("munn.munn_graph.vertices", len(result.vertices))
        count("munn.munn_graph.edges", len(result.edges))
        count("munn.munn_graph.components", len(set(result.comp)))

    tracer.install_function(munn, "munn_graph", "munn.munn_graph",
                            after=munn_after)
    tracer.install_function(munn, "basis_at", "munn.basis_at")
    for fn in ("sis_member", "sis_conjugate"):
        tracer.install_function(munn, fn, "munn.sis")
    for fn in ("clifford_member", "clifford_conjugate"):
        tracer.install_function(munn, fn, "munn.clifford")

    def ct_member_after(args, result, _):
        count("ctsolver.member.calls")
        count("ctsolver.greedy_iterations", result[2])

    tracer.install_method(ctsolver.CTSolver, "member", "ctsolver.member",
                          after=ct_member_after)
    tracer.install_method(ctsolver.CTSolver, "conjugate",
                          "ctsolver.conjugate")

    def slp_after(args, result, _):
        count("slp.build.calls")
        count("slp.length", len(result))

    for fn in ("slp_semilattice", "slp_group", "slp_clifford"):
        tracer.install_function(slp, fn, "slp.build", after=slp_after)
    tracer.install_function(slp, "slp_eval", "slp.eval")

    def mgs_after(args, result, _):
        count("meta.mgs_decide.calls")
        cl = args[0]._closure
        if cl is not None:
            count("meta.mgs_decide.elements", len(cl.elements))

    tracer.install_function(meta, "mgs_decide", "meta.mgs_decide",
                            after=mgs_after)
    tracer.install_function(meta, "solve_equations", "meta.solve_equations")

    def automata_after(args, result, _):
        count("automata.intersect_nonempty.calls")
        if result is not None:
            count("automata.witness_len", len(result))
            count("automata.witnesses")

    tracer.install_function(automata, "intersect_nonempty",
                            "automata.intersect_nonempty",
                            after=automata_after)
    for fn in ("gen_ugap_conj", "gen_ugap_member", "gen_ncl_conj",
               "gen_ncl_member", "gen_ncl_automata", "gen_mgs",
               "gen_equation"):
        tracer.install_function(
            hardness, fn, "hardness.gen",
            after=lambda a, r, p: count("hardness.gen.calls"))
