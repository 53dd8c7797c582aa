"""The four workloads: seeded op lists with expected answers fixed at
generation time, and the witness checks run after the timed region.

A workload is a list of rounds with the same op mix in each, so any
number of whole rounds has the nominal mix.  A CLI op is one or two
`invsem ...` argument lists run through `invsem.cli.main`; a library op
is one call of `dispatch_member` / `dispatch_conjugate` on a held
GeneratorSystem.  Every instance is written or built here from a seeded
random.Random; the program receives only the files and objects.
"""

from __future__ import annotations

import os
import random

from . import ctgen, pbgen
from .pbgen import compose, domain, identity, inverse


class Op:
    """One operation.  steps: argv lists for invsem.cli.main, where an
    item may be a function of the previous steps' stdout; call: a
    library call (function name, args).  expect: the correct YES/NO.
    check(result) returns None or the reason a witness is wrong.  keys:
    the identities of the instances the op reads.  info: input
    statistics."""

    def __init__(self, kind, expect, check=None, steps=None, call=None,
                 keys=(), info=None):
        self.kind = kind
        self.expect = expect
        self.check = check
        self.steps = steps
        self.call = call
        self.keys = keys
        self.info = info or {}


class BuildContext:
    """Seeded randomness, the work directory and the instance keys used
    so far (no two CLI ops may share a generator system or table)."""

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.used = set()
        self._files = 0

    def fresh(self, key):
        if key in self.used:
            return False
        self.used.add(key)
        return True

    def path(self, suffix):
        self._files += 1
        return os.path.join(self.workdir, "i%05d%s" % (self._files, suffix))


def write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _images(p):
    return " ".join("_" if y is None else str(y + 1) for y in p)


def pb_text(n, gens, **records):
    lines = ["pb %d" % n]
    lines.extend("gen " + _images(g) for g in gens)
    for key in ("target", "s", "t"):
        if key in records:
            lines.append("%s %s" % (key, _images(records[key])))
    for key in ("ds", "dt"):
        if key in records:
            points = sorted(records[key])
            lines.append("%s %s" % (key, " ".join(str(x + 1) for x in points)))
    return "\n".join(lines) + "\n"


def parse_images(tokens, n):
    if len(tokens) != n:
        raise ValueError("expected %d image tokens" % n)
    return tuple(None if tok == "_" else int(tok) - 1 for tok in tokens)


def _line(lines, head):
    for ln in lines:
        parts = ln.split()
        if parts and parts[0] == head:
            return parts[1:]
    return None


def _system_key(n, gens):
    return ("pb", n, frozenset(gens))


# -- partial-bijection ops -------------------------------------------------


def _conj_pair(rng, system, want):
    """(s, t) with s ~ t iff want.  YES: t = u~ s u for u in U whose
    domain holds s.  NO: t has another conjugation signature."""
    n = system.n
    labels = system.labels
    while True:
        u = system.element(rng)
        if system.variety == "Semilattice":
            s = pbgen.restrict_id(n, [x for x in domain(u)
                                      if rng.random() < 0.7])
            if want:
                return s, s
            t = pbgen.restrict_id(n, [x for x in domain(u)
                                      if rng.random() < 0.7])
            if t != s:
                return s, t
            continue
        if len(domain(u)) < 2:
            continue
        s = pbgen.random_pb(rng, n, domain(u), 0.6)
        if not domain(s):
            continue
        if want:
            return s, compose(compose(inverse(u), s), u)
        sig = pbgen.conj_signature(s, labels)
        for _ in range(20):
            t = pbgen.random_pb(rng, n, system.support, 0.6)
            if len(domain(t)) == len(domain(s)) and \
                    pbgen.conj_signature(t, labels) != sig:
                return s, t


def _member_target(rng, system, want):
    if want:
        return system.element(rng)
    while True:
        if system.group_domain is not None and rng.random() < 0.7:
            t = pbgen.random_perm_on(rng, system.n, system.group_domain)
        elif system.variety == "Semilattice":
            t = pbgen.restrict_id(system.n, [x for x in system.support
                                             if rng.random() < 0.5])
        else:
            t = pbgen.random_pb(rng, system.n, range(system.n), 0.7)
        if not system.member(t):
            return t


def _check_conjugator(system, s, t, u):
    if not system.member_one(u):
        return "conjugator is not in U^1"
    ub = inverse(u)
    if compose(compose(ub, s), u) != t or compose(compose(u, t), ub) != s:
        return "conjugator fails the defining equations"
    return None


def _cli_conj_check(system, s, t):
    def check(out):
        tokens = _line(out[-1].splitlines(), "conjugator")
        if tokens is None:
            return "missing conjugator line"
        return _check_conjugator(system, s, t, parse_images(tokens, system.n))
    return check


def _eval_slp(lines, gens):
    values = []
    target = None
    for ln in lines:
        parts = ln.split()
        if parts[0] == "g":
            values.append(gens[int(parts[1])])
        elif parts[0] == "m":
            values.append(compose(values[int(parts[1])],
                                  values[int(parts[2])]))
        elif parts[0] == "inv":
            values.append(inverse(values[int(parts[1])]))
        elif parts[0] == "target":
            target = values[int(parts[1])]
    return values, target


def _slp_check(system, t):
    gens = pbgen.inverse_closed(system.gens)

    def check(out):
        lines = out[-1].splitlines()[1:]
        values, value = _eval_slp(lines, gens)
        if value != t:
            return "slp does not evaluate to the target"
        length = _line(lines, "length")
        if length is None or int(length[0]) != len(values):
            return "slp length line is wrong"
        bound = _line(lines, "bound")
        if bound is not None and len(values) > float(bound[0]):
            return "slp longer than its printed bound"
        if _line(lines, "verified") != ["yes"]:
            return "slp not verified"
        return None
    return check


def _transport_check(system, ds, dt):
    def check(out):
        tokens = _line(out[-1].splitlines(), "transporter")
        if tokens is None:
            return "missing transporter line"
        u = parse_images(tokens, system.n)
        # an empty transporter word prints the identity of U^1
        if not system.member_one(u):
            return "transporter is not in U^1"
        if any(u[x] is None for x in ds) or {u[x] for x in ds} != set(dt):
            return "transporter does not map ds onto dt"
        return None
    return check


def _green_expected(system, s, t, rel):
    """Relative Green relation by enumeration over U^1 (small U)."""
    elements = list(pbgen.closure(system.gens, 5000)) + [identity(system.n)]

    def right(x):
        return {compose(x, u) for u in elements}

    def left(x):
        return {compose(u, x) for u in elements}

    if rel == "R":
        return s in right(t) and t in right(s)
    if rel == "L":
        return s in left(t) and t in left(s)
    if rel == "H":
        return (s in right(t) and t in right(s)
                and s in left(t) and t in left(s))
    two = lambda x: {y for z in left(x) for y in right(z)}  # noqa: E731
    return s in two(t) and t in two(s)


def _green_pair(rng, system):
    """Half the pairs are s = t u for a random u in U, so that they are
    often related."""
    t = system.element(rng)
    if rng.random() < 0.5:
        u = system.element(rng)
        return compose(t, u), t
    return system.element(rng), t


def pb_op(ctx, cmd, family, degree, want):
    """One fresh pb instance for `cmd` and its op."""
    rng = ctx.rng
    while True:
        system = pbgen.System(rng, family, degree)
        if ctx.fresh(_system_key(degree, system.gens)):
            break
    info = {"variety": system.variety, "closure": system.size}
    records = {}
    check = None
    argv = [cmd]
    if cmd == "member":
        t = _member_target(rng, system, want)
        records["target"] = t
        expect = system.member(t)
    elif cmd == "slp":
        t = _member_target(rng, system, want)
        records["target"] = t
        expect = system.member(t)
        check = _slp_check(system, t)
    elif cmd == "conj":
        s, t = _conj_pair(rng, system, want)
        records.update(s=s, t=t)
        expect = want
        check = _cli_conj_check(system, s, t)
    elif cmd == "transport":
        dom = sorted(system.group_domain)
        ds = frozenset(rng.sample(dom, rng.randrange(2, len(dom) - 1)))
        if want:
            g = system.element(rng, 30)
            dt = frozenset(g[x] for x in ds)
        else:
            profile = pbgen.transport_profile(system, ds)
            options = [d for d in pbgen.subsets_of(dom, len(ds))
                       if pbgen.transport_profile(system, d) != profile]
            if not options:
                return pb_op(ctx, cmd, family, degree, True)
            dt = rng.choice(options)
        records.update(ds=ds, dt=dt)
        expect = want
        check = _transport_check(system, ds, dt)
    elif cmd.startswith("green"):
        rel = cmd[-1]
        s, t = _green_pair(rng, system)
        records.update(s=s, t=t)
        expect = _green_expected(system, s, t, rel)
        cmd = "green"
        argv = ["green", "--rel", rel]
    else:
        raise ValueError(cmd)
    path = ctx.path(".pb")
    write(path, pb_text(degree, system.gens, **records))
    return Op(cmd, expect, check, steps=[argv + [path]],
              keys=(_system_key(degree, system.gens),), info=info)


def _families(rng):
    """The template families by name; semilattices are random."""
    return {
        "S5": pbgen.sym(5), "S6": pbgen.sym(6), "S7": pbgen.sym(7),
        "A6": pbgen.alt(6), "A7": pbgen.alt(7), "A8": pbgen.alt(8),
        "S4wrS2": pbgen.wreath(4, 2), "S2wrS4": pbgen.wreath(2, 4),
        "S3wrS2": pbgen.wreath(3, 2), "S2wrS3": pbgen.wreath(2, 3),
        "S3xS4": pbgen.sym_product(3, 4), "S3xS3": pbgen.sym_product(3, 3),
        "S3xS5": pbgen.sym_product(3, 5), "S4xS4": pbgen.sym_product(4, 4),
        "SL6": pbgen.semilattice(rng, 6, 5),
        "SL8": pbgen.semilattice(rng, 8, 7),
        "C322": pbgen.clifford((3, 2, 2), [(0, 1), (1, 2), (0, 2)]),
        "C44": pbgen.clifford((4, 4), [(0, 1), (0,), (1,)]),
        "C53": pbgen.clifford((5, 3), [(0, 1), (0,)]),
        "C43": pbgen.clifford((4, 3), [(0, 1), (1,)]),
        "B2x3": pbgen.brandt(2, 3), "B2x4": pbgen.brandt(2, 4),
        "B3x2": pbgen.brandt(3, 2), "B4x2": pbgen.brandt(4, 2),
        "I3": pbgen.sym_inverse(3), "I4": pbgen.sym_inverse(4),
        "I5": pbgen.sym_inverse(5),
        "I3xI2": pbgen.inverse_product(3, 2),
        "I3xI3": pbgen.inverse_product(3, 3),
    }


# (command, family, degree) per pb-query round.  The four costliest ops
# (closures of A_8, 20160 elements) form one cost cluster, and the p95
# tail, 2.7 ops per round from the top, falls inside it for any number
# of rounds.
# Entries alternate between YES and NO instances (green pairs are
# random), so every round has the same answers where cost depends on
# them.
PB_QUERY_MIX = [
    ("member", "A8", 8), ("conj", "A8", 8),
    ("member", "A8", 8), ("conj", "A8", 8),
    ("member", "S7", 7), ("slp", "S4wrS2", 8), ("member", "S6", 7),
    ("member", "S5", 6), ("member", "A6", 7), ("member", "S4wrS2", 8),
    ("member", "S2wrS3", 7), ("member", "S3xS4", 8),
    ("member", "SL6", 7), ("member", "SL8", 8), ("member", "C322", 8),
    ("member", "C53", 8), ("member", "C43", 7), ("member", "B2x4", 8),
    ("member", "B3x2", 7), ("member", "B4x2", 8), ("member", "I4", 5),
    ("member", "I5", 6), ("member", "I3xI3", 7),
    ("conj", "S5", 6), ("conj", "S6", 6), ("conj", "S3wrS2", 7),
    ("conj", "S3xS3", 6), ("conj", "SL6", 6), ("conj", "C322", 7),
    ("conj", "C44", 8), ("conj", "B2x3", 6), ("conj", "B3x2", 6),
    ("conj", "B4x2", 8), ("conj", "I4", 6), ("conj", "I3xI2", 5),
    ("slp", "S5", 5), ("slp", "S6", 7), ("slp", "S3wrS2", 6),
    ("slp", "S3xS4", 7), ("slp", "SL6", 6), ("slp", "SL8", 8),
    ("slp", "C322", 7), ("slp", "C43", 8),
    ("transport", "S6", 7), ("transport", "S2wrS4", 8),
    ("transport", "S4wrS2", 8), ("transport", "S3xS5", 8),
    ("transport", "S4xS4", 8),
    ("greenR", "SL6", 6), ("greenL", "B2x3", 6), ("greenJ", "I3", 4),
    ("greenR", "I4", 5), ("greenL", "I3xI2", 6), ("greenH", "C322", 7),
]


def build_pb_query(ctx, rounds):
    out = []
    for _ in range(rounds):
        fams = _families(ctx.rng)
        ops = [pb_op(ctx, cmd, fams[name], degree, i % 2 == 0)
               for i, (cmd, name, degree) in enumerate(PB_QUERY_MIX)]
        ctx.rng.shuffle(ops)
        out.append(ops)
    return out


def pb_warmup(ctx):
    fams = _families(ctx.rng)
    return [pb_op(ctx, cmd, fams[name], degree, True)
            for cmd, name, degree in (("member", "S5", 5), ("conj", "I3", 4),
                                      ("slp", "SL6", 6),
                                      ("transport", "S3xS3", 6),
                                      ("greenR", "I3", 4))]


# -- pb-session: held systems, many queries each ---------------------------

# (family, degree) of the systems held in one round
PB_SESSION_SYSTEMS = [
    ("S5", 6), ("S6", 6), ("A6", 7), ("A7", 7), ("S3wrS2", 6),
    ("S2wrS3", 7), ("S3xS3", 7), ("S3xS4", 8), ("SL6", 7), ("SL8", 8),
    ("C322", 8), ("C43", 7), ("C44", 8), ("B2x3", 7), ("B2x4", 8),
    ("B3x2", 6), ("B4x2", 8), ("I3", 5), ("I4", 6), ("I3xI2", 6),
    ("S4wrS2", 8), ("S2wrS4", 8), ("C53", 8), ("I3xI3", 7),
]
PB_SESSION_QUERIES = 24  # per system: reuse share 23/24


def _session_ops(ctx, system, gs_ref, pb_cls):
    rng = ctx.rng
    ops = []
    for q in range(PB_SESSION_QUERIES):
        # a fixed pattern: 60% membership, answers alternating
        want = q % 2 == 0
        info = {"variety": system.variety, "closure": system.size,
                "first": q == 0}
        if q % 5 not in (1, 3):
            t = _member_target(rng, system, want)
            expect = system.member(t)
            ops.append(Op("member", expect, call=(
                "dispatch_member", (gs_ref, pb_cls(system.n, t))),
                info=info))
        else:
            s, t = _conj_pair(rng, system, want)

            def check(result, s=s, t=t):
                return _check_conjugator(system, s, t, result[1].images)

            ops.append(Op("conj", want, check, call=(
                "dispatch_conjugate",
                (gs_ref, pb_cls(system.n, s), pb_cls(system.n, t))),
                info=info))
    return ops


def _held_systems(ctx, specs):
    from invsem.gensys import GeneratorSystem
    from invsem.pbij import PartialBijection
    fams = _families(ctx.rng)
    per_system = []
    for name, degree in specs:
        system = pbgen.System(ctx.rng, fams[name], degree)
        gs = GeneratorSystem([PartialBijection(degree, g)
                              for g in system.gens], degree=degree)
        per_system.append(_session_ops(ctx, system, gs, PartialBijection))
    return per_system


def build_pb_session(ctx, rounds):
    """Each round holds one GeneratorSystem per template and queries it
    PB_SESSION_QUERIES times: first every system's first query, then
    the rest interleaved."""
    out = []
    for _ in range(rounds):
        per_system = _held_systems(ctx, PB_SESSION_SYSTEMS)
        firsts = [ops[0] for ops in per_system]
        rest = [op for ops in per_system for op in ops[1:]]
        ctx.rng.shuffle(firsts)
        ctx.rng.shuffle(rest)
        out.append(firsts + rest)
    return out


def session_warmup(ctx):
    return _held_systems(ctx, [("S5", 5)])[0][:4]


# -- ct-query ----------------------------------------------------------------


def _ct_word_check(table, gens, t):
    letters = {int(g) for g in gens} | {int(table.inv[g]) for g in gens}

    def check(out):
        tokens = _line(out[-1].splitlines(), "word")
        if tokens is None:
            return "missing word line"
        word = [int(tok) for tok in tokens]
        if any(x not in letters for x in word):
            return "word uses a non-generator"
        if not word:
            return None if t == table.identity else "empty word"
        value = word[0]
        for x in word[1:]:
            value = int(table.table[value, x])
        return None if value == t else "word does not evaluate to the target"
    return check


def ct_op(ctx, cmd, base, make, want):
    """A relabelled copy of base.  make(perm) gives the generator indices
    and, for reduction tables, the records the reduction fixes; other
    targets are drawn here, inside the generated part when `want`.
    Expected answers come from a closure over the table."""
    rng = ctx.rng
    while True:
        table, perm = base.relabel(rng)
        gens, records = make(perm)
        key = ("ct", table.order, hash(table.table.tobytes()),
               frozenset(gens))
        if ctx.fresh(key):
            break
    elements = table.closure(gens)
    check = None
    if cmd == "member":
        if records is None:
            outside = sorted(set(range(table.order)) - elements)
            pool = sorted(elements) if want or not outside else outside
            records = {"target": rng.choice(pool)}
        t = records["target"]
        expect = t in elements
        check = _ct_word_check(table, gens, t)
    else:
        if records is None:
            s = rng.choice(sorted(elements))
            u = rng.choice(sorted(elements))
            t = table.mul(table.mul(int(table.inv[u]), s), u) if want \
                else rng.choice(sorted(elements))
            records = {"s": s, "t": t}
        expect = table.conjugate(elements, records["s"], records["t"])
    path = ctx.path(".ct")
    write(path, table.text(gens, **records))
    return Op(cmd, expect, check, steps=[[cmd, path]], keys=(key,),
              info={"order": table.order})


def ugap_op(ctx, cmd, n, want):
    """The UGAP reduction tables: membership over B(n) x Y2 with a
    marked e_ss generator and target e_tt, conjugacy of e_ss and e_tt
    over B(n); both answer whether s and t are connected, which is
    `want`."""
    rng = ctx.rng
    while True:
        edges = ctgen.random_graph(rng, n, rng.randrange(n - 3, n + 1))
        s, t = rng.sample(range(n), 2)
        if ctgen.connected(n, edges, s, t) == want:
            break

    def idx(a, b):
        return 1 + a * n + b

    if cmd == "member":
        base = ctgen.with_marker(ctgen.brandt(n))
        raw = [2 * idx(s, s) + 1] + [2 * idx(x, x) for x in range(n)]
        raw += [2 * idx(a, b) for a, b in edges]
        fixed = {"target": 2 * idx(t, t) + 1}
    else:
        base = ctgen.brandt(n)
        raw = [idx(x, x) for x in range(n)] + [idx(a, b) for a, b in edges]
        fixed = {"s": idx(s, s), "t": idx(t, t)}

    def make(perm):
        return ([int(perm[r]) for r in raw],
                {key: int(perm[v]) for key, v in fixed.items()})

    op = ct_op(ctx, cmd, base, make, want)
    if op.expect != want:
        raise AssertionError("UGAP table disagrees with graph connectivity")
    return op


def chain_op(ctx, cmd, n, want):
    rng = ctx.rng
    base = ctgen.chain(n)

    def make(perm):
        return [int(perm[x]) for x in rng.sample(range(n), n // 8)], None

    return ct_op(ctx, cmd, base, make, want)


def export_op(ctx, cmd, base, elements, family, want):
    """A closure export with a random non-empty subset of the family's
    generators (so some targets fall outside the generated part)."""
    rng = ctx.rng
    index = {x: i for i, x in enumerate(elements)}
    gen_idx = [index[g] for g in family.gens]

    def make(perm):
        chosen = rng.sample(gen_idx, rng.randrange(1, len(gen_idx) + 1))
        return [int(perm[i]) for i in chosen], None

    return ct_op(ctx, cmd, base, make, want)


# (kind, command, size) per ct-query round: ugap sizes are graph
# vertex counts (member order 2(1 + n^2), conj order 1 + n^2), chain
# and export sizes are orders.  The latency percentiles fall inside
# blocks of like ops whatever the round count: the median among eight
# order-101 conjugacy ops, the p90 tail among three order-244 ops.  One
# op lies above the 256 exhaustive-associativity cap (order 514): the
# sampled check costs over a second at any order, so each round has
# exactly one and its share of the run stays fixed.
CT_QUERY_MIX = (
    [("ugap", "member", 4), ("ugap", "member", 5), ("ugap", "member", 5),
     ("ugap", "member", 6), ("ugap", "conj", 6), ("ugap", "conj", 7),
     ("ugap", "conj", 8), ("ugap", "conj", 8), ("chain", "member", 64),
     ("chain", "conj", 64), ("export", "member", "B4x2")]
    + [("ugap", "conj", 10)] * 8
    + [("chain", "member", 128), ("chain", "conj", 128),
       ("export", "member", "S5"), ("export", "conj", "S5")]
    + [("ugap", "member", 11)] * 3 + [("ugap", "conj", 15)] * 3
    + [("chain", "member", 256), ("ugap", "member", 16)])


def _ct_bases():
    fams = {"S5": pbgen.sym(5), "B4x2": pbgen.brandt(4, 2)}
    return {name: (ctgen.from_family(f), f) for name, f in fams.items()}


def _ct_mixed(ctx, bases, kind, cmd, size, want):
    if kind == "ugap":
        return ugap_op(ctx, cmd, size, want)
    if kind == "chain":
        return chain_op(ctx, cmd, size, want)
    (base, elements), family = bases[size]
    return export_op(ctx, cmd, base, elements, family, want)


def build_ct_query(ctx, rounds):
    """Mix entries alternate between YES and NO instances."""
    bases = _ct_bases()
    out = []
    for _ in range(rounds):
        ops = [_ct_mixed(ctx, bases, *spec, i % 2 == 0)
               for i, spec in enumerate(CT_QUERY_MIX)]
        ctx.rng.shuffle(ops)
        out.append(ops)
    return out


def ct_warmup(ctx):
    bases = _ct_bases()
    return [_ct_mixed(ctx, bases, *spec, True) for spec in
            (("ugap", "member", 4), ("ugap", "conj", 4),
             ("chain", "member", 32), ("export", "conj", "S5"))]


# -- reductions --------------------------------------------------------------


def _random_gens(rng, deg, count):
    return [pbgen.random_pb(rng, deg, range(deg)) for _ in range(count)]


def _mgs_gens(gens, t):
    """The tag-point reduction's generators (membership to minimum
    generating set): t padded, and two tagged copies of each
    inverse-closed generator; k = 2 |Sigma|."""
    sigma = pbgen.inverse_closed(gens)
    n = len(t)
    k = 2 * len(sigma)
    out = [tuple(t) + (None,) * k]
    for j, u in enumerate(sigma):
        for copy in (0, 1):
            images = list(u) + [None] * k
            images[n + 2 * j + copy] = n + 2 * j + copy
            out.append(tuple(images))
    return out, k


# (k, closure size range of the reduced instance, answer) per
# reductions round.  mgs_decide's cost follows these closely
# (coefficient of variation about 0.3 within a shape), so fixing them
# per round keeps the run's total steady across seeds; the largest
# shape takes about 0.13 s.  These shapes are the commoner draws, so
# filling them stays cheap.
MGS_SHAPES = [(4, 1, 19, True), (4, 20, 39, False), (4, 20, 39, True),
              (6, 20, 39, True), (4, 40, 59, False), (6, 40, 59, False),
              (8, 40, 59, True), (4, 60, 79, True), (6, 60, 79, True),
              (8, 80, 99, True)]


def mgs_ops(ctx, per_shape):
    """per_shape ops of each MGS shape.  Sources are criterion-8-shaped
    (degree 3-5, one or two random generators, target in the closure
    about half of the time, closures of at most 600 elements); each
    draw fills whichever shape it fits."""
    rng = ctx.rng
    top = max(shape[2] for shape in MGS_SHAPES)
    need = {shape: per_shape for shape in MGS_SHAPES}
    out = {shape: [] for shape in MGS_SHAPES}
    while any(need.values()):
        deg = rng.choice((3, 3, 3, 3, 4, 4, 5))
        gens = _random_gens(rng, deg, rng.randrange(1, 3))
        k = 2 * len(pbgen.inverse_closed(gens))
        t = pbgen.word_product(rng, gens, rng.randrange(1, 6)) \
            if rng.random() < 0.5 else pbgen.random_pb(rng, deg, range(deg))
        # cheap tests first: most draws fit no open shape
        open_shapes = [s for s in MGS_SHAPES if s[0] == k and need[s]]
        if not open_shapes:
            continue
        elements = pbgen.closure(gens, top)
        if elements is None:
            continue
        open_shapes = [s for s in open_shapes if s[3] == (t in elements)]
        if not open_shapes:
            continue
        big, _ = _mgs_gens(gens, t)
        big_closure = pbgen.closure(big, top)
        slot = [s for s in open_shapes if big_closure is not None
                and s[1] <= len(big_closure) <= s[2]]
        if not slot or pbgen.closure(gens + [t], 600) is None:
            continue
        if ctx.fresh(_system_key(deg, gens)) and \
                ctx.fresh(_system_key(len(big[0]), big)):
            need[slot[0]] -= 1
            out[slot[0]].append(_mgs_op(ctx, deg, gens, t, elements, big,
                                        k, big_closure))
    return out


def _mgs_op(ctx, deg, gens, t, elements, big, k, big_closure):
    expect = t in elements
    src = ctx.path(".pb")
    out = ctx.path(".pb")
    write(src, pb_text(deg, gens, target=t))

    def solve(prev):
        return ["mgs", out, "-k", prev[0].split()[1]]

    def check(outs):
        if outs[0].split() != ["k", str(k)]:
            return "gen mgs printed the wrong budget"
        witness = [parse_images(ln.split()[1:], len(big[0]))
                   for ln in outs[1].splitlines()[1:] if ln.startswith("gen")]
        if not witness or len(witness) > k:
            return "witness size outside 1..k"
        if pbgen.closure(witness, len(big_closure)) != big_closure:
            return "witness does not generate the closure"
        return None

    return Op("mgs", expect, check, steps=[["gen", "mgs", src, "-o", out],
                                           solve],
              keys=(_system_key(deg, gens), _system_key(len(big[0]), big)),
              info={"closure": len(big_closure)})


def eqn_op(ctx):
    """A source whose s, t lines are e_s = t t~ and e_t = t~ t; the
    reduction asks for X in <Sigma, e_s, e_t> with X~ e_s X = e_t."""
    rng = ctx.rng
    while True:
        deg = rng.choice((3, 4, 4, 5))
        gens = _random_gens(rng, deg, 2)
        t = pbgen.random_pb(rng, deg, range(deg))
        e_s, e_t = compose(t, inverse(t)), compose(inverse(t), t)
        constraint = pbgen.closure(gens + [e_s, e_t], 600)
        if constraint is None or not ctx.fresh(_system_key(deg, gens)):
            continue
        break
    expect = any(compose(compose(inverse(x), e_s), x) == e_t
                 for x in constraint)
    src = ctx.path(".pb")
    stem = ctx.path("")
    write(src, pb_text(deg, gens, s=e_s, t=e_t))

    def check(outs):
        tokens = _line(outs[1].splitlines(), "assign")
        if tokens is None or tokens[0] != "X":
            return "missing assignment"
        x = parse_images(tokens[1:], deg)
        if x not in constraint:
            return "assignment outside the constraint subsemigroup"
        if compose(compose(inverse(x), e_s), x) != e_t:
            return "assignment fails the equation"
        return None

    return Op("eqn", expect, check,
              steps=[["gen", "equation", src, "-o", stem + ".eqn"],
                     ["eqn", stem + ".eqn"]],
              keys=(_system_key(deg, gens),),
              info={"closure": len(constraint)})


K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PRISM_EDGES = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
               (0, 3), (1, 4), (2, 5))


class Machine:
    """A constraint-logic machine: edge (a, b, w) points at a for bit 0
    and at b for bit 1; a configuration needs in-flow >= 2 everywhere."""

    def __init__(self, vertices, edges):
        self.vertices = vertices
        self.edges = edges

    def valid(self, cfg):
        flow = [0] * self.vertices
        for (a, b, w), bit in zip(self.edges, cfg):
            flow[b if bit else a] += w
        return min(flow) >= 2

    def configs(self):
        m = len(self.edges)
        return [c for c in (tuple((i >> j) & 1 for j in range(m))
                            for i in range(1 << m)) if self.valid(c)]

    def flip(self, cfg, i):
        out = list(cfg)
        out[i] ^= 1
        return tuple(out)

    def reachable(self, s):
        seen = {s}
        stack = [s]
        while stack:
            c = stack.pop()
            for i in range(len(self.edges)):
                d = self.flip(c, i)
                if d not in seen and self.valid(d):
                    seen.add(d)
                    stack.append(d)
        return seen

    def local_configs(self):
        total = 0
        for v in range(self.vertices):
            inc = [e for e in self.edges if v in e[:2]]
            for bits in range(8):
                flow = sum(w for j, (a, b, w) in enumerate(inc)
                           if (b if (bits >> j) & 1 else a) == v)
                total += flow >= 2
        return total

    def text(self, cs, ct):
        lines = ["ncl %d" % self.vertices]
        lines.extend("edge %d %d %d" % (a + 1, b + 1, w)
                     for a, b, w in self.edges)
        for key, cfg in (("config-s", cs), ("config-t", ct)):
            lines.append(key + " " + " ".join(">" if d else "<" for d in cfg))
        return "\n".join(lines) + "\n"


def _parse_ia(path):
    trans = {}
    start = None
    accept = set()
    with open(path, encoding="utf-8") as handle:
        for ln in handle:
            parts = ln.split("%")[0].split()
            if not parts:
                continue
            if parts[0] == "trans":
                trans.setdefault(parts[2], {})[int(parts[1]) - 1] = \
                    int(parts[3]) - 1
            elif parts[0] == "start":
                start = int(parts[1]) - 1
            elif parts[0] == "accept":
                accept = {int(x) - 1 for x in parts[1:]}
    return trans, start, accept


def ncl_op(ctx, shape):
    """gen ncl-automata then automata intersect; the witness word must
    be accepted by every automaton and replay as valid edge reversals."""
    rng = ctx.rng
    pairs, nv = (K4_EDGES, 4) if shape == "k4" else (PRISM_EDGES, 6)
    while True:
        machine = Machine(nv, tuple((a, b, rng.choice((1, 2)))
                                    for a, b in pairs))
        configs = machine.configs()
        movable = [c for c in configs
                   if any(machine.valid(machine.flip(c, i))
                          for i in range(len(pairs)))]
        if not movable:
            continue
        cs, ct = rng.choice(movable), rng.choice(configs)
        if ctx.fresh(("ncl", machine.edges, cs, ct)):
            break
    expect = ct in machine.reachable(cs)
    src = ctx.path(".ncl")
    outdir = ctx.path("_ia")
    write(src, machine.text(cs, ct))

    def solve(prev):
        files = sorted(os.listdir(outdir))
        return ["automata", "intersect"] + [os.path.join(outdir, f)
                                            for f in files]

    def check(outs):
        if outs[0].split() != ["wrote", str(machine.local_configs()),
                               "automata"]:
            return "gen ncl-automata wrote the wrong number of automata"
        word = _line(outs[1].splitlines(), "word")
        if word is None:
            return "missing word line"
        touched = {}
        for name in sorted(os.listdir(outdir)):
            trans, start, accept = _parse_ia(os.path.join(outdir, name))
            q = start
            for sym in word:
                q = trans.get(sym, {}).get(q)
                if q is None:
                    break
            if q not in accept:
                return "%s rejects the witness" % name
            vertex = int(name[1:].split("_")[0]) - 1
            for sym, images in trans.items():
                if images != {0: 0, 1: 1}:
                    touched.setdefault(sym, set()).add(vertex)
        index = {frozenset((a, b)): i for i, (a, b, _) in
                 enumerate(machine.edges)}
        cfg = cs
        for sym in word:
            cfg = machine.flip(cfg, index[frozenset(touched[sym])])
            if not machine.valid(cfg):
                return "witness replays through an invalid configuration"
        return None if cfg == ct else "witness does not reach config-t"

    return Op("automata", expect, check,
              steps=[["gen", "ncl-automata", src, "-o", outdir], solve],
              keys=(("ncl", machine.edges, cs, ct),))


REDUCTIONS_EXTRA = [("eqn",), ("eqn",), ("eqn",), ("ncl", "k4"),
                    ("ncl", "prism"), ("ncl", "prism")]


def _reduction(ctx, spec):
    if spec[0] == "eqn":
        return eqn_op(ctx)
    return ncl_op(ctx, spec[1])


def build_reductions(ctx, rounds):
    mgs = mgs_ops(ctx, rounds)
    out = []
    for r in range(rounds):
        ops = [mgs[shape][r] for shape in MGS_SHAPES]
        ops += [_reduction(ctx, spec) for spec in REDUCTIONS_EXTRA]
        ctx.rng.shuffle(ops)
        out.append(ops)
    return out


def reductions_warmup(ctx):
    return [mgs_ops(ctx, 1)[MGS_SHAPES[1]][0], eqn_op(ctx), ncl_op(ctx, "k4")]
