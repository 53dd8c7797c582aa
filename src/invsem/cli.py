"""Command-line front end: instance files in, deterministic text out.

Decisions print YES or NO on the first line, witnesses on following
lines.  Exit status 0 means a completed decision (either answer), 1 a
refusal (cap exceeded or outside the tractable varieties) or a stdout
closed before the answer was written, 2 an input error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .gensys import GeneratorSystem, VIRTUAL_ONE
from .pbij import partial_identity
from .oracle import (ELEMENT_CAP, ClosureCapExceeded, close, naive_member,
                     naive_conjugate, naive_green, naive_green_leq)
from .classify import OutsideTractable, classify_generated
from .groups import group_domain, pb_group_member, perm_group_of
from .ctsolver import CTSolver
from .slp import (NotGenerated, slp_eval, slp_to_text, slp_from_records,
                  slp_semilattice, slp_group, slp_clifford)
from .munn import VARIETY_OF, dispatch_member, route, solve
from .automata import (InverseAutomaton, ProductCapExceeded,
                       intersect_nonempty)
from .hardness import (gen_ugap_conj, gen_ugap_member, gen_ncl_conj,
                       gen_ncl_member, gen_ncl_automata, gen_mgs,
                       gen_equation)
from .meta import mgs_decide, solve_equations, eval_word as eval_eq_word
from . import formats
from .formats import FormatError, PBInstance, CTInstance


class CLIError(Exception):
    """An input or usage error; exit status 2."""


class Refusal(Exception):
    """A refusal to decide; exit status 1."""


def _word_line(word):
    return "word" + "".join(" g%d" % (i + 1) for i in word)


def _require(value, what):
    if value is None:
        raise CLIError("instance has no %s record" % what)
    return value


def _expect(inst, cls, message):
    if not isinstance(inst, cls):
        raise CLIError(message)
    return inst


def _load(path):
    try:
        return formats.parse(path)
    except OSError as exc:
        raise CLIError(str(exc))


def _system_of(inst):
    if isinstance(inst, (PBInstance, CTInstance)):
        return inst.system()
    raise CLIError("expected a pb or ct instance")


def _print_explain(explain):
    for key in sorted(explain):
        value = explain[key]
        if key.endswith("dot"):
            print("%% %s" % key, file=sys.stderr)
            print(value, file=sys.stderr)
        else:
            print("%s: %s" % (key, value), file=sys.stderr)


# -- subcommands -----------------------------------------------------------


def cmd_classify(args):
    inst = _load(args.file)
    gs = _system_of(inst)
    tag = classify_generated(gs, cap=args.cap)
    print(tag.name)
    for flag in ("divides_Y2", "divides_B2", "divides_B21"):
        print("%s %s" % (flag, "yes" if getattr(tag, flag) else "no"))
    return 0


# the records each query reads, in the order they are required
_RECORDS = {"member": ("target",), "conj": ("s", "t")}


def _decide(args, query):
    """member or conj on a pb or ct file: run the solver that --solver
    names (for auto: ct-greedy on a ct file, the solver of U's variety on
    a pb file) and print the answer and its witness.  An explicit pb
    solver runs only on a pb file where U lies in its variety."""
    inst = _load(args.file)
    model = ("pb" if isinstance(inst, PBInstance)
             else "ct" if isinstance(inst, CTInstance) else None)
    if model is None:
        raise CLIError("%s needs a pb or ct instance" % query)
    gs = _system_of(inst) if model == "pb" else None
    xs = [_require(getattr(inst, key), key) for key in _RECORDS[query]]
    solver = args.solver
    if solver not in ("auto", "oracle") and model == "ct":
        raise CLIError("solver %r does not apply to ct instances" % solver)
    member = query == "member"
    explain = {} if args.explain else None
    try:
        if solver == "oracle":
            ok, w = (naive_member if member else naive_conjugate)(
                gs or inst.system(), *xs, args.cap)
        elif model == "ct":
            ct, solver = CTSolver(inst.table, inst.gens), "ct-greedy"
            if member:
                ok, w, iterations = ct.member(*xs)
                if explain is not None:
                    explain["greedy_iterations"] = iterations
            else:
                ok, w = ct.conjugate(*xs), None
        else:
            try:
                variety = route(gs, solver, args.cap, explain)
            except ValueError as exc:
                raise CLIError("--solver %s: %s" % (solver, exc))
            ok, w = solve(variety, query, gs, *xs, explain=explain,
                          word=solver != "auto")
    finally:
        # also when the solver refuses: the route is known by then
        if explain is not None:
            if solver != "auto":
                explain.setdefault("solver", solver)
            _print_explain(explain)
    print("YES" if ok else "NO")
    if ok and w is not None and not member:
        print(formats.image_line("conjugator", w) if model == "pb" else
              "conjugator %s" % ("one" if w == VIRTUAL_ONE else w))
    elif ok and w is not None:
        # a greedy word lists element indices, the others generator numbers
        print("word" + "".join(" %d" % x for x in w)
              if solver == "ct-greedy" else _word_line(w))
    return 0


def cmd_member(args):
    return _decide(args, "member")


def cmd_conj(args):
    return _decide(args, "conj")


def cmd_green(args):
    inst = _load(args.file)
    gs = _system_of(inst)
    s = _require(inst.s, "s")
    t = _require(inst.t, "t")
    if args.leq:
        ok = naive_green_leq(gs, s, t, args.rel, args.cap)
    else:
        ok = naive_green(gs, s, t, args.rel, args.cap)
    print("YES" if ok else "NO")
    return 0


def cmd_slp(args):
    inst = _load(args.file)
    gs = _system_of(inst)
    t = _require(inst.target, "target")
    tag = classify_generated(gs, cap=args.cap)
    import math
    try:
        if tag.is_semilattice():
            slp = slp_semilattice(gs, t)
            try:  # the bound counts U: shown only where U fits the cap
                bound = 2 * math.ceil(math.log2(len(close(gs, args.cap)) + 1))
            except ClosureCapExceeded:
                bound = None
        elif tag.is_group():
            # decide membership first; the SLP search for a member
            # enumerates U, so then |U| must fit the cap
            if gs.model == "pb":
                member = pb_group_member(gs, t, word=False)[0]
            else:
                cl = close(gs, args.cap)
                member = t in cl
            if not member:
                raise NotGenerated("target not in the generated group")
            size = (perm_group_of(gs)[0].order if gs.model == "pb"
                    else len(cl))
            if size > args.cap:
                raise Refusal("group order %d exceeds the cap" % size)
            slp = slp_group(gs, t, cap=args.cap)
            bound = 16 * max(1.0, math.log2(size)) ** 2
        elif tag.name == "Clifford":
            slp = slp_clifford(gs, t, cap=args.cap)
            bound = None
        else:
            raise Refusal("no length-bounded construction for variety %s"
                          % tag.name)
    except NotGenerated as exc:
        print("NO")
        print("reason %s" % exc)
        return 0
    print("YES")
    sys.stdout.write(slp_to_text(slp))
    print("length %d" % len(slp))
    if bound is not None:
        print("bound %g" % bound)
    verified = slp_eval(gs, slp) == t
    print("verified %s" % ("yes" if verified else "no"))
    return 0


def cmd_transport(args):
    inst = _load(args.file)
    _expect(inst, PBInstance, "transport needs a pb instance")
    gs = _system_of(inst)
    ds = _require(inst.ds, "ds")
    dt = _require(inst.dt, "dt")
    group_domain(gs)  # a U that is not a group is an input error
    # a transporter is a conjugator of the partial identities on ds, dt
    ok, u = solve("Group", "conj", gs, partial_identity(gs.degree, ds),
                  partial_identity(gs.degree, dt))
    print("YES" if ok else "NO")
    if ok:
        print(formats.image_line("transporter", u))
    return 0


def cmd_automata(args):
    if args.action != "intersect":
        raise CLIError("unknown automata action %r" % args.action)
    automata = [_expect(_load(path), InverseAutomaton,
                        "%s: not an ia instance" % path)
                 for path in args.files]
    witness = intersect_nonempty(automata)
    if witness is None:
        print("NO")
    else:
        print("YES")
        print("word" + "".join(" %s" % sym for sym in witness))
    return 0


def cmd_mgs(args):
    inst = _load(args.file)
    _expect(inst, PBInstance, "mgs needs a pb instance")
    gs = _system_of(inst)
    ok, witness = mgs_decide(gs, args.k, cap=args.cap)
    print("YES" if ok else "NO")
    if ok:
        for g in witness:
            print(formats.image_line("gen", g))
    return 0


def cmd_eqn(args):
    inst = _load(args.file)
    _expect(inst, formats.EqnInstance, "eqn needs an eqn instance")
    ambient = inst.ambient.system()
    assignment = solve_equations(inst.system, ambient, cap=args.cap)
    if assignment is None:
        print("NO")
    else:
        print("YES")
        for name in inst.system.variables:
            print(formats.image_line("assign " + name, assignment[name]))
    return 0


# -- instance generation ---------------------------------------------------


def _write_instance(path, text, source, reduction):
    header = ("%% generated by invsem gen %s\n%% source: %s\n"
              % (reduction, os.path.basename(source)))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + text)


def cmd_gen(args):
    try:
        return _gen(args)
    except OSError as exc:  # an output path that cannot be written
        raise CLIError(str(exc))


def _gen(args):
    inst = _load(args.input)
    reduction = args.reduction
    if reduction in ("ugap-conj", "ugap-member"):
        _expect(inst, formats.GraphInstance,
                "%s needs a graph instance" % reduction)
        if reduction == "ugap-conj":
            table, sigma, e_s, e_t = gen_ugap_conj(
                inst.n, inst.edges, inst.s, inst.t)
            out = CTInstance(table, sigma, s=e_s, t=e_t)
        else:
            table, sigma, target = gen_ugap_member(
                inst.n, inst.edges, inst.s, inst.t)
            out = CTInstance(table, sigma, target=target)
        _write_instance(args.output, formats.serialize(out),
                        args.input, reduction)
        return 0
    if reduction in ("ncl-conj", "ncl-member"):
        _expect(inst, formats.NCLMachine,
                "%s needs an ncl instance" % reduction)
        if reduction == "ncl-conj":
            enc, sigma, e_s, e_t = gen_ncl_conj(inst)
            out = PBInstance(enc.degree, sigma, s=e_s, t=e_t)
        else:
            enc, sigma, target = gen_ncl_member(inst)
            out = PBInstance(enc.degree + 1, sigma, target=target)
        _write_instance(args.output, formats.serialize(out),
                        args.input, reduction)
        return 0
    if reduction == "ncl-automata":
        _expect(inst, formats.NCLMachine, "ncl-automata needs an ncl instance")
        enc, automata = gen_ncl_automata(inst)
        os.makedirs(args.output, exist_ok=True)
        names = ["v%d_c%d.ia" % (v + 1, j + 1)
                 for v, configs in enumerate(enc.locals_)
                 for j in range(len(configs))]
        for name, auto in zip(names, automata):
            _write_instance(os.path.join(args.output, name),
                            formats.serialize(auto), args.input, reduction)
        print("wrote %d automata" % len(names))
        return 0
    if reduction == "mgs":
        _expect(inst, PBInstance, "mgs needs a pb instance")
        gs = _system_of(inst)
        t = _require(inst.target, "target")
        out_gs, k = gen_mgs(gs, t)
        out = PBInstance(out_gs.degree, list(out_gs.generators))
        text = "%% k = %d\n" % k + formats.serialize(out)
        _write_instance(args.output, text, args.input, reduction)
        print("k %d" % k)
        return 0
    if reduction == "equation":
        _expect(inst, PBInstance, "equation needs a pb instance")
        gs = _system_of(inst)
        e_s = _require(inst.s, "s")
        e_t = _require(inst.t, "t")
        gen_equation(gs, e_s, e_t)  # validates the pair
        stem = args.output
        if stem.endswith(".eqn"):
            stem = stem[:-4]
        ambient_name = os.path.basename(stem) + "_ambient.pb"
        constraint_name = os.path.basename(stem) + "_constraint.pb"
        out_dir = os.path.dirname(args.output) or "."
        ambient = PBInstance(gs.degree, list(gs.generators), s=e_s, t=e_t)
        constraint = PBInstance(
            gs.degree, list(gs.generators) + [e_s, e_t])
        _write_instance(os.path.join(out_dir, ambient_name),
                        formats.serialize(ambient), args.input, reduction)
        _write_instance(os.path.join(out_dir, constraint_name),
                        formats.serialize(constraint), args.input, reduction)
        eqn_text = ("eqn over %s\nvar X in %s\neq X~ s X = t\n"
                    % (ambient_name, constraint_name))
        _write_instance(args.output if args.output.endswith(".eqn")
                        else stem + ".eqn",
                        eqn_text, args.input, reduction)
        return 0
    raise CLIError("unknown reduction %r" % reduction)


# -- witness verification --------------------------------------------------


def _read_answer(path):
    """(YES?, the `formats.records` of the lines after the first)."""
    try:
        lines = formats.records(formats._read_file(path))
    except OSError as exc:
        raise CLIError(str(exc))
    if not lines or lines[0][1] not in (["YES"], ["NO"]):
        raise CLIError("%s: first line must be YES or NO" % path)
    return lines[0][1] == ["YES"], lines[1:]


def _records(lines, key):
    """(lineno, tokens after the key) of each answer line led by key."""
    return [(lineno, tokens[1:]) for lineno, tokens in lines
            if tokens[0] == key]


def _record(lines, key):
    """The one record of `_records(lines, key)`, or None; a second line
    led by key is an input error, as only one witness is checked."""
    found = _records(lines, key)
    if len(found) > 1:
        raise CLIError("line %d: repeated %s record" % (found[1][0], key))
    return found[0] if found else None


def _verify_member(inst, lines, args):
    gs = _system_of(inst)
    t = _require(inst.target, "target")
    found = _record(lines, "word")
    if found is None:
        return "OK no witness to check"
    lineno, tokens = found
    letters = []
    for tok in tokens:
        # g<i> names generator i; a ct word may also list element indices
        if gs.model == "ct" and not tok.startswith("g"):
            x = formats.parse_element(tok, gs.table.order, lineno)
            if x not in gs.generators:
                return "FAIL witness word has a letter outside the generators"
            letters.append(x)
        else:
            i = formats.parse_generator(tok, len(gs.generators), lineno)
            letters.append(gs.generators[i])
    if not letters:
        # the empty word is the identity of U^1, not an element of U
        return "FAIL empty witness word"
    value = letters[0]
    for x in letters[1:]:
        value = gs.mul(value, x)
    if value != t:
        return "FAIL witness word does not evaluate to the target"
    return "OK"


def _verify_conj(inst, lines, args):
    gs = _system_of(inst)
    s = _require(inst.s, "s")
    t = _require(inst.t, "t")
    found = _record(lines, "conjugator")
    if found is None:
        return "OK no witness to check"
    lineno, tokens = found
    if gs.model == "pb":
        u = formats.parse_images(tokens, gs.degree, lineno)
    elif len(tokens) != 1:
        raise FormatError("line %d: expected one element index or 'one'"
                          % lineno)
    elif tokens[0] == "one":
        u = gs.one
    else:
        u = formats.parse_element(tokens[0], gs.table.order, lineno)
    ub = gs.inv(u)
    if gs.mul(gs.mul(ub, s), u) != t or gs.mul(gs.mul(u, t), ub) != s:
        return "FAIL conjugator fails the defining equations"
    return "OK" if _in_u1(gs, inst, u, args) else "FAIL conjugator is not in U^1"


def _in_u1(gs, inst, u, args):
    """Is the witness u the identity or a member of U (under --cap on pb
    files)?"""
    if u == gs.one:
        return True
    if gs.model == "pb":
        return dispatch_member(gs, u, cap=args.cap)
    return CTSolver(inst.table, inst.gens).member(u)[0]


def _verify_transport(inst, lines, args):
    gs = _system_of(_expect(inst, PBInstance,
                            "transport needs a pb instance"))
    ds = _require(inst.ds, "ds")
    dt = _require(inst.dt, "dt")
    found = _record(lines, "transporter")
    if found is None:
        return "FAIL missing transporter line"
    lineno, tokens = found
    u = formats.parse_images(tokens, inst.degree, lineno)
    image = {u[x] for x in ds}
    if None in image:
        return "FAIL transporter undefined on ds"
    if image != set(dt):
        return "FAIL transporter does not map ds onto dt"
    if not _in_u1(gs, inst, u, args):
        return "FAIL transporter is not in U^1"
    return "OK"


def _verify_slp(inst, lines, args):
    gs = _system_of(inst)
    t = _require(inst.target, "target")
    records = [(lineno, tokens) for lineno, tokens in lines
               if tokens[0] in ("g", "m", "inv", "target")]
    if not any(tokens[0] == "target" for _, tokens in records):
        return "FAIL missing target line"
    slp = slp_from_records(records, len(gs.generators))
    if slp_eval(gs, slp) != t:
        return "FAIL slp does not evaluate to the target"
    return "OK"


def _verify_mgs(inst, lines, args):
    gs = _system_of(_expect(inst, PBInstance, "mgs needs a pb instance"))
    gens = [formats.parse_images(tokens, inst.degree, lineno)
            for lineno, tokens in _records(lines, "gen")]
    if not gens:
        return "FAIL missing gen lines"
    # <witness> = U iff every witness lies in U and every generator of U
    # in <witness>, each decided by the member routes under --cap
    sub = GeneratorSystem(gens, degree=inst.degree)
    if not (all(dispatch_member(gs, g, cap=args.cap) for g in gens)
            and all(dispatch_member(sub, g, cap=args.cap)
                    for g in gs.generators)):
        return "FAIL witness set does not generate the closure"
    return "OK"


def _verify_eqn(inst, lines, args):
    _expect(inst, formats.EqnInstance, "eqn needs an eqn instance")
    ambient = inst.ambient.system()
    assignment = {}
    for lineno, tokens in _records(lines, "assign"):
        value = formats.parse_images(tokens[1:], inst.ambient.degree, lineno)
        if tokens[0] in assignment:
            raise CLIError("line %d: repeated assign record for %s"
                           % (lineno, tokens[0]))
        assignment[tokens[0]] = value
    for name in inst.system.variables:
        if name not in assignment:
            return "FAIL missing assignment for %s" % name
        # the domain solve_equations searches
        domain = inst.system.constraints.get(name) or ambient
        value = assignment[name]
        # a constraint file of another degree holds no value of this one
        if (value.degree != domain.degree
                or not dispatch_member(domain, value, cap=args.cap)):
            return "FAIL assignment for %s is outside its constraint" % name
    for lhs, rhs in inst.system.equations:
        left = eval_eq_word(lhs, assignment, ambient.mul, ambient.inv)
        right = eval_eq_word(rhs, assignment, ambient.mul, ambient.inv)
        if left != right:
            return "FAIL assignment fails an equation"
    return "OK"


def _verify_automata(inst, lines, args):
    found = _record(lines, "word")
    if found is None:
        return "FAIL missing word line"
    word = tuple(found[1])
    # cmd_verify parsed the instance; the extra files are parsed here
    for i, path in enumerate([args.instance] + list(args.extra)):
        auto = _expect(_load(path) if i else inst, InverseAutomaton,
                       "%s: not an ia instance" % path)
        if not (set(word) <= set(auto.alphabet) and auto.accepts(word)):
            return "FAIL %s rejects the witness word" % path
    return "OK"


_VERIFIERS = {
    "member": _verify_member,
    "conj": _verify_conj,
    "transport": _verify_transport,
    "slp": _verify_slp,
    "mgs": _verify_mgs,
    "eqn": _verify_eqn,
    "automata": _verify_automata,
}


def cmd_verify(args):
    answer, lines = _read_answer(args.output)
    inst = _load(args.instance)
    verdict = (_VERIFIERS[args.what](inst, lines, args) if answer
               else "OK no witness to check")
    print(verdict)
    return 0 if verdict.startswith("OK") else 1


# -- argument parsing ------------------------------------------------------


def _cap(text):
    """The --cap value: an int, at least 1, since every closure holds an
    element.  A non-integer gets argparse's own int message."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % text) from None
    if cap < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % cap)
    return cap


def _file_args(sub):
    sub.add_argument("file")


def _decision_args(sub):
    sub.add_argument("file")
    sub.add_argument("--solver", default="auto",
                     choices=["auto", "oracle", *VARIETY_OF])
    sub.add_argument("--explain", action="store_true")


def _green_args(sub):
    sub.add_argument("file")
    sub.add_argument("--rel", required=True, choices=["R", "L", "J", "H", "D"])
    sub.add_argument("--leq", action="store_true")


def _automata_args(sub):
    sub.add_argument("action")
    sub.add_argument("files", nargs="+")


def _gen_args(sub):
    sub.add_argument("reduction",
                     choices=["ugap-conj", "ugap-member", "ncl-conj",
                              "ncl-member", "ncl-automata", "mgs", "equation"])
    sub.add_argument("input")
    sub.add_argument("-o", "--output", required=True)


def _mgs_args(sub):
    sub.add_argument("file")
    sub.add_argument("-k", type=int, required=True)


def _verify_args(sub):
    sub.add_argument("what", choices=list(_VERIFIERS))
    sub.add_argument("instance")
    sub.add_argument("output")
    sub.add_argument("extra", nargs="*",
                     help="additional instance files (automata)")


# name -> (handler, adds the subcommand's arguments), in usage order
_COMMANDS = {
    "classify": (cmd_classify, _file_args),
    "member": (cmd_member, _decision_args),
    "conj": (cmd_conj, _decision_args),
    "green": (cmd_green, _green_args),
    "slp": (cmd_slp, _file_args),
    "transport": (cmd_transport, _file_args),
    "automata": (cmd_automata, _automata_args),
    "gen": (cmd_gen, _gen_args),
    "mgs": (cmd_mgs, _mgs_args),
    "eqn": (cmd_eqn, _file_args),
    "verify": (cmd_verify, _verify_args),
}


def build_parser(names=tuple(_COMMANDS)):
    """The invsem parser with the subcommands `names` registered, all of
    them by default.  Usage lines list every command either way."""
    parser = argparse.ArgumentParser(
        prog="invsem",
        description="membership and conjugacy in finite inverse semigroups")
    # argparse lists the registered commands in usage lines, so a partial
    # build names them all through the metavar; a full build leaves it
    # unset, because error lines about the command argument print the
    # metavar where they would print its name
    metavar = ("{%s}" % ",".join(_COMMANDS)
               if len(names) < len(_COMMANDS) else None)
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar=metavar)
    for name in names:
        func, add_arguments = _COMMANDS[name]
        sub = subs.add_parser(name)
        sub.add_argument("--cap", type=_cap, default=ELEMENT_CAP,
                         help="bound on |U| where U is enumerated, on "
                         "|E(U)| in the StrictInverse/General split, and on "
                         "the ideal of t that green searches")
        add_arguments(sub)
        sub.set_defaults(func=func)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # a call runs one command, so only its parser is built; without a
    # command word first (no argument, an option, an unknown word) every
    # command is built, for argparse to list in its help and errors
    names = argv[:1] if argv and argv[0] in _COMMANDS else tuple(_COMMANDS)
    parser = build_parser(names)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # a closed stdout (`| head`): the exit flush goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (FormatError, CLIError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (Refusal, OutsideTractable, ClosureCapExceeded,
            ProductCapExceeded) as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        print("refused: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
