"""Text formats for problem instances: partial-bijection systems,
Cayley tables, graphs, constraint-logic machines, inverse automata, and
equation systems.

Every file starts with a header line naming its kind (pb, ct, graph,
ncl, ia, eqn).  Points and states are 1-based in files and 0-based in
memory; '_' marks an undefined image; '%' starts a comment.  Parsing is
strict and reports line numbers; serialization emits a canonical form
that round-trips.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .pbij import PartialBijection
from .cayley import CayleyTable
from .gensys import GeneratorSystem
from .automata import InverseAutomaton, validate as ia_validate
from .ncl import NCLMachine, ncl_validate
from .meta import EquationSystem


class FormatError(ValueError):
    """A parse or validation failure, with a line-numbered message."""


def _fail(lineno, message):
    raise FormatError("line %d: %s" % (lineno, message))


def _content_lines(text):
    """(lineno, line) for non-empty lines with comments stripped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("%")[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _logical_lines(text):
    """(lineno, tokens) for non-empty lines with comments stripped."""
    return [(lineno, line.split()) for lineno, line in _content_lines(text)]


def _int(token, lineno, what):
    try:
        return int(token)
    except ValueError:
        _fail(lineno, "bad %s %r" % (what, token))


def _index(token, lineno, lo, hi, what):
    """An integer token in lo..hi."""
    v = _int(token, lineno, what)
    if not (lo <= v <= hi):
        _fail(lineno, "%s %d out of range %d..%d" % (what, v, lo, hi))
    return v


def _point(token, lineno, n):
    """A 1-based point token, or '_' for undefined."""
    return None if token == "_" else _index(token, lineno, 1, n, "point") - 1


# -- witness tokens, shared by the instance files and the CLI --------------


def parse_images(tokens, n, lineno):
    """The partial bijection on n points whose 1-based images are the
    tokens, '_' for undefined."""
    if len(tokens) != n:
        _fail(lineno, "expected %d image tokens, got %d" % (n, len(tokens)))
    images = tuple(_point(tok, lineno, n) for tok in tokens)
    try:
        return PartialBijection(n, images)
    except ValueError as exc:
        _fail(lineno, str(exc))


def image_line(key, p):
    """The record line `key` followed by the image tokens of p."""
    return key + " " + " ".join("_" if x is None else str(x + 1)
                                for x in p)


def parse_element(token, n, lineno):
    """A 0-based element index of a table of order n."""
    return _index(token, lineno, 0, n - 1, "element")


def parse_generator(token, count, lineno):
    """A token g<i> naming generator i of count (1-based); the 0-based
    index."""
    if not token.startswith("g"):
        _fail(lineno, "expected a generator token g<i>, got %r" % token)
    return _index(token[1:], lineno, 1, count, "generator") - 1


# -- partial-bijection instances -------------------------------------------


@dataclass
class PBInstance:
    """Generators on n points with optional target / conjugacy pair and
    optional transporter sets (ds, dt)."""

    degree: int
    generators: list
    target: object = None
    s: object = None
    t: object = None
    ds: tuple = None
    dt: tuple = None

    def system(self):
        return GeneratorSystem(self.generators, degree=self.degree)


def parse_pb(text):
    lines = _logical_lines(text)
    if not lines or lines[0][1][0] != "pb":
        raise FormatError("line 1: expected 'pb <n>' header")
    lineno, head = lines[0]
    if len(head) != 2:
        _fail(lineno, "expected 'pb <n>'")
    n = _int(head[1], lineno, "degree")
    if n < 1:
        _fail(lineno, "degree must be positive")
    inst = PBInstance(n, [])

    def points(tokens, lineno):
        return tuple(sorted(_point(tok, lineno, n) for tok in tokens))

    for lineno, tokens in lines[1:]:
        key = tokens[0]
        if key == "gen":
            inst.generators.append(parse_images(tokens[1:], n, lineno))
        elif key in ("target", "s", "t"):
            if getattr(inst, key) is not None:
                _fail(lineno, "duplicate %s line" % key)
            setattr(inst, key, parse_images(tokens[1:], n, lineno))
        elif key in ("ds", "dt"):
            if getattr(inst, key) is not None:
                _fail(lineno, "duplicate %s line" % key)
            setattr(inst, key, points(tokens[1:], lineno))
        else:
            _fail(lineno, "unknown record %r" % key)
    if not inst.generators:
        raise FormatError("line 1: no generators")
    return inst


def serialize_pb(inst):
    lines = ["pb %d" % inst.degree]
    for g in inst.generators:
        lines.append(image_line("gen", g))
    for key in ("target", "s", "t"):
        val = getattr(inst, key)
        if val is not None:
            lines.append(image_line(key, val))
    for key in ("ds", "dt"):
        val = getattr(inst, key)
        if val is not None:
            lines.append(key + " " + " ".join(str(x + 1) for x in val))
    return "\n".join(lines) + "\n"


# -- Cayley-table instances ------------------------------------------------


@dataclass
class CTInstance:
    """A CayleyTable with a generator list and optional target or
    conjugacy pair, all as 0-based element indices."""

    table: CayleyTable
    gens: list
    target: object = None
    s: object = None
    t: object = None

    def system(self):
        return GeneratorSystem(self.gens, table=self.table)


def parse_ct(text):
    lines = _content_lines(text)
    head = lines[0][1].split() if lines else None
    if not head or head[0] != "ct":
        raise FormatError("line 1: expected 'ct <n>' header")
    lineno = lines[0][0]
    if len(head) != 2:
        _fail(lineno, "expected 'ct <n>'")
    n = _int(head[1], lineno, "order")
    if n < 1:
        _fail(lineno, "order must be positive")
    if len(lines) < 1 + n:
        raise FormatError("line %d: expected %d table rows" % (lineno, n))
    body = lines[1:1 + n]
    table = _ct_table_at_once(body, n)
    if table is None:
        first_extra = lines[1 + n][0] if len(lines) > 1 + n else lines[-1][0]
        table = _ct_table_by_lines(body, n, first_extra)
    inst = CTInstance(table, [])
    for lineno, line in lines[1 + n:]:
        tokens = line.split()
        key = tokens[0]
        if key == "gens":
            if inst.gens:
                _fail(lineno, "duplicate gens line")
            inst.gens = [parse_element(tok, n, lineno) for tok in tokens[1:]]
        elif key in ("target", "s", "t"):
            if getattr(inst, key) is not None:
                _fail(lineno, "duplicate %s line" % key)
            if len(tokens) != 2:
                _fail(lineno, "expected one element index")
            setattr(inst, key, parse_element(tokens[1], n, lineno))
        else:
            _fail(lineno, "unknown record %r" % key)
    if not inst.gens:
        raise FormatError("line 1: no gens line")
    return inst


# the bytes a table row may hold for _ct_table_at_once
_DIGITS_AND_BLANKS = b"0123456789 \t"


def _ct_table_at_once(body, n):
    """The CayleyTable of the n (lineno, line) table rows, converted by
    one np.loadtxt call, or None where _ct_table_by_lines must decide.

    Only rows of ASCII digits, blanks and tabs are converted, so every
    entry gets the value int() gives its token.  Nothing here writes a
    message: another byte, a row of another length, an entry >= n or an
    invalid table all return None."""
    rows = [line for _, line in body]
    block = " ".join(rows)
    if not block.isascii() \
            or block.encode("ascii").translate(None, _DIGITS_AND_BLANKS):
        return None
    try:
        arr = np.loadtxt(rows, dtype=np.int64, ndmin=2)
    except ValueError:
        return None
    if arr.shape != (n, n):
        return None
    try:
        return CayleyTable(arr)
    except ValueError:
        return None


def _ct_table_by_lines(body, n, first_extra):
    """The CayleyTable of the n (lineno, line) table rows, checked token
    by token; every table message comes from here."""
    rows = []
    for lineno, line in body:
        row = [_int(tok, lineno, "table entry") for tok in line.split()]
        if len(row) != n:
            _fail(lineno, "expected %d entries, got %d" % (n, len(row)))
        for v in row:
            if not (0 <= v < n):
                _fail(lineno, "entry %d out of range 0..%d" % (v, n - 1))
        rows.append(row)
    try:
        return CayleyTable(rows)
    except ValueError as exc:
        _fail(first_extra, "invalid table: %s" % exc)


def serialize_ct(inst):
    lines = ["ct %d" % inst.table.order]
    for row in inst.table.table:
        lines.append(" ".join(str(v) for v in row))
    lines.append("gens " + " ".join(str(v) for v in inst.gens))
    for key in ("target", "s", "t"):
        val = getattr(inst, key)
        if val is not None:
            lines.append("%s %d" % (key, val))
    return "\n".join(lines) + "\n"


# -- graph instances -------------------------------------------------------


@dataclass
class GraphInstance:
    """An undirected simple graph with a reachability query."""

    n: int
    edges: list  # of (u, v), 0-based
    s: int = None
    t: int = None


def parse_graph(text):
    lines = _logical_lines(text)
    if not lines or lines[0][1][0] != "graph":
        raise FormatError("line 1: expected 'graph <n>' header")
    lineno, head = lines[0]
    if len(head) != 2:
        _fail(lineno, "expected 'graph <n>'")
    n = _int(head[1], lineno, "vertex count")
    if n < 1:
        _fail(lineno, "vertex count must be positive")
    inst = GraphInstance(n, [])

    def vertex(token, lineno):
        return _index(token, lineno, 1, n, "vertex") - 1

    seen = set()
    for lineno, tokens in lines[1:]:
        key = tokens[0]
        if key == "edge":
            if len(tokens) != 3:
                _fail(lineno, "expected 'edge u v'")
            a, b = vertex(tokens[1], lineno), vertex(tokens[2], lineno)
            if a == b:
                _fail(lineno, "loop at vertex %d" % (a + 1))
            pair = frozenset((a, b))
            if pair in seen:
                _fail(lineno, "parallel edge %d %d" % (a + 1, b + 1))
            seen.add(pair)
            inst.edges.append((a, b))
        elif key in ("s", "t"):
            if getattr(inst, key) is not None:
                _fail(lineno, "duplicate %s line" % key)
            if len(tokens) != 2:
                _fail(lineno, "expected one vertex")
            setattr(inst, key, vertex(tokens[1], lineno))
        else:
            _fail(lineno, "unknown record %r" % key)
    if inst.s is None or inst.t is None:
        raise FormatError("line 1: missing s or t line")
    return inst


def serialize_graph(inst):
    lines = ["graph %d" % inst.n]
    for a, b in inst.edges:
        lines.append("edge %d %d" % (a + 1, b + 1))
    lines.append("s %d" % (inst.s + 1))
    lines.append("t %d" % (inst.t + 1))
    return "\n".join(lines) + "\n"


# -- constraint-logic machines ---------------------------------------------


def parse_ncl(text):
    lines = _logical_lines(text)
    if not lines or lines[0][1][0] != "ncl":
        raise FormatError("line 1: expected 'ncl <n>' header")
    lineno, head = lines[0]
    if len(head) != 2:
        _fail(lineno, "expected 'ncl <n>'")
    n = _int(head[1], lineno, "vertex count")
    if n < 1:
        _fail(lineno, "vertex count must be positive")
    edges = []
    configs = {}
    for lineno, tokens in lines[1:]:
        key = tokens[0]
        if key == "edge":
            if len(tokens) != 4:
                _fail(lineno, "expected 'edge u v w'")
            a = _index(tokens[1], lineno, 1, n, "vertex")
            b = _index(tokens[2], lineno, 1, n, "vertex")
            w = _int(tokens[3], lineno, "weight")
            edges.append((a - 1, b - 1, w))
        elif key in ("config-s", "config-t"):
            if key in configs:
                _fail(lineno, "duplicate %s line" % key)
            bits = []
            for tok in tokens[1:]:
                if tok == "<":
                    bits.append(0)
                elif tok == ">":
                    bits.append(1)
                else:
                    _fail(lineno, "orientation %r is not '<' or '>'" % tok)
            configs[key] = tuple(bits)
        else:
            _fail(lineno, "unknown record %r" % key)
    for key in ("config-s", "config-t"):
        if key not in configs:
            raise FormatError("line 1: missing %s line" % key)
        if len(configs[key]) != len(edges):
            raise FormatError(
                "line 1: %s has %d orientations for %d edges"
                % (key, len(configs[key]), len(edges)))
    machine = NCLMachine(n, tuple(edges), configs["config-s"],
                         configs["config-t"])
    problems = ncl_validate(machine)
    if problems:
        raise FormatError("line 1: invalid machine: " + "; ".join(problems))
    return machine


def serialize_ncl(machine):
    lines = ["ncl %d" % machine.vertices]
    for a, b, w in machine.edges:
        lines.append("edge %d %d %d" % (a + 1, b + 1, w))
    for key, cfg in (("config-s", machine.config_s),
                     ("config-t", machine.config_t)):
        lines.append(key + " " + " ".join("<" if d == 0 else ">"
                                          for d in cfg))
    return "\n".join(lines) + "\n"


# -- inverse automata ------------------------------------------------------


def parse_ia(text):
    auto = _ia_at_once(text)
    return _ia_by_lines(text) if auto is None else auto


def _ia_at_once(text):
    """The InverseAutomaton of an ia file, read in one pass, or None
    where _ia_by_lines must decide.

    Lines are split as _logical_lines splits them.  Header values must
    be ASCII digits and states the tokens 1..m, range-checked once when
    their table is built.  Each distinct image tuple is built (and so
    checked for injectivity) once, and the converse condition of
    automata.validate (the only one the records leave open) is checked
    against one inverse per distinct map.  Nothing here writes a
    message: anything unusual returns None."""
    rows = [line.partition("%")[0].split() if "%" in line else line.split()
            for line in text.splitlines()]
    rows = [row for row in rows if row]
    if not rows or len(rows[0]) != 3 or rows[0][0] != "ia":
        return None
    opts = {}
    for tok in rows[0][1:]:
        key, _, val = tok.partition("=")
        if key in opts or not (val.isascii() and val.isdigit()):
            return None
        opts[key] = int(val)
    if opts.keys() != {"states", "alphabet"} or 0 in opts.values():
        return None
    m = opts["states"]
    # the tokens "1".."m", but at most 2r of them for a file of r rows,
    # so the table grows with the file rather than with m; a state past
    # the table, or spelt otherwise, is left to _ia_by_lines
    state = {str(q + 1): q for q in range(min(m, 2 * len(rows)))}.get

    alphabet = []
    involution = {}
    images = {}
    start = accepting = None
    for row in rows[1:]:
        key = row[0]
        if key == "trans" and len(row) == 4:
            q, q2, line = state(row[1]), state(row[3]), images.get(row[2])
            if q is None or q2 is None or line is None \
                    or line[q] is not None:
                return None
            line[q] = q2
        elif key == "inv" and len(row) == 3:
            a, b = row[1], row[2]
            for sym in (a, b):
                if sym not in involution:
                    involution[sym] = None
                    alphabet.append(sym)
                    images[sym] = [None] * m
            if involution[a] not in (None, b) or involution[b] not in (None, a):
                return None
            involution[a] = b
            involution[b] = a
        elif key == "start" and len(row) == 2 and start is None:
            start = state(row[1])
            if start is None:
                return None
        elif key == "accept" and accepting is None:
            accepting = frozenset(state(tok) for tok in row[1:])
            if None in accepting:
                return None
        else:
            return None
    if len(alphabet) != opts["alphabet"] or start is None \
            or accepting is None:
        return None
    maps = {}  # image tuple -> (its PartialBijection, the converse)
    transitions = {}
    for sym in alphabet:
        key = tuple(images[sym])
        if key not in maps:
            try:
                p = PartialBijection(m, key)
            except ValueError:  # not injective
                return None
            maps[key] = p, p.inverse()
        transitions[sym] = maps[key][0]
    for sym in alphabet:
        if transitions[involution[sym]] != maps[transitions[sym]][1]:
            return None
    return InverseAutomaton(m, tuple(alphabet), involution, transitions,
                            start, accepting)


def _ia_by_lines(text):
    """The InverseAutomaton of an ia file, checked record by record;
    every ia message comes from here."""
    lines = _logical_lines(text)
    if not lines or lines[0][1][0] != "ia":
        raise FormatError("line 1: expected 'ia states=<m> alphabet=<k>'")
    lineno, head = lines[0]
    opts = {}
    for tok in head[1:]:
        if "=" not in tok:
            _fail(lineno, "expected key=value, got %r" % tok)
        key, _, val = tok.partition("=")
        if key in opts:
            _fail(lineno, "duplicate %s= key" % key)
        opts[key] = _int(val, lineno, key)
    if set(opts) != {"states", "alphabet"}:
        _fail(lineno, "expected exactly states= and alphabet=")
    m, k = opts["states"], opts["alphabet"]
    if m < 1 or k < 1:
        _fail(lineno, "states and alphabet must be positive")

    alphabet = []
    involution = {}
    trans = {}
    start = None
    accepting = None

    def state(token, lineno):
        return _index(token, lineno, 1, m, "state") - 1

    for lineno, tokens in lines[1:]:
        key = tokens[0]
        if key == "inv":
            if len(tokens) != 3:
                _fail(lineno, "expected 'inv a b'")
            a, b = tokens[1], tokens[2]
            for sym in (a, b):
                if sym not in involution:
                    involution[sym] = None
                    alphabet.append(sym)
            if involution[a] not in (None, b) or involution[b] not in (None, a):
                _fail(lineno, "conflicting involution for %r" % a)
            involution[a] = b
            involution[b] = a
        elif key == "trans":
            if len(tokens) != 4:
                _fail(lineno, "expected 'trans q a q''")
            q = state(tokens[1], lineno)
            sym = tokens[2]
            if sym not in involution:
                _fail(lineno, "symbol %r not declared by an inv line" % sym)
            q2 = state(tokens[3], lineno)
            images = trans.setdefault(sym, [None] * m)
            if images[q] is not None:
                _fail(lineno, "duplicate transition for state %d on %r"
                      % (q + 1, sym))
            images[q] = q2
        elif key == "start":
            if start is not None:
                _fail(lineno, "duplicate start line")
            if len(tokens) != 2:
                _fail(lineno, "expected one state")
            start = state(tokens[1], lineno)
        elif key == "accept":
            if accepting is not None:
                _fail(lineno, "duplicate accept line")
            accepting = frozenset(state(tok, lineno) for tok in tokens[1:])
        else:
            _fail(lineno, "unknown record %r" % key)

    if len(alphabet) != k:
        raise FormatError("line 1: %d symbols declared, header says %d"
                          % (len(alphabet), k))
    if start is None or accepting is None:
        raise FormatError("line 1: missing start or accept line")
    transitions = {}
    for sym in alphabet:
        images = trans.get(sym, [None] * m)
        try:
            transitions[sym] = PartialBijection(m, tuple(images))
        except ValueError as exc:
            raise FormatError("line 1: transitions of %r: %s" % (sym, exc))
    auto = InverseAutomaton(m, tuple(alphabet), involution, transitions,
                            start, accepting)
    problems = ia_validate(auto)
    if problems:
        raise FormatError("line 1: invalid automaton: "
                          + "; ".join(problems))
    return auto


# the last alphabet, involution and _ia_symbols result: the automata of
# one `gen ncl-automata` call share the first two
_ia_symbols_last = [None, None, None]


def _ia_symbols(alphabet, involution):
    """The trans-line symbol order and the inv lines of an alphabet
    with its involution."""
    last = _ia_symbols_last
    if alphabet == last[0] and involution == last[1]:
        return last[2]
    # trans lines follow the symbol order a re-parse induces from the
    # inv lines, so the canonical form is a serialize fixpoint
    order = []
    inv_lines = []
    done = set()
    for sym in alphabet:
        if sym in done:
            continue
        partner = involution[sym]
        for x in (sym, partner):
            if x not in done:
                done.add(x)
                order.append(x)
        inv_lines.append("inv %s %s" % (sym, partner))
    last[:] = tuple(alphabet), dict(involution), (order, inv_lines)
    return order, inv_lines


def serialize_ia(auto):
    order, inv_lines = _ia_symbols(auto.alphabet, auto.involution)
    lines = ["ia states=%d alphabet=%d" % (auto.states, len(auto.alphabet))]
    lines += inv_lines
    num = [str(q + 1) for q in range(auto.states)]
    lines += ["trans %s %s %s" % (num[q], sym, num[q2]) for sym in order
              for q, q2 in enumerate(auto.transitions[sym])
              if q2 is not None]
    lines.append("start %d" % (auto.start + 1))
    lines.append("accept " + " ".join(str(q + 1)
                                      for q in sorted(auto.accepting)))
    return "\n".join(lines) + "\n"


# -- equation systems ------------------------------------------------------


@dataclass
class EqnInstance:
    """An equation system over a partial-bijection ambient file.

    Words mix variables with the constant tokens g<i> (1-based ambient
    generator), s, and t; a trailing '~' takes the inverse.  The raw
    token form is kept for serialization.
    """

    over_path: str
    ambient: PBInstance
    var_decls: list  # of (name, constraint path or None)
    raw_equations: list  # of (lhs tokens, rhs tokens)
    system: EquationSystem = None
    constraints: dict = field(default_factory=dict)  # name -> PBInstance


_RESERVED = ("s", "t")


def _is_const_token(name):
    if name in _RESERVED:
        return True
    return (len(name) > 1 and name[0] == "g" and name[1:].isdigit())


def _resolve_token(token, inst, declared, lineno):
    barred = token.endswith("~")
    name = token[:-1] if barred else token
    if not name:
        _fail(lineno, "empty word token")
    if _is_const_token(name):
        if name == "s":
            value = inst.ambient.s
        elif name == "t":
            value = inst.ambient.t
        else:
            gens = inst.ambient.generators
            value = gens[parse_generator(name, len(gens), lineno)]
        if value is None:
            _fail(lineno, "ambient file has no %s line" % name)
        return ("const", value, barred)
    if name not in declared:
        _fail(lineno, "undeclared variable %r" % name)
    return ("var", name, barred)


def parse_eqn(text, base_dir="."):
    lines = _logical_lines(text)
    if not lines or lines[0][1][0] != "eqn":
        raise FormatError("line 1: expected 'eqn over <pb-file>' header")
    lineno, head = lines[0]
    if len(head) != 3 or head[1] != "over":
        _fail(lineno, "expected 'eqn over <pb-file>'")
    over_path = head[2]
    ambient = parse_pb(_read_file(os.path.join(base_dir, over_path)))
    inst = EqnInstance(over_path, ambient, [], [])

    declared = set()
    for lineno, tokens in lines[1:]:
        key = tokens[0]
        if key == "var":
            if len(tokens) == 2:
                name, constraint = tokens[1], None
            elif len(tokens) == 4 and tokens[2] == "in":
                name, constraint = tokens[1], tokens[3]
            else:
                _fail(lineno, "expected 'var X' or 'var X in <pb-file>'")
            if _is_const_token(name) or name.endswith("~"):
                _fail(lineno, "variable name %r is reserved" % name)
            if name in declared:
                _fail(lineno, "duplicate variable %r" % name)
            declared.add(name)
            inst.var_decls.append((name, constraint))
            if constraint is not None:
                inst.constraints[name] = parse_pb(
                    _read_file(os.path.join(base_dir, constraint)))
        elif key == "eq":
            if "=" not in tokens[1:]:
                _fail(lineno, "expected 'eq <word> = <word>'")
            pos = tokens.index("=")
            lhs, rhs = tokens[1:pos], tokens[pos + 1:]
            if not lhs or not rhs:
                _fail(lineno, "empty side in equation")
            inst.raw_equations.append((lhs, rhs, lineno))
        else:
            _fail(lineno, "unknown record %r" % key)

    equations = []
    for lhs, rhs, lineno in inst.raw_equations:
        equations.append((
            tuple(_resolve_token(tok, inst, declared, lineno) for tok in lhs),
            tuple(_resolve_token(tok, inst, declared, lineno) for tok in rhs),
        ))
    inst.raw_equations = [(lhs, rhs) for lhs, rhs, _ in inst.raw_equations]
    names = [name for name, _ in inst.var_decls]
    constraint_systems = {
        name: inst.constraints[name].system()
        for name in inst.constraints
    }
    inst.system = EquationSystem(names, constraint_systems, equations)
    inst.system.check()
    return inst


def serialize_eqn(inst):
    lines = ["eqn over %s" % inst.over_path]
    for name, constraint in inst.var_decls:
        if constraint is None:
            lines.append("var %s" % name)
        else:
            lines.append("var %s in %s" % (name, constraint))
    for lhs, rhs in inst.raw_equations:
        lines.append("eq %s = %s" % (" ".join(lhs), " ".join(rhs)))
    return "\n".join(lines) + "\n"


# -- dispatch --------------------------------------------------------------


def _read_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


_PARSERS = {
    "pb": parse_pb,
    "ct": parse_ct,
    "graph": parse_graph,
    "ncl": parse_ncl,
    "ia": parse_ia,
}


def kind_of(text):
    """The first token of the first logical line.  Reads prefixes of
    growing length, so a long file is split only as far as that line
    (the last line of a prefix may be cut, so it waits for a longer
    one)."""
    size = 256
    while True:
        lines = text[:size].splitlines()
        whole = size >= len(text)
        for raw in lines if whole else lines[:-1]:
            tokens = raw.partition("%")[0].split()
            if tokens:
                return tokens[0]
        if whole:
            raise FormatError("line 1: empty file")
        size *= 4


def parse(path):
    """Parse any instance file, dispatching on its header kind."""
    text = _read_file(path)
    kind = kind_of(text)
    if kind == "eqn":
        return parse_eqn(text, base_dir=os.path.dirname(path) or ".")
    if kind in _PARSERS:
        return _PARSERS[kind](text)
    raise FormatError("line 1: unknown instance kind %r" % kind)


def serialize(instance):
    if isinstance(instance, PBInstance):
        return serialize_pb(instance)
    if isinstance(instance, CTInstance):
        return serialize_ct(instance)
    if isinstance(instance, GraphInstance):
        return serialize_graph(instance)
    if isinstance(instance, NCLMachine):
        return serialize_ncl(instance)
    if isinstance(instance, InverseAutomaton):
        return serialize_ia(instance)
    if isinstance(instance, EqnInstance):
        return serialize_eqn(instance)
    raise TypeError("cannot serialize %r" % type(instance).__name__)
