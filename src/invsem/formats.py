"""Text formats for problem instances: partial-bijection systems,
Cayley tables, graphs, constraint-logic machines, inverse automata, and
equation systems.

Every file starts with a header line naming its kind (pb, ct, graph,
ncl, ia, eqn).  Points and states are 1-based in files and 0-based in
memory; '_' marks an undefined image; '%' starts a comment.  Parsing is
strict and reports line numbers; serialization emits a canonical form
that round-trips.

`records` is the one reader of record lines, for instance and answer
files alike; lines split as `str.splitlines` splits them.  parse_ct
keeps its lines unsplit for np.loadtxt, and parse_ia and kind_of split
their own, for speed.  A ct table is read in one pass (`_ct_entries`)
and validated once.  numpy is imported inside `_ct_entries`, the only
function here that uses it, so that parsing any other kind of file
never loads it: importing numpy takes longer than a pb query.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field

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


def records(text):
    """(lineno, tokens) of each line that holds a token once its comment
    is stripped: the records of an instance or answer file."""
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


def _sized_header(first, kind, what):
    """The size n of a '<kind> <n>' header, from the first (lineno,
    tokens) record of a file, or None for an empty file; `what` names n
    in messages."""
    if not first or first[1][0] != kind:
        raise FormatError("line 1: expected '%s <n>' header" % kind)
    lineno, head = first
    if len(head) != 2:
        _fail(lineno, "expected '%s <n>'" % kind)
    n = _int(head[1], lineno, what)
    if n < 1:
        _fail(lineno, "%s must be positive" % what)
    return n


# -- witness tokens, shared by the instance files and the CLI --------------


def parse_images(tokens, n, lineno):
    """The partial bijection on n points whose 1-based images are the
    tokens, '_' for undefined."""
    if len(tokens) != n:
        _fail(lineno, "expected %d image tokens, got %d" % (n, len(tokens)))
    images = tuple(None if tok == "_"
                   else _index(tok, lineno, 1, n, "point") - 1
                   for tok in tokens)
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
    lines = records(text)
    n = _sized_header(lines[0] if lines else None, "pb", "degree")
    inst = PBInstance(n, [])

    def points(tokens, lineno):
        pts = sorted(_index(tok, lineno, 1, n, "point") - 1 for tok in tokens)
        for a, b in zip(pts, pts[1:]):
            if a == b:
                _fail(lineno, "repeated point %d" % (a + 1))
        return tuple(pts)

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
    lineno = lines[0][0] if lines else 1
    n = _sized_header(lines and (lineno, lines[0][1].split()), "ct", "order")
    if len(lines) < 1 + n:
        raise FormatError("line %d: expected %d table rows" % (lineno, n))
    entries = _ct_entries(lines[1:1 + n], n)
    try:
        table = CayleyTable(entries)
    except ValueError as exc:
        first_extra = lines[1 + n][0] if len(lines) > 1 + n else lines[-1][0]
        _fail(first_extra, "invalid table: %s" % exc)
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


# the bytes a table row may hold for the np.loadtxt conversion
_DIGITS_AND_BLANKS = b"0123456789 \t"


def _ct_entries(body, n):
    """The entries of the n (lineno, line) table rows, as an n x n array
    or n lists of ints; every entry message comes from here.  Rows of
    ASCII digits and blanks go through one np.loadtxt call; from the
    first row with an entry >= n on, and wherever that call fails (any
    other byte, a ragged row, an entry past int64), rows are read token
    by token, which writes the message and keeps every int() spelling."""
    import numpy as np

    rows = [line for _, line in body]
    block = " ".join(rows)
    first = 0
    if block.isascii() \
            and not block.encode("ascii").translate(None, _DIGITS_AND_BLANKS):
        try:
            arr = np.loadtxt(rows, dtype=np.int64, ndmin=2)
        except ValueError:
            arr = None
        if arr is not None and arr.shape == (n, n):
            if arr.max() < n:
                return arr
            first = int((arr >= n).any(axis=1).argmax())
    entries = []
    for lineno, line in body[first:]:
        row = [_int(tok, lineno, "table entry") for tok in line.split()]
        if len(row) != n:
            _fail(lineno, "expected %d entries, got %d" % (n, len(row)))
        for v in row:
            if not (0 <= v < n):
                _fail(lineno, "entry %d out of range 0..%d" % (v, n - 1))
        entries.append(row)
    return entries


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
    lines = records(text)
    n = _sized_header(lines[0] if lines else None, "graph", "vertex count")
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
    lines = records(text)
    n = _sized_header(lines[0] if lines else None, "ncl", "vertex count")
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
    """The InverseAutomaton of an ia file, read record by record; every
    ia message comes from here.

    Lines are split as `records` splits them, without building its
    list.  Transition states spelt "1".."m" are looked up in a table
    that grows with the file rather than with m; any other state token
    goes through _index, which returns its value or writes the message.
    Each distinct image tuple is built (and so checked for injectivity)
    once, with one converse, and the converse condition of
    automata.validate (the only one the records leave open) is checked
    against those; validate runs only to write the message when it
    fails."""
    rows = text.splitlines()
    records = enumerate(rows, 1)
    # the header is the first record; the record loop reads on after it
    lineno, head = next(((lineno, tokens) for lineno, raw in records
                         if (tokens := raw.partition("%")[0].split())),
                        (1, None))
    if not head or head[0] != "ia":
        raise FormatError("line 1: expected 'ia states=<m> alphabet=<k>'")
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
    if m > sys.maxsize:
        _fail(lineno, "states %d out of range 1..%d" % (m, sys.maxsize))
    # the trans states spelt "1".."m", at most 2r of them for r lines
    spelt = {str(q + 1): q for q in range(min(m, 2 * len(rows)))}.get

    def state(token, lineno):
        return _index(token, lineno, 1, m, "state") - 1

    alphabet = []
    involution = {}
    images = {}  # symbol -> its image list, from its inv line on
    start = accepting = None
    for lineno, raw in records:
        tokens = (raw.partition("%")[0] if "%" in raw else raw).split()
        if not tokens:
            continue
        key = tokens[0]
        if key == "trans":
            if len(tokens) != 4:
                _fail(lineno, "expected 'trans q a q''")
            q, line, q2 = (spelt(tokens[1]), images.get(tokens[2]),
                           spelt(tokens[3]))
            if q is None or line is None or q2 is None:
                q = state(tokens[1], lineno)
                if line is None:
                    _fail(lineno, "symbol %r not declared by an inv line"
                          % tokens[2])
                q2 = state(tokens[3], lineno)
            if line[q] is not None:
                _fail(lineno, "duplicate transition for state %d on %r"
                      % (q + 1, tokens[2]))
            line[q] = q2
        elif key == "inv":
            if len(tokens) != 3:
                _fail(lineno, "expected 'inv a b'")
            a, b = tokens[1], tokens[2]
            for sym in (a, b):
                if sym not in involution:
                    involution[sym] = None
                    alphabet.append(sym)
                    images[sym] = [None] * m
            if involution[a] not in (None, b) or involution[b] not in (None, a):
                _fail(lineno, "conflicting involution for %r" % a)
            involution[a] = b
            involution[b] = a
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
    built = {}  # image tuple -> (its PartialBijection, the converse)
    transitions = {}
    converse = {}
    for sym in alphabet:
        key = tuple(images[sym])
        if key not in built:
            try:
                p = PartialBijection(m, key)
            except ValueError as exc:
                raise FormatError("line 1: transitions of %r: %s"
                                  % (sym, exc))
            built[key] = p, p.inverse()
        transitions[sym], converse[sym] = built[key]
    auto = InverseAutomaton(m, tuple(alphabet), involution, transitions,
                            start, accepting)
    for sym in alphabet:
        if transitions[involution[sym]] != converse[sym]:
            raise FormatError("line 1: invalid automaton: "
                              + "; ".join(ia_validate(auto)))
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
    lines = records(text)
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


_SERIALIZERS = {
    PBInstance: serialize_pb,
    CTInstance: serialize_ct,
    GraphInstance: serialize_graph,
    NCLMachine: serialize_ncl,
    InverseAutomaton: serialize_ia,
    EqnInstance: serialize_eqn,
}


def serialize(instance):
    write = _SERIALIZERS.get(type(instance))
    if write is None:
        raise TypeError("cannot serialize %r" % type(instance).__name__)
    return write(instance)
