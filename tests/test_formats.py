"""Instance file formats: round trips, strict errors, and dispatch."""

import random
import re

import pytest

from invsem import formats
from invsem.pbij import PartialBijection, partial_identity
from invsem.cayley import (CayleyTable, y2_table, brandt_table,
                           direct_product_table)
from invsem.ncl import NCLMachine
from invsem.automata import InverseAutomaton
from invsem.hardness import gen_ncl_automata
from invsem.formats import (FormatError, PBInstance, CTInstance,
                            GraphInstance, parse_pb, serialize_pb,
                            parse_ct, serialize_ct, parse_graph,
                            serialize_graph, parse_ncl, serialize_ncl,
                            parse_ia, serialize_ia, parse_eqn,
                            serialize_eqn, kind_of, parse, serialize,
                            parse_images, image_line, parse_element,
                            parse_generator)

from helpers import K4_NCL, rand_pb, rand_ncl_machine


GOLDEN_PB = """pb 3
gen 2 3 1
gen 1 _ _
target _ 2 _
ds 1 2
dt 2 3
"""


def test_pb_golden_round_trip():
    inst = parse_pb(GOLDEN_PB)
    assert inst.degree == 3
    assert inst.generators[0] == PartialBijection(3, (1, 2, 0))
    assert inst.generators[1] == PartialBijection(3, (0, None, None))
    assert inst.target == PartialBijection(3, (None, 1, None))
    assert inst.ds == (0, 1) and inst.dt == (1, 2)
    assert serialize_pb(inst) == GOLDEN_PB
    gs = inst.system()
    assert gs.degree == 3


def test_pb_random_round_trip():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randrange(1, 7)
        inst = PBInstance(n, [rand_pb(rng, n)
                              for _ in range(rng.randrange(1, 4))])
        if rng.random() < 0.5:
            inst.target = rand_pb(rng, n)
        if rng.random() < 0.3:
            inst.s = rand_pb(rng, n)
            inst.t = rand_pb(rng, n)
        back = parse_pb(serialize_pb(inst))
        assert back == inst


def test_pb_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_pb("nope 3\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_pb("pb 2\ngen 1 3\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_pb("pb 2\ngen 1 2\ntarget 1\n")
    with pytest.raises(FormatError, match="duplicate"):
        parse_pb("pb 2\ngen 1 2\ntarget 1 2\ntarget 1 2\n")
    with pytest.raises(FormatError, match="no generators"):
        parse_pb("pb 2\ntarget 1 2\n")
    # repeated image breaks injectivity
    with pytest.raises(FormatError, match="line 2"):
        parse_pb("pb 2\ngen 1 1\n")


def test_pb_comments_and_blank_lines():
    inst = parse_pb("% header comment\npb 2\n\ngen 2 1 % swap\n")
    assert inst.generators == [PartialBijection(2, (1, 0))]


def test_ct_round_trip_and_errors():
    table = y2_table()
    inst = CTInstance(table, [1], target=0)
    back = parse_ct(serialize_ct(inst))
    assert back.table.table == table.table
    assert back.gens == [1] and back.target == 0

    with pytest.raises(FormatError, match="line 1"):
        parse_ct("ct 0\n")
    with pytest.raises(FormatError, match="expected 2 entries"):
        parse_ct("ct 2\n0 1\n0\ngens 0\n")
    with pytest.raises(FormatError, match="no gens"):
        parse_ct("ct 1\n0\n")
    with pytest.raises(FormatError, match="out of range"):
        parse_ct("ct 1\n0\ngens 3\n")


def test_ct_rejects_non_associative_table_naming_triple():
    # (0*0)*1 = 1 but 0*(0*1) = 0
    text = "ct 2\n1 0\n0 0\ngens 0\n"
    with pytest.raises(FormatError) as err:
        parse_ct(text)
    assert "invalid table" in str(err.value)


def _ct_text(rows, records="gens 1\ntarget 2\n"):
    return "ct %d\n" % len(rows) + "".join(r + "\n" for r in rows) + records


def _ct_corpus():
    """(name, text, takes the array path) for table bodies that spell,
    lay out or break the rows of B(4) (order 17) in different ways; the
    array path reads no entry token by token."""
    base = [" ".join(str(v) for v in row)
            for row in brandt_table(4)[0].table]
    row10 = next(i for i, r in enumerate(base) if " 10 " in " %s " % r)

    def spell(old, new, row=row10):
        rows = list(base)
        rows[row] = " ".join(new if tok == old else tok
                             for tok in rows[row].split())
        return rows

    def edit(row, fn):
        rows = list(base)
        rows[row] = fn(rows[row])
        return rows

    # (0*0)*1 = 1 but 0*(0*1) = 0
    non_associative = ["1 0", "0 0"]
    # left-zero band: every element is an inverse of every other
    two_inverses = ["0 0", "1 1"]
    yield "plain", _ct_text(base), True
    yield "leading zero", _ct_text(spell("10", "010")), True
    yield "tabs", _ct_text(edit(3, lambda r: r.replace(" ", "\t"))), True
    yield "comments and blank lines", _ct_text(
        base[:2] + ["% a comment line", "", "   "]
        + [base[2] + " % trailing"] + base[3:]), True
    yield "header comment", "% c\n" + _ct_text(base), True
    yield "plus sign", _ct_text(spell("10", "+10")), False
    yield "underscore", _ct_text(spell("10", "1_0")), False
    yield "fullwidth digit", _ct_text(spell("10", "\uff11\uff10")), False
    yield "minus zero", _ct_text(spell("0", "-0", row=0)), False
    yield "decimal point", _ct_text(spell("10", "10.0")), False
    yield "hex", _ct_text(spell("0", "0x0", row=0)), False
    yield "unit separator", _ct_text(
        edit(1, lambda r: r.replace(" ", "\x1f", 1))), False
    yield "short row", _ct_text(edit(4, lambda r: r.rsplit(" ", 1)[0])), False
    yield "long row", _ct_text(edit(4, lambda r: r + " 0")), False
    yield "missing row", _ct_text(base[:-1]), False
    yield "out of range", _ct_text(spell("10", "17")), False
    yield "huge entry", _ct_text(spell("10", "9" * 30)), False
    yield "non-associative", _ct_text(non_associative, "gens 0\n"), True
    yield "two inverses", _ct_text(two_inverses, "gens 0\n"), True
    yield "bad record", _ct_text(base, "gens 1\nfoo 2\n"), True
    yield "no gens", _ct_text(base, "target 2\n"), True
    yield "record out of range", _ct_text(base, "gens 99\n"), True
    yield "no records", _ct_text(base, ""), True


def _ct_outcome(text):
    try:
        inst = parse_ct(text)
    except FormatError as exc:
        return "error", str(exc)
    return "ok", (inst.table.table, inst.gens, inst.target, inst.s, inst.t)


def _spy_ct_reads(monkeypatch):
    """The line numbers of the table entries parse_ct reads token by
    token, and the number of CayleyTable builds, as parse_ct runs."""
    read, build = formats._int, CayleyTable.__init__
    token_lines, builds = [], []

    def spy_int(token, lineno, what):
        if what == "table entry":
            token_lines.append(lineno)
        return read(token, lineno, what)

    def spy_build(self, table):
        builds.append(1)
        build(self, table)

    monkeypatch.setattr(formats, "_int", spy_int)
    monkeypatch.setattr(CayleyTable, "__init__", spy_build)
    return token_lines, builds


def test_ct_array_path_matches_line_by_line_path(monkeypatch):
    token_lines, builds = _spy_ct_reads(monkeypatch)
    outcomes = set()
    for name, text, at_once in _ct_corpus():
        token_lines.clear()
        builds.clear()
        got = _ct_outcome(text)
        assert (not token_lines) == at_once, name
        # the table is built once, unless a row count or entry is wrong
        before_table = re.search(r": (bad table |expected \d+ |entry \d)",
                                 got[1]) if got[0] == "error" else None
        assert len(builds) == (before_table is None), name
        with monkeypatch.context() as m:
            # no row passes the byte filter: every row is read by tokens
            m.setattr(formats, "_DIGITS_AND_BLANKS", b"")
            assert _ct_outcome(text) == got, name
        outcomes.add(got[0])
    assert outcomes == {"ok", "error"}


def test_order_514_rejections_read_the_table_once(monkeypatch):
    # B(16) x Y2: a changed entry, an entry >= n in the last row, and an
    # entry past int64 each give the message the table has always had;
    # the table is built at most once, and only the rows from the first
    # bad one on are read token by token once the array holds them
    S = direct_product_table(brandt_table(16)[0], y2_table())
    rows = serialize_ct(CTInstance(S, [1, 2, 3], target=5)).split("\n")

    def edit(row, col, token):
        lines = list(rows)
        tokens = lines[1 + row].split()
        tokens[col] = token
        lines[1 + row] = " ".join(tokens)
        return "\n".join(lines)

    changed = str((S.table[3][5] + 1) % 514)
    cases = [
        (edit(3, 5, changed), "line 516: invalid table: not associative at "
         "(0, 3, 5): (0*3)*5 != 0*(3*5)", [], 1),
        (edit(513, 7, "514"), "line 515: entry 514 out of range 0..513",
         [515] * 514, 0),
        (edit(200, 9, "9" * 30), "line 202: entry %s out of range 0..513"
         % ("9" * 30), [n for n in range(2, 203) for _ in range(514)], 0),
    ]
    token_lines, builds = _spy_ct_reads(monkeypatch)
    assert _ct_outcome("\n".join(rows))[0] == "ok" and builds == [1]
    for text, message, read_lines, built in cases:
        token_lines.clear()
        builds.clear()
        assert _ct_outcome(text) == ("error", message)
        assert token_lines == read_lines, message
        assert len(builds) == built, message


def test_graph_round_trip_and_errors():
    inst = GraphInstance(4, [(0, 1), (2, 3)], s=0, t=3)
    back = parse_graph(serialize_graph(inst))
    assert (back.n, back.edges, back.s, back.t) == (4, [(0, 1), (2, 3)],
                                                    0, 3)
    with pytest.raises(FormatError, match="loop"):
        parse_graph("graph 2\nedge 1 1\ns 1\nt 2\n")
    with pytest.raises(FormatError, match="parallel"):
        parse_graph("graph 2\nedge 1 2\nedge 2 1\ns 1\nt 2\n")
    with pytest.raises(FormatError, match="missing s or t"):
        parse_graph("graph 2\nedge 1 2\n")


def test_ncl_round_trip_and_validation():
    rng = random.Random(1)
    for _ in range(10):
        machine = rand_ncl_machine(rng, rng.choice(("k4", "prism")))
        back = parse_ncl(serialize_ncl(machine))
        assert back == machine
    with pytest.raises(FormatError, match="invalid machine"):
        parse_ncl("ncl 2\nedge 1 2 2\nconfig-s <\nconfig-t <\n")
    with pytest.raises(FormatError, match="not '<' or '>'"):
        parse_ncl("ncl 2\nedge 1 2 2\nconfig-s x\nconfig-t <\n")
    with pytest.raises(FormatError, match="missing config-t"):
        parse_ncl("ncl 2\nedge 1 2 2\nconfig-s <\n")


def test_ia_canonical_form_is_fixpoint():
    shift = PartialBijection(3, (1, 2, None))
    auto = InverseAutomaton(
        3, ("a", "A"), {"a": "A", "A": "a"},
        {"a": shift, "A": shift.inverse()}, 0, frozenset([2]))
    text = serialize_ia(auto)
    back = parse_ia(text)
    assert serialize_ia(back) == text
    assert back.accepts(("a", "a"))
    assert back.states == 3 and back.start == 0


def test_ia_symbols_follow_each_involution():
    # serialize_ia keeps the symbol order and inv lines of the last
    # alphabet; an equal alphabet with another or a changed involution
    # must not reuse them
    ident = PartialBijection(1, (0,))
    pairs = {"a": "b", "b": "a", "c": "c"}
    fixed = {"a": "a", "b": "b", "c": "c"}
    texts = []
    for involution in (pairs, fixed, pairs):
        auto = InverseAutomaton(1, ("a", "b", "c"), involution,
                                dict.fromkeys("abc", ident), 0,
                                frozenset([0]))
        texts.append(serialize_ia(auto))
        assert parse_ia(texts[-1]).involution == involution
    assert "inv a b\ninv c c\n" in texts[0]
    assert "inv a a\ninv b b\ninv c c\n" in texts[1]
    assert texts[2] == texts[0]
    pairs.update(a="a", b="b")
    assert serialize_ia(auto) == texts[1]


def test_ia_errors():
    with pytest.raises(FormatError, match="states= and alphabet="):
        parse_ia("ia states=2\n")
    with pytest.raises(FormatError, match="not declared"):
        parse_ia("ia states=1 alphabet=2\ninv a A\ntrans 1 b 1\n"
                 "start 1\naccept 1\n")
    with pytest.raises(FormatError, match="duplicate transition"):
        parse_ia("ia states=2 alphabet=2\ninv a A\ntrans 1 a 1\n"
                 "trans 1 a 2\nstart 1\naccept 1\n")
    with pytest.raises(FormatError, match="header says"):
        parse_ia("ia states=1 alphabet=4\ninv a A\nstart 1\naccept 1\n")
    with pytest.raises(FormatError, match="invalid automaton"):
        parse_ia("ia states=2 alphabet=2\ninv a A\ntrans 1 a 2\n"
                 "trans 1 A 2\nstart 1\naccept 1\n")


def test_ia_header_keys_may_not_repeat():
    body = "\ninv a a\nstart 1\naccept 1\n"
    assert parse_ia("ia states=3 alphabet=1" + body).states == 3
    for head, key in (("ia states=2 states=3 alphabet=1", "states"),
                      ("ia states=2 alphabet=1 alphabet=1", "alphabet"),
                      ("ia alphabet=1 states=2 states=2", "states")):
        with pytest.raises(FormatError) as err:
            parse_ia(head + body)
        assert str(err.value) == "line 1: duplicate %s= key" % key


def _ia_corpus():
    """(name, text) pairs that spell, lay out or break the first
    automaton gen_ncl_automata makes for K4_NCL (2 states, 62 letters)
    in different ways."""
    base = serialize_ia(gen_ncl_automata(parse_ncl(K4_NCL))[1][0])
    lines = base.splitlines()

    def edit(changes):
        assert set(changes) <= set(lines)
        return "".join("".join(ln + "\n" for ln in changes.get(line, [line]))
                       for line in lines)

    def sub(old, *new):
        return edit({old: new})

    head = "ia states=2 alphabet=62"
    inv = "inv u0 u6"
    leave = "trans 1 u0 2"  # u6, its partner, has trans 2 u6 1
    ident = "trans 2 u53 2"  # u53 and its partner u59 act as the identity
    yield "plain", base
    yield "generated header", ("% generated by invsem gen ncl-automata\n"
                               "% source: k4.ncl\n" + base)
    yield "comments and blank lines", sub(inv, "", "  % c", inv + " % x")
    yield "crlf", base.replace("\n", "\r\n")
    yield "unit separator", sub(leave, leave.replace(" ", "\x1f"))
    yield "line separator", sub(leave, "trans 1 u0\u2028 2")
    yield "vertical tab", sub(leave, "trans 1\x0bu0 2")
    for line in (head, inv, leave, "start 2", "accept 2"):
        key = line.split()[0]
        yield key + " truncated", sub(line, line.rsplit(" ", 1)[0])
        yield key + " extended", sub(line, line + " 1")
        yield key + " misspelt", sub(line, line.replace(key, key[:-1], 1))
    for tok in ("0", "3", "-1", "\u00b2", "\uff12", "02", "+2"):
        yield "trans source " + tok, sub(leave, "trans %s u0 2" % tok)
        yield "trans target " + tok, sub(leave, "trans 1 u0 %s" % tok)
        yield "start " + tok, sub("start 2", "start " + tok)
        yield "accept " + tok, sub("accept 2", "accept 1 " + tok)
    for header in ("ia states=0 alphabet=62", "ia states=3 alphabet=62",
                   "ia states=\u00b2 alphabet=62",
                   "ia states=\uff12 alphabet=62",
                   "ia states=+2 alphabet=62", "ia states 2 alphabet=62",
                   "ia states=2 alphabet=61", "ia states=2 alphabet=63",
                   "ia alphabet=62 states=2", head + " states=2",
                   head + " alphabet=62", head + " colour=1"):
        yield header, sub(head, header)
    yield "undeclared symbol", sub(leave, "trans 1 zz 2")
    yield "trans before its inv", "\n".join(
        [head, leave] + [ln for ln in lines[1:] if ln != leave]) + "\n"
    yield "duplicate transition", sub(leave, leave, leave)
    yield "conflicting transition", sub(leave, leave, "trans 1 u0 1")
    yield "non-injective", sub(ident, "trans 2 u53 1")
    # u53 maps 1 and 2 to 2, and u59 maps 2 to 2: a converse of u53 on
    # one side only
    yield "non-injective beside its converse", edit(
        {"trans 1 u53 1": ["trans 1 u53 2"], "trans 1 u59 1": []})
    yield "non-converse partner", sub("trans 2 u6 1")
    yield "half an identity", sub(ident)
    yield "conflicting involution", sub(inv, inv, "inv u0 u7")
    yield "self-inverse symbol", sub(head, "ia states=2 alphabet=63",
                                     "inv zz zz")
    yield "missing start", sub("start 2")
    yield "missing accept", sub("accept 2")
    yield "duplicate start", sub("start 2", "start 2", "start 1")
    yield "duplicate accept", sub("accept 2", "accept 2", "accept 2")
    yield "unknown record", sub("start 2", "start 2", "final 1")
    yield "empty file", ""
    yield "comment only", "% nothing\n"
    yield "header only", head + "\n"


def _not_converse(a, b):
    return ("line 1: invalid automaton: symbol %r: transition of %r is not "
            "the converse; symbol %r: transition of %r is not the converse"
            % (a, b, b, a))


# what parse_ia makes of each _ia_corpus case: its exact message, or
# the {line: replacement} edits of the plain case's serialize_ia text
# that give the parsed automaton's
_IA_OUTCOMES = {
    "plain": {},
    "generated header": {},
    "comments and blank lines": {},
    "crlf": {},
    "unit separator": {},
    "line separator": "line 33: expected 'trans q a q''",
    "vertical tab": "line 33: expected 'trans q a q''",
    "ia truncated": "line 1: expected exactly states= and alphabet=",
    "ia extended": "line 1: expected key=value, got '1'",
    "ia misspelt": "line 1: expected 'ia states=<m> alphabet=<k>'",
    "inv truncated": "line 2: expected 'inv a b'",
    "inv extended": "line 2: expected 'inv a b'",
    "inv misspelt": "line 2: unknown record 'in'",
    "trans truncated": "line 33: expected 'trans q a q''",
    "trans extended": "line 33: expected 'trans q a q''",
    "trans misspelt": "line 33: unknown record 'tran'",
    "start truncated": "line 127: expected one state",
    "start extended": "line 127: expected one state",
    "start misspelt": "line 127: unknown record 'star'",
    "accept truncated": {"accept 2": "accept "},
    "accept extended": {"accept 2": "accept 1 2"},
    "accept misspelt": "line 128: unknown record 'accep'",
    "trans source 0": "line 33: state 0 out of range 1..2",
    "trans target 0": "line 33: state 0 out of range 1..2",
    "start 0": "line 127: state 0 out of range 1..2",
    "accept 0": "line 128: state 0 out of range 1..2",
    "trans source 3": "line 33: state 3 out of range 1..2",
    "trans target 3": "line 33: state 3 out of range 1..2",
    "start 3": "line 127: state 3 out of range 1..2",
    "accept 3": "line 128: state 3 out of range 1..2",
    "trans source -1": "line 33: state -1 out of range 1..2",
    "trans target -1": "line 33: state -1 out of range 1..2",
    "start -1": "line 127: state -1 out of range 1..2",
    "accept -1": "line 128: state -1 out of range 1..2",
    "trans source \u00b2": "line 33: bad state '\u00b2'",
    "trans target \u00b2": "line 33: bad state '\u00b2'",
    "start \u00b2": "line 127: bad state '\u00b2'",
    "accept \u00b2": "line 128: bad state '\u00b2'",
    "trans source \uff12": _not_converse("u0", "u6"),
    "trans target \uff12": {},
    "start \uff12": {},
    "accept \uff12": {"accept 2": "accept 1 2"},
    "trans source 02": _not_converse("u0", "u6"),
    "trans target 02": {},
    "start 02": {},
    "accept 02": {"accept 2": "accept 1 2"},
    "trans source +2": _not_converse("u0", "u6"),
    "trans target +2": {},
    "start +2": {},
    "accept +2": {"accept 2": "accept 1 2"},
    "ia states=0 alphabet=62": "line 1: states and alphabet must be positive",
    "ia states=3 alphabet=62":
        {"ia states=2 alphabet=62": "ia states=3 alphabet=62"},
    "ia states=\u00b2 alphabet=62": "line 1: bad states '\u00b2'",
    "ia states=\uff12 alphabet=62": {},
    "ia states=+2 alphabet=62": {},
    "ia states 2 alphabet=62": "line 1: expected key=value, got 'states'",
    "ia states=2 alphabet=61": "line 1: 62 symbols declared, header says 61",
    "ia states=2 alphabet=63": "line 1: 62 symbols declared, header says 63",
    "ia alphabet=62 states=2": {},
    "ia states=2 alphabet=62 states=2": "line 1: duplicate states= key",
    "ia states=2 alphabet=62 alphabet=62": "line 1: duplicate alphabet= key",
    "ia states=2 alphabet=62 colour=1":
        "line 1: expected exactly states= and alphabet=",
    "undeclared symbol": "line 33: symbol 'zz' not declared by an inv line",
    "trans before its inv": "line 2: symbol 'u0' not declared by an inv line",
    "duplicate transition":
        "line 34: duplicate transition for state 1 on 'u0'",
    "conflicting transition":
        "line 34: duplicate transition for state 1 on 'u0'",
    "non-injective":
        "line 1: transitions of 'u53': not injective: image 0 repeated",
    "non-injective beside its converse":
        "line 1: transitions of 'u53': not injective: image 1 repeated",
    "non-converse partner": _not_converse("u0", "u6"),
    "half an identity": _not_converse("u53", "u59"),
    "conflicting involution": "line 3: conflicting involution for 'u0'",
    "self-inverse symbol":
        {"ia states=2 alphabet=62": "ia states=2 alphabet=63\ninv zz zz"},
    "missing start": "line 1: missing start or accept line",
    "missing accept": "line 1: missing start or accept line",
    "duplicate start": "line 128: duplicate start line",
    "duplicate accept": "line 129: duplicate accept line",
    "unknown record": "line 128: unknown record 'final'",
    "empty file": "line 1: expected 'ia states=<m> alphabet=<k>'",
    "comment only": "line 1: expected 'ia states=<m> alphabet=<k>'",
    "header only": "line 1: 0 symbols declared, header says 62",
}


def test_ia_parse_outcomes_are_pinned():
    corpus = list(_ia_corpus())
    assert [name for name, _ in corpus] == list(_IA_OUTCOMES)
    plain = corpus[0][1].splitlines()
    kinds = set()
    for name, text in corpus:
        want = _IA_OUTCOMES[name]
        if isinstance(want, str):
            with pytest.raises(FormatError) as err:
                parse_ia(text)
            assert str(err.value) == want, name
        else:
            assert serialize_ia(parse_ia(text)) == "".join(
                want.get(line, line) + "\n" for line in plain), name
        kinds.add(type(want))
    assert kinds == {str, dict}


def test_eqn_relative_paths(tmp_path):
    (tmp_path / "ambient.pb").write_text(
        "pb 2\ngen 2 1\ns 1 _\nt _ 2\n")
    (tmp_path / "box.pb").write_text("pb 2\ngen 1 _\n")
    text = ("eqn over ambient.pb\n"
            "var X in box.pb\n"
            "eq X~ s X = t\n")
    (tmp_path / "inst.eqn").write_text(text)
    inst = parse(str(tmp_path / "inst.eqn"))
    assert inst.over_path == "ambient.pb"
    assert inst.ambient.generators == [PartialBijection(2, (1, 0))]
    assert [n for n, _ in inst.var_decls] == ["X"]
    assert "X" in inst.constraints
    assert serialize_eqn(inst) == text
    lhs, rhs = inst.system.equations[0]
    assert lhs[0] == ("var", "X", True)
    assert lhs[1] == ("const", partial_identity(2, [0]), False)
    assert rhs[0] == ("const", partial_identity(2, [1]), False)


def test_eqn_errors(tmp_path):
    (tmp_path / "a.pb").write_text("pb 2\ngen 2 1\n")

    def bad(text, match):
        with pytest.raises(FormatError, match=match):
            parse_eqn(text, base_dir=str(tmp_path))

    bad("eqn over a.pb\nvar s\n", "reserved")
    bad("eqn over a.pb\nvar g1\n", "reserved")
    bad("eqn over a.pb\nvar X\nvar X\n", "duplicate")
    bad("eqn over a.pb\neq X = g1\n", "undeclared")
    bad("eqn over a.pb\nvar X\neq X g1\n", "expected 'eq")
    bad("eqn over a.pb\nvar X\neq X = g9\n", "out of range")
    bad("eqn over a.pb\nvar X\neq X = s\n", "no s line")


def test_witness_token_codec():
    p = PartialBijection(3, (1, None, 0))
    assert image_line("gen", p) == "gen 2 _ 1"
    assert parse_images(image_line("gen", p).split()[1:], 3, 1) == p
    assert parse_element("2", 3, 1) == 2
    assert parse_generator("g2", 2, 1) == 1
    for call, match in (
            (lambda: parse_images(["1", "4", "_"], 3, 7),
             r"^line 7: point 4 out of range 1\.\.3$"),
            (lambda: parse_images(["1", "1", "_"], 3, 7), r"^line 7: "),
            (lambda: parse_images(["1"], 3, 7), "expected 3 image tokens"),
            (lambda: parse_element("3", 3, 7), "element 3 out of range"),
            (lambda: parse_element("-1", 3, 7), "out of range"),
            (lambda: parse_generator("g0", 2, 7), "generator 0 out of range"),
            (lambda: parse_generator("g3", 2, 7), "out of range"),
            (lambda: parse_generator("2", 2, 7), "expected a generator"),
            (lambda: parse_generator("gx", 2, 7), "bad generator")):
        with pytest.raises(FormatError, match=match):
            call()


def _kind_reference(text):
    lines = [raw.split("%")[0].split() for raw in text.splitlines()]
    lines = [tokens for tokens in lines if tokens]
    return lines[0][0] if lines else None


def test_kind_of_reads_the_first_logical_line():
    rng = random.Random(4)
    pieces = ["ct", "pb", "x", " ", "\t", "%", "\n", "\r", "\r\n",
              "\x0b", "\x1c", "\u2028", "\xa0"]
    texts = ["", "%", "\n\n% only comments\n", "pb" + " " * 300 + "2\n",
             "% c\n" * 300 + "ct 1\n0\ngens 0\n", "% c" + " " * 256 + "\rct"]
    # a first token cut at the end of a prefix
    for size in (256, 1024):
        texts += [" " * pad + "ct 2\n" for pad in range(size - 4, size + 1)]
        texts += ["%" * pad + "\r\npb 2" for pad in range(size - 3, size)]
    for _ in range(400):
        size = rng.choice((3, 40, 300, 1200))
        texts.append("".join(rng.choice(pieces[3:]) for _ in range(size))
                     + rng.choice(pieces))
    for text in texts:
        want = _kind_reference(text)
        if want is None:
            with pytest.raises(FormatError, match="line 1: empty file"):
                kind_of(text)
        else:
            assert kind_of(text) == want, repr(text)


def test_dispatch(tmp_path):
    assert kind_of("pb 2\ngen 1 2\n") == "pb"
    with pytest.raises(FormatError):
        kind_of("")
    path = tmp_path / "inst.pb"
    path.write_text("pb 2\ngen 2 1\n")
    inst = parse(str(path))
    assert isinstance(inst, PBInstance)
    assert serialize(inst) == "pb 2\ngen 2 1\n"
    bad = tmp_path / "inst.xyz"
    bad.write_text("xyz 1\n")
    with pytest.raises(FormatError, match="unknown instance kind"):
        parse(str(bad))
    with pytest.raises(TypeError):
        serialize(object())
