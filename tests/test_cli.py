"""Command-line interface: exit codes, output shapes, determinism."""

import hashlib
import os
import random
import subprocess
import sys

import pytest

import invsem
from invsem import cli, formats
from invsem import slp as slp_module
from invsem.cli import main
from invsem.gensys import GeneratorSystem
from invsem.pbij import PartialBijection
from invsem.cayley import brandt_table
from invsem.formats import (CTInstance, PBInstance, parse_pb, parse_eqn,
                            parse, serialize)
from invsem.oracle import close

from helpers import K4_NCL, PRISM_NCL, rand_ncl_machine, rand_pb, \
    rand_perm_on, sample_systems
from invsem.formats import serialize_ncl


PB_GROUP = "pb 3\ngen 2 3 1\ntarget 3 1 2\n"
PB_SEMILATTICE = "pb 2\ngen 1 _\ngen _ 2\ntarget _ _\ns 1 _\nt _ 2\n"
CT_Y2 = "ct 2\n0 0\n0 1\ngens 1\ntarget 0\ns 0\nt 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_classify(tmp_path, capsys):
    path = _write(tmp_path, "g.pb", PB_GROUP)
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Group"
    assert "divides_Y2 no" in lines


def test_member_pb_routes(tmp_path, capsys):
    path = _write(tmp_path, "g.pb", PB_GROUP)
    for extra in ([], ["--solver", "oracle"], ["--solver", "group"]):
        code, out, _ = run(capsys, "member", path, *extra)
        assert code == 0
        assert out.splitlines()[0] == "YES"
    # oracle witnesses replay through verify
    answer = _write(tmp_path, "ans.txt",
                    run(capsys, "member", path, "--solver", "oracle")[1])
    code, out, _ = run(capsys, "verify", "member", path, answer)
    assert code == 0 and out.strip() == "OK"


def test_member_negative(tmp_path, capsys):
    text = "pb 2\ngen 1 _\ntarget 2 1\n"
    path = _write(tmp_path, "m.pb", text)
    code, out, _ = run(capsys, "member", path)
    assert code == 0 and out.splitlines()[0] == "NO"


def test_member_ct(tmp_path, capsys):
    path = _write(tmp_path, "y2.ct", CT_Y2)
    code, out, _ = run(capsys, "member", path)
    assert code == 0 and out.splitlines()[0] == "NO"
    code, out, _ = run(capsys, "member", path, "--solver", "oracle")
    assert code == 0 and out.splitlines()[0] == "NO"


def test_conj_pb_with_witness(tmp_path, capsys):
    path = _write(tmp_path, "s.pb", PB_SEMILATTICE)
    code, out, _ = run(capsys, "conj", path, "--solver", "oracle")
    assert code == 0
    first = out.splitlines()[0]
    assert first in ("YES", "NO")
    answer = _write(tmp_path, "ans.txt", out)
    code, out, _ = run(capsys, "verify", "conj", path, answer)
    assert code == 0 and out.strip().startswith("OK")


def test_green(tmp_path, capsys):
    # in <e1, e2> neither idempotent lies in an ideal of the other; their
    # product, the empty map, lies below e1 and not above it
    path = _write(tmp_path, "s.pb", PB_SEMILATTICE)
    code, out, _ = run(capsys, "green", path, "--rel", "R")
    assert code == 0 and out == "NO\n"
    code, out, _ = run(capsys, "green", path, "--rel", "J", "--leq")
    assert code == 0 and out == "NO\n"
    path = _write(tmp_path, "zero.pb", "pb 2\ngen 1 _\ngen _ 2\ns _ _\nt 1 _\n")
    code, out, _ = run(capsys, "green", path, "--rel", "J", "--leq")
    assert code == 0 and out == "YES\n"
    code, out, _ = run(capsys, "green", path, "--rel", "J")
    assert code == 0 and out == "NO\n"


def test_green_h_leq(tmp_path, capsys):
    # in <e1, e2> the empty map e1 e2 lies below e1 in both R and L
    text = "pb 2\ngen 1 _\ngen _ 2\n"
    for pair, answer in (("s _ _\nt 1 _\n", "YES"),
                         ("s 1 _\nt _ _\n", "NO")):
        path = _write(tmp_path, "s.pb", text + pair)
        code, out, _ = run(capsys, "green", path, "--rel", "H", "--leq")
        assert code == 0 and out.strip() == answer, pair


def test_green_cap_bounds_the_searched_ideal(tmp_path, capsys):
    # U = S_3 (6 elements) and t, a rank-2 map outside U: t U^1 holds 6
    # maps and U^1 t U^1 all 18 rank-2 maps, so at --cap 6 R answers and
    # J is refused with the ideal named; at --cap 17 J answers
    path = _write(tmp_path, "s3.pb",
                  "pb 3\ngen 2 3 1\ngen 2 1 3\ns 1 2 3\nt 1 2 _\n")
    code, out, _ = run(capsys, "green", path, "--rel", "R", "--leq",
                       "--cap", "6")
    assert (code, out) == (0, "NO\n")
    code, out, err = run(capsys, "green", path, "--rel", "J", "--leq",
                         "--cap", "6")
    assert (code, out) == (1, "")
    assert err == "refused: ideal U^1 t U^1 exceeded 6 elements besides t\n"
    code, out, _ = run(capsys, "green", path, "--rel", "J", "--leq",
                       "--cap", "17")
    assert (code, out) == (0, "NO\n")


def test_removed_route_options_are_unrecognized(tmp_path, capsys):
    # --model only repeated the file header; the model comes from the file
    pb = _write(tmp_path, "g.pb", PB_GROUP + "s 2 3 1\nt 2 3 1\n")
    ct = _write(tmp_path, "y2.ct", CT_Y2)
    for cmd in ("member", "conj"):
        for path, model in ((pb, "pb"), (ct, "ct"), (pb, "ct")):
            code, out, err = run(capsys, cmd, path, "--model", model)
            assert (code, out) == (2, ""), (cmd, path, model)
            assert err.endswith("invsem: error: unrecognized "
                                "arguments: --model %s\n" % model), err


def test_force_oracle_rejected_beside_another_solver(tmp_path, capsys):
    # --solver oracle is the one way to the oracle: --force-oracle is
    # unrecognized, alone or beside any --solver
    pb = _write(tmp_path, "g.pb", PB_GROUP + "s 2 3 1\nt 2 3 1\n")
    ct = _write(tmp_path, "y2.ct", CT_Y2)
    for cmd in ("member", "conj"):
        for path, extra in ((pb, ["--solver", "sis"]),
                            (pb, ["--solver", "group"]),
                            (ct, ["--solver", "group"]),
                            (pb, ["--solver", "oracle"]),
                            (ct, ["--solver", "oracle"]),
                            (pb, []), (ct, [])):
            code, out, err = run(capsys, cmd, path, *extra, "--force-oracle")
            assert (code, out) == (2, ""), (cmd, path, extra)
            assert err.endswith("invsem: error: unrecognized "
                                "arguments: --force-oracle\n"), err
        for path in (pb, ct):
            code, _, _ = run(capsys, cmd, path, "--solver", "oracle")
            assert code == 0, (cmd, path)


def test_slp_group_and_verify(tmp_path, capsys):
    path = _write(tmp_path, "g.pb", PB_GROUP)
    code, out, _ = run(capsys, "slp", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "YES"
    assert any(ln.startswith("length ") for ln in lines)
    assert any(ln.startswith("bound ") for ln in lines)
    assert "verified yes" in lines
    answer = _write(tmp_path, "ans.txt", out)
    code, out, _ = run(capsys, "verify", "slp", path, answer)
    assert code == 0 and out.strip() == "OK"


def test_verify_slp_names_the_answer_file_line(tmp_path, capsys):
    # errors name the record's line in the answer file; comment lines
    # and trailing comments count as lines but are not records
    path = _write(tmp_path, "g.pb", PB_GROUP)
    cases = [
        ("YES\n% comment\nlength 3\ng 0\nm 0 x\ntarget 1\n",
         "line 5: cannot parse 'm 0 x'"),
        ("YES\n% comment\ng 0\nm 0 1\ntarget 1\n",
         "line 4: operand not earlier"),
        ("YES\ng 0\ninv 1\ntarget 1\n", "line 3: operand not earlier"),
        ("YES\ng 0\ng 2\ntarget 1\n", "line 3: bad generator index"),
        ("YES\ng 0\n\ntarget 1\n", "line 4: target index out of range"),
    ]
    for text, message in cases:
        answer = _write(tmp_path, "ans.txt", text)
        code, out, err = run(capsys, "verify", "slp", path, answer)
        assert (code, out, err) == (2, "", "error: %s\n" % message), text
    # a YES answer without a target line fails like a missing witness
    answer = _write(tmp_path, "ans.txt", "YES\ng 0\n")
    assert run(capsys, "verify", "slp", path, answer) == (
        1, "FAIL missing target line\n", "")
    # the target is the second generator, the 3-cycle's inverse
    answer = _write(tmp_path, "ans.txt",
                    "YES\n% c\ng 1 % the inverse\ntarget 0\n")
    assert run(capsys, "verify", "slp", path, answer) == (0, "OK\n", "")


def test_slp_refuses_general(tmp_path, capsys):
    text = "pb 3\ngen 2 _ _\ngen _ 3 1\ngen 1 3 _\ntarget 2 _ _\n"
    path = _write(tmp_path, "gen.pb", text)
    from invsem.classify import classify_generated
    inst = parse_pb(text)
    if classify_generated(inst.system()).name != "General":
        pytest.skip("example no longer generates past strict inverse")
    code, out, err = run(capsys, "slp", path)
    assert code == 1
    assert "refused" in err


def test_slp_cap_binds_on_the_group_search(tmp_path, capsys):
    # S_12, and S_12 on points 1..12 plus the identity of 13 points (a
    # Clifford monoid), are classified without enumeration; the group
    # SLP search enumerates U or an H-class of it, under the cap
    cycle = "2 3 4 5 6 7 8 9 10 11 12 1"
    swap = "2 1 3 4 5 6 7 8 9 10 11 12"
    reversal = "12 11 10 9 8 7 6 5 4 3 2 1"
    group = _write(tmp_path, "s12.pb", "pb 12\ngen %s\ngen %s\ntarget %s\n"
                   % (cycle, swap, reversal))
    code, out, err = run(capsys, "slp", group, "--cap", "1000")
    assert code == 1 and out == "" and "exceeds the cap" in err
    text = ("pb 13\ngen %s _\ngen %s _\ngen %s 13\n"
            % (cycle, swap, " ".join(map(str, range(1, 13)))))
    clifford = _write(tmp_path, "c.pb", text + "target %s _\n" % reversal)
    assert run(capsys, "classify", clifford, "--cap", "1000")[1].startswith(
        "Clifford\n")
    code, out, err = run(capsys, "slp", clifford, "--cap", "1000")
    assert code == 1 and out == "" and "exceeded 1000 elements" in err
    idem = _write(tmp_path, "e.pb", text + "target %s _\n"
                  % " ".join(map(str, range(1, 13))))
    code, out, _ = run(capsys, "slp", idem, "--cap", "1000")
    assert code == 0 and out.splitlines()[0] == "YES"
    assert "verified yes" in out.splitlines()


def test_slp_decides_non_members_without_a_search(tmp_path, capsys,
                                                  monkeypatch):
    # a group on pb and on ct, and a Clifford monoid whose H-class at
    # t t~ = "1 2 3 _" is {"1 2 3 _", "2 1 3 _"}
    def no_search(*args):
        raise AssertionError("slp searched for a non-member")

    monkeypatch.setattr(slp_module, "slp_group_low", no_search)
    z4 = "\n".join(" ".join(str((i + j) % 4) for j in range(4))
                   for i in range(4))
    for name, text in (
            ("g.pb", "pb 4\ngen 2 1 4 3\ntarget 2 1 3 4\n"),
            ("g.ct", "ct 4\n%s\ngens 2\ntarget 1\n" % z4),
            ("c.pb", "pb 4\ngen 2 1 3 4\ngen 1 2 3 _\ntarget 3 2 1 _\n")):
        path = _write(tmp_path, name, text)
        assert run(capsys, "slp", path) == (
            0, "NO\nreason target not in the generated group\n", ""), name


def test_slp_answers_no_past_the_cap(tmp_path, capsys):
    # S_12 fixing point 13, and a target that moves 13: a non-member is
    # decided at any group order, a member must fit the cap
    cycle = "2 3 4 5 6 7 8 9 10 11 12 1 13"
    swap = "2 1 3 4 5 6 7 8 9 10 11 12 13"
    gens = "pb 13\ngen %s\ngen %s\n" % (cycle, swap)
    path = _write(tmp_path, "s12.pb", gens
                  + "target 13 2 3 4 5 6 7 8 9 10 11 12 1\n")
    assert run(capsys, "slp", path, "--cap", "1000") == (
        0, "NO\nreason target not in the generated group\n", "")
    path = _write(tmp_path, "s12yes.pb", gens + "target %s\n" % swap)
    assert run(capsys, "slp", path, "--cap", "1000") == (
        1, "", "refused: group order 479001600 exceeds the cap\n")


def test_semilattice_slp_prints_its_bound_only_where_u_fits_the_cap(
        tmp_path, capsys):
    # the ten idempotents on 10 points that each miss one point generate
    # the 1023 partial identities other than the identity: past --cap 100
    # the SLP is still built and checked, and only the bound line, which
    # counts U, is left out
    gens = "".join("gen %s\n" % " ".join("_" if j == i else str(j + 1)
                                         for j in range(10))
                   for i in range(10))
    path = _write(tmp_path, "y.pb", "pb 10\n" + gens + "target _ _ _ %s\n"
                  % " ".join(map(str, range(4, 11))))
    slp = "YES\ng 0\ng 1\nm 0 1\ng 2\nm 2 3\ntarget 4\nlength 5\n"
    assert run(capsys, "slp", path) == (
        0, slp + "bound 20\nverified yes\n", "")
    assert run(capsys, "slp", path, "--cap", "100") == (
        0, slp + "verified yes\n", "")
    assert run(capsys, "member", path, "--cap", "100") == (0, "YES\n", "")
    answer = _write(tmp_path, "y.slp", slp + "verified yes\n")
    assert run(capsys, "verify", "slp", path, answer) == (0, "OK\n", "")


def test_slp_cube_doubling_cap_is_refused(tmp_path, capsys, monkeypatch):
    # a member target whose cube passes CUBE_CAP is refused, not NO
    monkeypatch.setattr(slp_module, "BFS_THRESHOLD", 2)
    path = _write(tmp_path, "c7.pb", "pb 7\ngen 2 3 4 5 6 7 1\n"
                  "target 4 5 6 7 1 2 3\n")
    assert run(capsys, "slp", path)[0] == 0
    monkeypatch.setattr(slp_module, "CUBE_CAP", 1)
    assert run(capsys, "slp", path) == (
        1, "", "refused: cube-doubling exceeded 1 elements\n")


def test_transport(tmp_path, capsys):
    text = "pb 3\ngen 2 3 1\nds 1\ndt 3\n"
    path = _write(tmp_path, "t.pb", text)
    code, out, _ = run(capsys, "transport", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "YES"
    assert lines[1].startswith("transporter ")
    answer = _write(tmp_path, "ans.txt", out)
    code, out, _ = run(capsys, "verify", "transport", path, answer)
    assert code == 0 and out.strip() == "OK"


def test_transport_agrees_with_a_search_over_u1(tmp_path, capsys):
    # on random groups of partial permutations, transport answers YES
    # exactly when some element of U^1 = U + {1} maps ds onto dt, and
    # verify accepts every transporter; ds = dt outside the group's
    # domain is carried by the identity of U^1
    rng = random.Random(26)
    path = str(tmp_path / "t.pb")
    seen = set()
    for _ in range(1000):
        n = rng.randrange(1, 6)
        dom = rng.sample(range(n), rng.randrange(n + 1))
        gens = [rand_perm_on(rng, n, dom) for _ in range(rng.randint(1, 2))]
        gs = GeneratorSystem(gens, degree=n)
        u1 = list(close(gs).elements) + [gs.one]
        ds = rng.sample(range(n), rng.randrange(n + 1))
        pick, u = rng.randrange(3), rng.choice(u1)
        dt = (ds if pick == 0 else [u[x] for x in ds if u[x] is not None]
              if pick == 1 else rng.sample(range(n), rng.randrange(n + 1)))
        want = any(None not in (u[x] for x in ds)
                   and {u[x] for x in ds} == set(dt) for u in u1)
        with open(path, "w") as handle:
            handle.write(serialize(PBInstance(n, gens, ds=tuple(sorted(ds)),
                                              dt=tuple(sorted(dt)))))
        code, out, err = run(capsys, "transport", path)
        assert (code, out.splitlines()[0], err) == (
            0, "YES" if want else "NO", ""), (gens, ds, dt)
        if want:
            answer = _write(tmp_path, "ans.txt", out)
            assert run(capsys, "verify", "transport", path, answer) == (
                0, "OK\n", "")
        outside = bool(set(ds) - set(dom))
        seen.add((want, "empty" if not ds else "equal outside" if
                  sorted(ds) == sorted(dt) and outside else
                  "sizes differ" if len(ds) != len(dt) else "other"))
    assert {(True, "empty"), (True, "equal outside"), (False, "sizes differ"),
            (True, "other"), (False, "other")} <= seen
    # a U that is not a group is an input error, also where ds = dt
    path = _write(tmp_path, "f.pb", "pb 2\ngen 1 _\ngen _ 2\nds 1\ndt 1\n")
    code, out, err = run(capsys, "transport", path)
    assert (code, out) == (2, "") and "not a group" in err


def test_mgs_roundtrip(tmp_path, capsys):
    src = _write(tmp_path, "g.pb", PB_GROUP)
    dest = str(tmp_path / "mgs.pb")
    code, out, _ = run(capsys, "gen", "mgs", src, "-o", dest)
    assert code == 0
    assert out.splitlines()[0].startswith("k ")
    k = int(out.split()[1])
    code, out, _ = run(capsys, "mgs", dest, "-k", str(k))
    assert code == 0 and out.splitlines()[0] == "YES"
    answer = _write(tmp_path, "ans.txt", out)
    code, out, _ = run(capsys, "verify", "mgs", dest, answer)
    assert code == 0 and out.strip() == "OK"


def test_gen_equation_and_eqn(tmp_path, capsys):
    src = _write(tmp_path, "s.pb", PB_SEMILATTICE)
    dest = str(tmp_path / "inst.eqn")
    code, out, _ = run(capsys, "gen", "equation", src, "-o", dest)
    assert code == 0
    assert os.path.exists(dest)
    assert os.path.exists(str(tmp_path / "inst_ambient.pb"))
    assert os.path.exists(str(tmp_path / "inst_constraint.pb"))
    code, out, _ = run(capsys, "eqn", dest)
    assert code == 0
    first = out.splitlines()[0]
    assert first in ("YES", "NO")
    if first == "YES":
        answer = _write(tmp_path, "ans.txt", out)
        code, out, _ = run(capsys, "verify", "eqn", dest, answer)
        assert code == 0 and out.strip() == "OK"


def test_gen_ugap_and_solve(tmp_path, capsys):
    graph = _write(tmp_path, "g.graph",
                   "graph 3\nedge 1 2\ns 1\nt 2\n")
    for reduction, cmd in (("ugap-conj", "conj"), ("ugap-member", "member")):
        dest = str(tmp_path / (reduction + ".ct"))
        code, _, _ = run(capsys, "gen", reduction, graph, "-o", dest)
        assert code == 0
        code, out, _ = run(capsys, cmd, dest)
        assert code == 0 and out.splitlines()[0] == "YES"
    # disconnected query answers NO
    graph2 = _write(tmp_path, "g2.graph",
                    "graph 3\nedge 1 2\ns 1\nt 3\n")
    dest = str(tmp_path / "no.ct")
    run(capsys, "gen", "ugap-conj", graph2, "-o", dest)
    code, out, _ = run(capsys, "conj", dest)
    assert code == 0 and out.splitlines()[0] == "NO"


def test_gen_ncl_automata_and_intersect(tmp_path, capsys):
    rng = random.Random(0)
    machine = rand_ncl_machine(rng, "k4")
    src = _write(tmp_path, "m.ncl", serialize_ncl(machine))
    out_dir = str(tmp_path / "autos")
    code, out, _ = run(capsys, "gen", "ncl-automata", src, "-o", out_dir)
    assert code == 0
    files = sorted(os.path.join(out_dir, f) for f in os.listdir(out_dir))
    assert files and all(f.endswith(".ia") for f in files)
    code, out, _ = run(capsys, "automata", "intersect", *files)
    assert code == 0
    first = out.splitlines()[0]
    from reference import ncl_reach_bruteforce
    assert (first == "YES") == ncl_reach_bruteforce(machine)[0]
    if first == "YES":
        answer = _write(tmp_path, "ans.txt", out)
        code, out, _ = run(capsys, "verify", "automata", files[0], answer,
                           *files[1:])
        assert code == 0 and out.strip() == "OK"


# sha256 of every file `gen ncl-automata` writes for the fixed machines
# K4_NCL (as k4.ncl) and PRISM_NCL (as prism.ncl); a new value is a
# change of the ia format or of the reduction
K4_IA_SHA256 = {
    "v1_c1.ia":
        "696ceebba638aa8bdc0c2d445c19176ace04eb0a932a9fcf55617cdf85fd4afa",
    "v1_c2.ia":
        "14f783000b41480f9416c7689052f1b9a97e4244fa0800223d02d5c7998ae9b1",
    "v1_c3.ia":
        "b7ef45d21c3045550c964e899df1f85bf1374325884c9888f66bd312d88fd316",
    "v1_c4.ia":
        "58a11210bc886753a83847efefa10504272a353297098d28499d62f4789d948a",
    "v1_c5.ia":
        "e42b10f3928c065dbcd9e569cf357b6aa3eb29ab10e7ea6b28ae732af1758d28",
    "v2_c1.ia":
        "37a107e81db438c69aabb009632a8f6821e80fed2faecf79b5bfd1e373a1b04f",
    "v2_c2.ia":
        "0d8a6fd1af1df0652a16f9b4246dcecd0f1cc61e062f9826645e819baa9824cb",
    "v2_c3.ia":
        "7018c70e74f2d9772ab7aa8b7aaa059586a96bd2ca843d238a78f6aec1cae003",
    "v2_c4.ia":
        "ed3374d0608acead090994865a4b4aad6976e93fc4540facce14cd9388556cd8",
    "v2_c5.ia":
        "b269397a8471f10a9dde09c2adcc3facc25ec299fb94bed22f1ebc6f618d2f2e",
    "v2_c6.ia":
        "2dcb7f47501b87882af4e173836731983311b4210f801c9999bc25ebcac4bd97",
    "v3_c1.ia":
        "ef7c5bcd0da1eacbb829b1895223dba9c074c8a67200bcfda7bebf31ee6cb504",
    "v3_c2.ia":
        "7af4b0f6e98a1bfb1a07c4f7d8f4cd08a0bf6c7c696c60cc3e5521cf39ecc38c",
    "v3_c3.ia":
        "5f9584e26bfe493f3a983baeead066a30650ba81fce775d97e1e59f9e3f5674e",
    "v3_c4.ia":
        "f393ca2d5c325da0bc20d81c61fc698ea0b606a4a045518908c86fc177b6f3f3",
    "v3_c5.ia":
        "0f5676a7b572267aa52abb9dc13315291b943f5f80eaf549365827720c603a41",
    "v3_c6.ia":
        "e997621608e9cf48b3c2134ab63200a42d4c79bef029041272b1388574f34f53",
    "v3_c7.ia":
        "297677432f584ebe48b5cf2f3accc9a083901605a12b27b551d5165708e87fb6",
    "v4_c1.ia":
        "53e0653fd050bdcc8e0ebae8272aaff4c2f2f1e0cd78b45d5779d977ce7a8474",
    "v4_c2.ia":
        "f7db20b1b3e82cd3c1ba0dc59966d57e6584c0a829604bf4ce2463c43730a3ba",
    "v4_c3.ia":
        "f6bbff335ac45806e9229d1ae8c5f82fd77cfaebd2df9553969d0aff51c5a6fe",
    "v4_c4.ia":
        "e7189b0d80b5b0bc989ca1bbe78704357d49d022f5b390966f657138855ca5dc",
    "v4_c5.ia":
        "06003397b3f04fde641250c4708d8955bdcf340b862313393ef7b4e08f75a42f",
    "v4_c6.ia":
        "ee61e0e86a3a75295952fb51c72bade091b74af104564ce6760e127dd7cf3125",
}
PRISM_IA_SHA256 = {
    "v1_c1.ia":
        "7ab0173df0dca59c09416dc110df5c6d78526bcbc022e315659a57d7f69bf1b0",
    "v1_c2.ia":
        "fa3b9e4fd0da0e5dea1c723a968f1eeaa0cdd33a31ba0f592cd0b64c051c120c",
    "v1_c3.ia":
        "2db22bbe655e352f5134809586250588516bc0be0e0ba0229fb00890082d70dc",
    "v1_c4.ia":
        "4b646fa7d53fac5405149a2d5616ba096d227fbf218ba2ac585f493f75794124",
    "v1_c5.ia":
        "b471886aff8e59c66c8a2480fca27b628c64e55a3061e052a13b07aa80258afc",
    "v2_c1.ia":
        "b7cbea1281b13c279b5406f2c1158deff06ed7ddf3efa7f62e16d06e162d27e8",
    "v2_c2.ia":
        "32220b1ee8d8a8af8c7cc11cb2d6a7ddfabe1acf56b9a2e5c3824f4733d1d5c8",
    "v2_c3.ia":
        "d6c6d7aa878b9e59973123cb9556abc8282b82a3a6012a6dfd3d1ec4e3c3d43f",
    "v2_c4.ia":
        "7392137114842870cf3db4b093ce63daac55f7c676fa44b524f014b25fb1367f",
    "v2_c5.ia":
        "1a3d5d6544c768cd2c50e3688e8917090fcd0e57e775cc0d3cbe7479b400b9da",
    "v2_c6.ia":
        "12de341e9e10457f179e97305a8f5fc661ccdb7185867fa9297cc06edb430c45",
    "v3_c1.ia":
        "861512a7e006fceb71c6c50aac6d4d139ac6c3b016638ea1dc27a8b33f1acf3a",
    "v3_c2.ia":
        "c0298575f8e02dcbefc63113c1b9a7d1d8008d079f0d86e9c1cf3d4bd3d3cc25",
    "v3_c3.ia":
        "cbc21b065e18b4db703325fcea54cbfea800b16d5f16283c06261d0c38ccc9ef",
    "v3_c4.ia":
        "a5c501b778cf2afc2230f99054b9c757fc71c3261851dce277471ce84ce9a7e0",
    "v3_c5.ia":
        "409df65183f447afbe167f3d1919e0cb895ae5fe54c984e9a99a3aaeb412ae6f",
    "v3_c6.ia":
        "8e0a5c011e36450be20098c577bc480fb70479eaeb1ac181b4854508eef291bf",
    "v4_c1.ia":
        "a06c595888cf7059480589c12bc672c92aadccb471d0cd04c8eb49bb6697edc6",
    "v4_c2.ia":
        "5d154eca96558a476ac7a9f33698da4b61d0e23249f8a84dc707557817a97049",
    "v4_c3.ia":
        "f04eec932c997f446f3024f13c47d04077cbbd0e3f1da08c43eb4cf0f880ffd5",
    "v4_c4.ia":
        "d8857d16915c79dbdea3684ec6940a63eda0f5001444860ff1dbe6f3daf7e56b",
    "v4_c5.ia":
        "7d25ca997a49832111ec7b5f183e8b476d6a8c82754b89aa896d2b9842af3903",
    "v4_c6.ia":
        "c7826b313faea781f17b2100b9fdeb901d0f9ad2c4db1daf862612819596a81b",
    "v4_c7.ia":
        "a27749d6c76a537755c00686d899ab79ae94468a900b2219113aabd3a06f788f",
    "v5_c1.ia":
        "d097a10c3c0c071aea515a52d342447ba2987eb28ee2117d1260e5de3acbb3cb",
    "v5_c2.ia":
        "ace48f612182abec769709e9fca56c42f3f2f0c3a8d461ac54b30531971059dd",
    "v5_c3.ia":
        "495a5308c697502271b8e404f2c3411e7f6459b01dcad1e5fd028ed214dac3bd",
    "v5_c4.ia":
        "219bb12d98c8667834cf528e846fa3db641ad10908356b061e416d0778f7087e",
    "v5_c5.ia":
        "00bf926e9b8b1b0065dbaeaeab63280c9d58c1b87ab29e5bbeb8ee869883ac67",
    "v5_c6.ia":
        "912afb133740db15b144f59249d868fa403bf57a86671d47ce92672cf167835d",
    "v5_c7.ia":
        "45306c494f11a168c3ed49638dd359722c699cb613f701fa60543c09dc30811a",
    "v6_c1.ia":
        "6a61fa4a1805e980be8baeebbc6160632334f4c3e3766e05615457e938a14915",
    "v6_c2.ia":
        "20618f6cff25bdd780c5f1bb738c3f0b4de7ba01a757a5f64bec4281e404708d",
    "v6_c3.ia":
        "e0f83b686d014a19a9a12a094d0d6653d352094b4be3246336c83099ad93baf5",
    "v6_c4.ia":
        "9635a81eb640ca1ad62b0e01377016d723d04aa1b6dde814a01ff4b0159e04df",
    "v6_c5.ia":
        "f58d8dee73b9021e507d819959457a39a67178957388d6ccfd93daf820419d62",
    "v6_c6.ia":
        "2613ada5b104102f11fe365e062d21828c8a3bd687725c6c47101d461957a9b0",
    "v6_c7.ia":
        "e14772f3f9d44a578a32059945ec5cfe503746388979eb36dfd163fc076626c3",
}


@pytest.mark.parametrize("name, text, digests, witness", [
    ("k4", K4_NCL, K4_IA_SHA256, "u11 u24 u14 u38 u42"),
    ("prism", PRISM_NCL, PRISM_IA_SHA256, "u4 u29 u51 u78"),
])
def test_ncl_automata_bytes_are_pinned(tmp_path, capsys, name, text,
                                       digests, witness):
    src = _write(tmp_path, name + ".ncl", text)
    out_dir = tmp_path / "ia"
    code, out, _ = run(capsys, "gen", "ncl-automata", src, "-o",
                       str(out_dir))
    assert code == 0 and out == "wrote %d automata\n" % len(digests)
    files = sorted(os.listdir(out_dir))
    assert {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
            for f in files} == digests
    code, out, _ = run(capsys, "automata", "intersect",
                       *(str(out_dir / f) for f in files))
    assert code == 0 and out == "YES\nword %s\n" % witness


# the group witnesses on fixed degree-6 systems: each pb file holds the
# generators and then records that all answer YES or all answer NO
WITNESS_GENERATORS = {
    "S6": ["2 3 4 5 6 1", "2 1 3 4 5 6"],
    "S3wrS2": ["2 3 1 4 5 6", "2 1 3 4 5 6", "4 5 6 1 2 3"],
    "S2wrS3": ["2 1 3 4 5 6", "3 4 5 6 1 2", "3 4 1 2 5 6"],
    # S_5 on five of six points: its identity is not the identity of S^1
    "S5of6": ["2 3 4 5 1 _", "2 1 3 4 5 _"],
    # S_3 on {1,2,3} and {4,5,6} at once, and its restriction to {1,2,3}:
    # a Clifford semigroup with two H-classes
    "Clifford": ["2 3 1 5 6 4", "2 1 3 5 4 6", "1 2 3 _ _ _"],
}

# (system, answer, records, sha256 of the stdout of `member --solver
# group`, auto `conj` and `transport` in turn, each followed by an
# "exit <status>" line; the Clifford system runs `conj` only)
WITNESS_PINS = [
    ("S6", "yes", ["target 3 1 2 6 4 5", "s 2 1 3 4 5 6", "t 1 2 3 4 6 5",
                   "ds 1 2", "dt 5 3"],
     "66f5c8c44ef57eb91a5ecc379bce3e382914cd3ac9a3ed8aee7d24a18710b3fc"),
    ("S6", "no", ["target 1 2 3 4 5 _", "s 2 1 3 4 5 6", "t 2 3 1 4 5 6",
                  "ds 1 2", "dt 3"],
     "1883ae5b84d3f3e27b151509142a37879a35a8aa27c2ffafa59fece8f8b0a445"),
    ("S3wrS2", "yes", ["target 5 4 6 2 3 1", "s 2 1 3 4 5 6",
                       "t 1 2 3 5 4 6", "ds 1 2", "dt 6 4"],
     "5bd8e1b21e3bdf5035f7b87c9c248395964500903833823677cdaea7c9851f49"),
    ("S3wrS2", "no", ["target 1 2 4 3 5 6", "s 2 1 3 4 5 6",
                      "t 4 5 6 1 2 3", "ds 1 2", "dt 3 4"],
     "1883ae5b84d3f3e27b151509142a37879a35a8aa27c2ffafa59fece8f8b0a445"),
    ("S2wrS3", "yes", ["target 4 3 6 5 2 1", "s 2 1 3 4 5 6",
                       "t 1 2 3 4 6 5", "ds 1 2", "dt 5 6"],
     "243df373c8cdaa51e6ffcf2db054ec65154e947c9aeb29db6ee2337d8096186b"),
    ("S2wrS3", "no", ["target 2 3 1 4 5 6", "s 2 1 3 4 5 6",
                      "t 3 4 1 2 5 6", "ds 1 2", "dt 2 3"],
     "1883ae5b84d3f3e27b151509142a37879a35a8aa27c2ffafa59fece8f8b0a445"),
    ("S5of6", "yes", ["target 1 2 3 4 5 _", "s 2 1 3 4 5 _",
                      "t 2 1 3 4 5 _", "ds 1 2", "dt 2 1"],
     "b15dacf9d99cc9946df33ce1232b7828523798a8b95cd0031fe6ead0cc644058"),
    ("Clifford", "yes", ["s 2 1 3 _ _ _", "t 3 2 1 _ _ _"],
     "c8a34aa7dcf33c473240638396fb43e670cd450eeb2a734eded853b420030b6b"),
    ("Clifford", "no", ["s 2 1 3 _ _ _", "t 2 3 1 _ _ _"],
     "42ff64cbc6df479c275b292c29a5bf28fa186be81df79ddeb04c87ef27264916"),
]


@pytest.mark.parametrize("name, answer, records, digest", WITNESS_PINS)
def test_group_witnesses_are_pinned(tmp_path, capsys, name, answer, records,
                                    digest):
    text = "pb 6\n" + "".join("gen %s\n" % g
                              for g in WITNESS_GENERATORS[name])
    path = _write(tmp_path, "%s_%s.pb" % (name, answer),
                  text + "".join(r + "\n" for r in records))
    commands = ([["conj", path]] if name == "Clifford" else
                [["member", path, "--solver", "group"], ["conj", path],
                 ["transport", path]])
    stdout = ""
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert out.split("\n", 1)[0] == answer.upper(), argv
        stdout += out + "exit %d\n" % code
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def test_gen_ncl_conj_and_member(tmp_path, capsys):
    rng = random.Random(1)
    machine = rand_ncl_machine(rng, "k4")
    src = _write(tmp_path, "m.ncl", serialize_ncl(machine))
    for reduction in ("ncl-conj", "ncl-member"):
        dest = str(tmp_path / (reduction + ".pb"))
        code, _, _ = run(capsys, "gen", reduction, src, "-o", dest)
        assert code == 0
        inst = parse(dest)
        assert inst.generators


def test_determinism(tmp_path, capsys):
    path = _write(tmp_path, "g.pb", PB_GROUP)
    runs = {run(capsys, "member", path)[1] for _ in range(3)}
    assert len(runs) == 1


def test_seed_is_not_an_option(tmp_path, capsys):
    # output never depended on a seed, so no command takes --seed
    path = _write(tmp_path, "g.pb", PB_GROUP)
    code, out, err = run(capsys, "member", path, "--seed", "1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --seed 1" in err


def test_explain_goes_to_stderr(tmp_path, capsys):
    path = _write(tmp_path, "s.pb", PB_SEMILATTICE)
    code, out, err = run(capsys, "member", path, "--explain")
    assert code == 0
    assert "variety" in err
    assert "variety" not in out


def test_input_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.pb")
    assert run(capsys, "member", missing)[0] == 2
    bad = _write(tmp_path, "bad.pb", "pb 2\ngen 3 1\n")
    assert run(capsys, "member", bad)[0] == 2
    no_target = _write(tmp_path, "nt.pb", "pb 2\ngen 2 1\n")
    assert run(capsys, "member", no_target)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    # a solver that does not fit the file's model
    ct = _write(tmp_path, "y2.ct", CT_Y2)
    assert run(capsys, "member", ct, "--solver", "group")[0] == 2


def test_refusal_exit_1(tmp_path, capsys):
    text = ("pb 6\ngen 2 3 4 5 6 1\ngen 2 1 3 4 5 _\n"
            "target 1 2 3 4 5 6\n")
    path = _write(tmp_path, "big.pb", text)
    code, _, err = run(capsys, "member", path, "--solver", "oracle",
                       "--cap", "50")
    assert code == 1
    assert "refused" in err


def _verify(capsys, tmp_path, what, instance, answer_text):
    answer = _write(tmp_path, "answer.txt", answer_text)
    return run(capsys, "verify", what, instance, answer)


def test_verify_malformed_witness_exit_2(tmp_path, capsys):
    pb = _write(tmp_path, "g.pb", PB_GROUP)
    pb_st = _write(tmp_path, "s.pb", PB_SEMILATTICE)
    ct = _write(tmp_path, "y2.ct", CT_Y2)
    eqn = str(tmp_path / "inst.eqn")
    assert run(capsys, "gen", "equation", pb_st, "-o", eqn)[0] == 0
    for what, path, text in (
            ("member", pb, "YES\nword g99\n"),
            ("member", pb, "YES\nword 1\n"),
            ("member", ct, "YES\nword 99\n"),
            ("conj", ct, "YES\nconjugator\n"),
            ("conj", ct, "YES\nconjugator 99\n"),
            ("conj", pb_st, "YES\nconjugator 1\n"),
            ("eqn", eqn, "YES\nassign\n")):
        code, out, err = _verify(capsys, tmp_path, what, path, text)
        assert code == 2, (what, text, out)
        assert err.startswith("error: ") and "OK" not in out
        # the message names the answer line that is malformed
        assert "line 2:" in err, (what, text, err)
    graph = _write(tmp_path, "g.graph", "graph 2\nedge 1 2\ns 1\nt 2\n")
    code, out, err = _verify(capsys, tmp_path, "member", graph, "YES\n")
    assert code == 2 and err.startswith("error: ") and "OK" not in out
    code, _, err = run(capsys, "verify", "member", pb,
                       str(tmp_path / "missing.txt"))
    assert code == 2 and err.startswith("error: ")


def test_verify_group_identity_witness(tmp_path, capsys):
    # the sift spells the identity as the empty word; the printed
    # witness must still be a non-empty word over the generators
    pb = _write(tmp_path, "e.pb", "pb 3\ngen 2 3 1\ntarget 1 2 3\n")
    code, out, _ = run(capsys, "member", pb, "--solver", "group")
    assert code == 0 and out.splitlines()[0] == "YES"
    assert out.splitlines()[1].split()[1:], out
    answer = _write(tmp_path, "ans.txt", out)
    code, out, _ = run(capsys, "verify", "member", pb, answer)
    assert code == 0 and out.strip() == "OK"


def test_verify_rejects_bogus_witnesses(tmp_path, capsys):
    # g0 named the last generator through index -1
    pb = _write(tmp_path, "g.pb", PB_GROUP)
    code, out, _ = _verify(capsys, tmp_path, "member", pb, "YES\nword g0\n")
    assert code == 2 and "OK" not in out
    # B(2) has no identity: the empty word is the adjoined identity,
    # which no table element equals, and (1,1) is not in <(0,0)>
    table, idx = brandt_table(2)
    ct = _write(tmp_path, "b2.ct", serialize(
        CTInstance(table, [idx[(0, 0)]], target=idx[(1, 1)])))
    assert run(capsys, "member", ct)[1].splitlines()[0] == "NO"
    code, out, _ = _verify(capsys, tmp_path, "member", ct, "YES\nword\n")
    assert code == 1 and out.startswith("FAIL")
    # likewise the identity of I_2 is not in <1 _>
    pb2 = _write(tmp_path, "e.pb", "pb 2\ngen 1 _\ntarget 1 2\n")
    assert run(capsys, "member", pb2)[1].splitlines()[0] == "NO"
    code, out, _ = _verify(capsys, tmp_path, "member", pb2, "YES\nword\n")
    assert code == 1 and out.startswith("FAIL")
    # a ct word must spell the target over the generators, not name it
    ct_y2 = _write(tmp_path, "y2.ct", CT_Y2)
    code, out, _ = _verify(capsys, tmp_path, "member", ct_y2, "YES\nword 0\n")
    assert code == 1 and out.startswith("FAIL")


def test_verify_rejects_a_second_witness(tmp_path, capsys):
    # only one witness is checked, so a second one would go unread: in
    # <(1 2 3)>, g1 g1 spells the target and g1 does not, in either order
    pb = _write(tmp_path, "c3.pb", "pb 3\ngen 2 3 1\ntarget 3 1 2\n"
                "s 2 3 1\nt 2 3 1\nds 1\ndt 2\n")
    ia = _write(tmp_path, "a.ia", "ia states=2 alphabet=2\ninv a A\n"
                "trans 1 a 2\ntrans 2 A 1\nstart 1\naccept 2\n")
    eqn = str(tmp_path / "inst.eqn")
    src = _write(tmp_path, "st.pb", PB_SEMILATTICE)
    assert run(capsys, "gen", "equation", src, "-o", eqn)[0] == 0
    for what, path, first, second, key, alone in (
            ("member", pb, "word g1 g1", "word g1", "word", "OK"),
            ("member", pb, "word g1", "word g1 g1", "word", "FAIL"),
            ("conj", pb, "conjugator 1 2 3", "conjugator 3 1 2",
             "conjugator", "OK"),
            ("transport", pb, "transporter 2 3 1", "transporter 1 2 3",
             "transporter", "OK"),
            ("automata", ia, "word a", "word A", "word", "OK"),
            ("eqn", eqn, "assign X 1 _", "assign X _ 2",
             "assign record for X", "FAIL")):
        answer = "YES\n%s\n%% between\n%s\n" % (first, second)
        code, out, err = _verify(capsys, tmp_path, what, path, answer)
        assert (code, out) == (2, ""), (what, answer)
        assert err == "error: line 4: repeated %s\n" % (
            key if key.startswith("assign") else key + " record"), err
        # the first record alone is checked as before
        code, out, _ = _verify(capsys, tmp_path, what, path,
                               "YES\n%s\n" % first)
        assert (code, out.split()[0]) == (alone != "OK", alone), what
    # repeated gen lines are an MGS witness, and one record per SLP item
    code, out, _ = run(capsys, "mgs", pb, "-k", "1")
    answer = _write(tmp_path, "mgs.txt", out + out.splitlines()[1] + "\n")
    assert run(capsys, "verify", "mgs", pb, answer) == (0, "OK\n", "")
    slp = _write(tmp_path, "slp.txt", "YES\ng 0\ng 0\nm 0 1\ntarget 2\n")
    assert run(capsys, "verify", "slp", pb, slp) == (0, "OK\n", "")


def test_verify_member_and_conj_drop_trailing_comments(tmp_path, capsys):
    # tokens from a % on are a comment on every answer line, as in
    # verify slp; the tokens before it are still checked
    pb = _write(tmp_path, "c.pb", "pb 3\ngen 2 3 1\ntarget 2 3 1\n"
                "s 1 _ _\nt _ 2 _\n")
    for what, answer, want in (
            ("member", "YES % a member\nword g1 % first\n", (0, "OK\n")),
            ("member", "YES\n  % note\nword g1 g1 % squared\n", (1, None)),
            ("conj", "YES\nconjugator 2 3 1 % the cycle\n", (0, "OK\n")),
            ("conj", "YES\nconjugator 3 1 2 % its inverse\n", (1, None))):
        code, out, err = _verify(capsys, tmp_path, what, pb, answer)
        assert (code, err) == (want[0], ""), answer
        assert out == want[1] if want[1] else out.startswith("FAIL")


def test_answer_files_are_read_as_records(tmp_path, capsys):
    # an answer file is read as an instance file is: everything from a %
    # on is a comment, inside a token too; comment and blank lines are
    # counted but skipped, so messages name the line of the file; lines
    # split as str.splitlines splits them
    pb = _write(tmp_path, "g.pb", PB_GROUP)
    text = "% head\nYES%c\n\n  % note\nword g1 g1%g9 g2\n"
    answer = _write(tmp_path, "ans.txt", text)
    assert cli._read_answer(answer) == (True, [(5, ["word", "g1", "g1"])])
    assert run(capsys, "verify", "member", pb, answer) == (0, "OK\n", "")
    answer = _write(tmp_path, "ans.txt", "YES\n\n% c\nword g1 g9 % g3\n")
    assert run(capsys, "verify", "member", pb, answer) == (
        2, "", "error: line 4: generator 9 out of range 1..2\n")
    answer = _write(tmp_path, "ans.txt", "YES\nword g1\x0cg1\n")
    assert cli._read_answer(answer) == (True, [(2, ["word", "g1"]),
                                               (3, ["g1"])])


def test_verify_conj_checks_conjugator_in_u1(tmp_path, capsys):
    # U = <1 _> = {1 _}; the swap 2 1 satisfies both defining equations
    # for s = 1 _, t = _ 2, but it is neither in U nor the identity
    pb = _write(tmp_path, "f.pb", "pb 2\ngen 1 _\ns 1 _\nt _ 2\n")
    out = run(capsys, "conj", pb, "--solver", "oracle")[1]
    assert out.splitlines()[0] == "NO"
    code, out, _ = _verify(capsys, tmp_path, "conj", pb,
                           "YES\nconjugator 2 1\n")
    assert code == 1 and out.strip() == "FAIL conjugator is not in U^1"
    # in B(2) with U = {(0,0)} every element conjugates the zero to
    # itself; only the adjoined identity and (0,0) lie in U^1
    table, idx = brandt_table(2)
    ct = _write(tmp_path, "b2.ct", serialize(CTInstance(
        table, [idx[(0, 0)]], s=idx[("zero",)], t=idx[("zero",)])))
    for u, verdict in (("one", "OK"), (idx[(0, 0)], "OK"),
                       (idx[(1, 1)], "FAIL conjugator is not in U^1")):
        code, out, _ = _verify(capsys, tmp_path, "conj", ct,
                               "YES\nconjugator %s\n" % u)
        assert out.strip() == verdict and code == (verdict != "OK")


def test_ct_files_reject_pb_solvers_and_wrong_model(tmp_path, capsys):
    ct = _write(tmp_path, "y2.ct", CT_Y2)
    for cmd in ("member", "conj"):
        for solver in ("group", "sis"):
            code, out, err = run(capsys, cmd, ct, "--solver", solver)
            assert code == 2 and out == "" and "does not apply" in err
            assert "ct instances" in err
        for extra in ([], ["--solver", "oracle"]):
            assert run(capsys, cmd, ct, *extra)[0] == 0


def test_verify_ct_witnesses_of_both_solvers(tmp_path, capsys):
    table, idx = brandt_table(3)
    ct = _write(tmp_path, "b3.ct", serialize(CTInstance(
        table, [idx[(0, 1)], idx[(1, 2)]], target=idx[(2, 0)])))
    for extra in ([], ["--solver", "oracle"]):
        out = run(capsys, "member", ct, *extra)[1]
        assert out.splitlines()[0] == "YES"
        code, out, _ = _verify(capsys, tmp_path, "member", ct, out)
        assert code == 0 and out.strip() == "OK"


def test_verify_automata_unknown_symbol_fails(tmp_path, capsys):
    ia = _write(tmp_path, "a.ia", "ia states=2 alphabet=2\ninv a A\n"
                "trans 1 a 2\ntrans 2 A 1\nstart 1\naccept 2\n")
    code, out, _ = _verify(capsys, tmp_path, "automata", ia, "YES\nword a\n")
    assert code == 0 and out.strip() == "OK"
    code, out, _ = _verify(capsys, tmp_path, "automata", ia, "YES\nword b\n")
    assert code == 1 and out.startswith("FAIL")


def test_verify_automata_parses_each_file_once(tmp_path, capsys,
                                              monkeypatch):
    # verify parses the instance once and each extra file once
    src = _write(tmp_path, "k4.ncl", K4_NCL)
    out_dir = str(tmp_path / "k4_ia")
    assert run(capsys, "gen", "ncl-automata", src, "-o", out_dir)[0] == 0
    files = sorted(os.path.join(out_dir, f) for f in os.listdir(out_dir))
    code, out, _ = run(capsys, "automata", "intersect", *files)
    assert code == 0 and out.startswith("YES\n")
    answer = _write(tmp_path, "ans.txt", out)
    parse, parsed = formats.parse, []
    monkeypatch.setattr(formats, "parse",
                        lambda path: parsed.append(path) or parse(path))
    assert run(capsys, "verify", "automata", files[0], answer,
               *files[1:]) == (0, "OK\n", "")
    assert parsed == files
    # an instance that is not an automaton is named as before
    pb = _write(tmp_path, "g.pb", PB_GROUP)
    assert run(capsys, "verify", "automata", pb, answer) == (
        2, "", "error: %s: not an ia instance\n" % pb)


def test_cap_honoured_on_every_pb_route(tmp_path, capsys):
    # the closure of a 3-cycle has three elements; the group is abelian,
    # so s and t are not conjugate
    path = _write(tmp_path, "c.pb", PB_GROUP + "s 2 3 1\nt 3 1 2\n")
    for cmd, answer in (("member", "YES"), ("conj", "NO")):
        code, out, err = run(capsys, cmd, path, "--cap", "1", "--solver",
                             "oracle")
        assert code == 1 and out == "", cmd
        assert "refused" in err
        code, out, _ = run(capsys, cmd, path, "--cap", "3", "--solver",
                           "oracle")
        assert code == 0 and out.splitlines()[0] == answer, cmd
        # the auto route recognises the group from its generators
        code, out, _ = run(capsys, cmd, path, "--cap", "1")
        assert code == 0 and out.splitlines()[0] == answer, cmd
    # B(2) on two points has five elements, three of them idempotent,
    # and is strict inverse, not Clifford: the auto route walks E(B(2))
    # to split StrictInverse from General, under the cap
    b2 = _write(tmp_path, "b2.pb", "pb 2\ngen 2 _\ntarget 1 _\n"
                "s 1 _\nt _ 2\n")
    for cmd in ("member", "conj"):
        code, out, err = run(capsys, cmd, b2, "--cap", "2")
        assert code == 1 and out == "" and "refused" in err, cmd
        code, out, _ = run(capsys, cmd, b2, "--cap", "3")
        assert code == 0 and out.splitlines()[0] == "YES", cmd


# B(S_3, 2): S_3 on the first block and a map onto the second; 25
# elements, 3 of them idempotent
PB_BRANDT = ("pb 6\ngen 2 1 3 _ _ _\ngen 2 3 1 _ _ _\ngen 4 5 6 _ _ _\n"
             "target 5 4 6 _ _ _\n")


def test_cap_binds_on_idempotents_before_the_closure(tmp_path, capsys):
    # E(U) fits the cap where U does not: the split, and the sis solver
    # after it, answer; the routes that enumerate U are refused
    path = _write(tmp_path, "b.pb", PB_BRANDT + "s 1 2 3 _ _ _\n"
                  "t _ _ _ 4 5 6\n")
    assert run(capsys, "classify", path, "--cap", "10") == (
        0, "StrictInverse\ndivides_Y2 yes\ndivides_B2 yes\n"
        "divides_B21 no\n", "")
    code, out, err = run(capsys, "member", path, "--cap", "10", "--explain")
    assert (code, out) == (0, "YES\n")
    assert {"classified_by: idempotents", "idempotents: 3", "solver: sis",
            "variety: StrictInverse"} <= set(err.splitlines())
    assert run(capsys, "conj", path, "--cap", "10")[:2] == (
        0, "YES\nconjugator 4 5 6 _ _ _\n")
    assert run(capsys, "member", path, "--cap", "10", "--solver",
               "oracle") == (1, "", "refused: closure exceeded 10 "
                                    "elements\n")
    # below |E(U)| the refusal names the idempotent cap and its figure
    refused = "refused: idempotent (E(U)) cap exceeded: more than 2 " \
              "idempotents"
    for argv in (["classify"], ["slp"], ["member"], ["conj"]):
        assert run(capsys, *argv, path, "--cap", "2") == (
            1, "", refused + "\n"), argv
    assert run(capsys, "member", path, "--cap", "2", "--solver", "sis") == (
        1, "", refused + ", while checking the variety StrictInverse\n")
    code, out, err = run(capsys, "member", path, "--cap", "2", "--explain")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["classified_by: idempotents", refused]


def test_explicit_solver_past_the_e_cap_says_u_is_not_clifford(
        tmp_path, capsys):
    # the cap cuts off the StrictInverse/General split, but the
    # generators still show that B(S_3, 2) is not Clifford
    path = _write(tmp_path, "b.pb", PB_BRANDT)
    assert run(capsys, "member", path, "--cap", "2", "--solver",
               "group") == (2, "", "error: --solver group: variety Group "
                            "does not hold: U is not Clifford\n")
    # sis needs the split, which the cap cut off: a refusal
    assert run(capsys, "member", path, "--cap", "2", "--solver",
               "sis") == (1, "", "refused: idempotent (E(U)) cap exceeded: "
                          "more than 2 idempotents, while checking the "
                          "variety StrictInverse\n")


def test_cap_below_one_is_rejected(tmp_path, capsys):
    # every closure holds an element, so no cap below 1 can be met
    b2 = _write(tmp_path, "b2.pb", "pb 2\ngen 2 _\ntarget 1 _\n"
                "s 1 _\nt _ 2\n")
    for cmd in ("classify", "member", "conj", "slp", "verify"):
        argv = [cmd, b2] if cmd != "verify" else [cmd, "member", b2, b2]
        for cap in ("0", "-5"):
            code, out, err = run(capsys, *argv, "--cap", cap)
            assert (code, out) == (2, ""), (cmd, cap)
            assert err.startswith("usage: invsem %s " % cmd)
            assert err.endswith("error: argument --cap: must be at least "
                                "1, got %s\n" % cap), (cmd, cap)
    code, out, err = run(capsys, "member", b2, "--cap", "x")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --cap: invalid int value: 'x'\n")
    assert run(capsys, "member", b2, "--cap", "1")[0] == 1


def test_assume_hint_is_checked(tmp_path, capsys):
    # U is General and holds the target; a false hint used to route it
    # to a solver that printed NO. --assume is gone and each explicit
    # solver is checked as the hint was
    path = _write(tmp_path, "gen.pb",
                  "pb 3\ngen 2 _ 1\ngen 1 2 _\ntarget 1 _ _\ns 1 _ _\n"
                  "t 1 _ _\n")
    assert run(capsys, "classify", path)[1].splitlines()[0] == "General"
    for cmd in ("member", "conj"):
        for solver in ("group", "sis"):
            code, out, err = run(capsys, cmd, path, "--solver", solver)
            assert code == 2 and out == "", (cmd, solver)
            assert "does not hold" in err and "Traceback" not in err
        for extra in ([], ["--solver", "oracle"]):
            code, out, _ = run(capsys, cmd, path, *extra)
            assert code == 0 and out.splitlines()[0] == "YES", extra


def test_explain_names_how_u_was_classified(tmp_path, capsys):
    semilattice = _write(tmp_path, "s.pb", PB_SEMILATTICE)
    b2 = _write(tmp_path, "b2.pb", "pb 2\ngen 2 _\ntarget 1 _\n")
    for path, by in ((semilattice, "generators"), (b2, "idempotents")):
        code, _, err = run(capsys, "member", path, "--explain")
        assert code == 0 and "classified_by: %s" % by in err.splitlines()
        # |E(U)| is shown where the idempotents decided the variety
        idempotents = [line for line in err.splitlines()
                       if line.startswith("idempotents: ")]
        assert idempotents == (["idempotents: 3"] if path == b2 else [])


def test_verify_transport_checks_transporter_in_u1(tmp_path, capsys):
    # U = <(1 2)> cannot move 1 to 3; the reversal maps {1} onto {3}
    # but is not in U^1
    path = _write(tmp_path, "t.pb", "pb 3\ngen 2 1 3\nds 1\ndt 3\n")
    assert run(capsys, "transport", path)[1].splitlines()[0] == "NO"
    code, out, _ = _verify(capsys, tmp_path, "transport", path,
                           "YES\ntransporter 3 2 1\n")
    assert code == 1 and out.strip() == "FAIL transporter is not in U^1"


def test_verify_eqn_checks_assignment_in_constraint(tmp_path, capsys):
    # X ranges over <1 _>; 2 1 satisfies X~ s X = t but lies outside it
    src = _write(tmp_path, "src.pb", "pb 2\ngen 1 _\ns 1 _\nt _ 2\n")
    dest = str(tmp_path / "inst.eqn")
    assert run(capsys, "gen", "equation", src, "-o", dest)[0] == 0
    assert run(capsys, "eqn", dest)[1].splitlines()[0] == "NO"
    code, out, _ = _verify(capsys, tmp_path, "eqn", dest,
                           "YES\nassign X 2 1\n")
    assert code == 1
    assert out.strip() == "FAIL assignment for X is outside its constraint"
    # a General constraint, <S_3 fixing 4, the identity on {1,2}>: the
    # identity on {1,2,3} solves X~ s X = t but lies outside it, and the
    # identity is in it
    _write(tmp_path, "amb.pb", "pb 4\ngen 2 3 1 4\ngen 2 1 3 4\n"
           "gen 1 2 _ _\ns 1 2 3 _\nt 1 2 3 _\n")
    eqn = _write(tmp_path, "gen.eqn", "eqn over amb.pb\nvar X in amb.pb\n"
                 "eq X~ s X = t\n")
    for value, verdict in (("1 2 3 _", "FAIL assignment for X is outside "
                            "its constraint"), ("1 2 3 4", "OK")):
        code, out, _ = _verify(capsys, tmp_path, "eqn", eqn,
                               "YES\nassign X %s\n" % value)
        assert (code, out.strip()) == (verdict != "OK", verdict)


def test_assume_rejected_where_not_honoured(tmp_path, capsys):
    # --assume is honoured nowhere now: it is unrecognized on every file
    # and beside every route, and the auto route, which runs the General
    # solver on a General U, takes its one use
    # Y2 generated by its zero is a semilattice, not a group
    ct = _write(tmp_path, "y2.ct", "ct 2\n0 1\n1 1\ngens 0\ntarget 1\n"
                "s 0\nt 0\n")
    pb = _write(tmp_path, "gen.pb",
                "pb 3\ngen 2 _ 1\ngen 1 2 _\ntarget 1 _ _\ns 1 _ _\n"
                "t 1 _ _\n")
    cases = [(ct, ["--assume", "Group"]),
             (ct, ["--solver", "oracle", "--assume", "Semilattice"]),
             (pb, ["--solver", "sis", "--assume", "Semilattice"]),
             (pb, ["--solver", "oracle", "--assume", "General"]),
             (pb, ["--assume", "General"])]
    for cmd in ("member", "conj"):
        for path, extra in cases:
            code, out, err = run(capsys, cmd, path, *extra)
            assert (code, out) == (2, ""), (cmd, extra)
            assert err.endswith("invsem: error: unrecognized arguments: "
                                "%s\n" % " ".join(extra[-2:])), err
        code, out, _ = run(capsys, cmd, pb)
        assert code == 0 and out.splitlines()[0] == "YES", cmd


def test_verify_mgs_honours_cap(tmp_path, capsys):
    # verify mgs decides membership by the member routes: U = I_3, from
    # S_3 and a rank-2 idempotent, is General with 8 idempotents, so
    # --cap binds on E(U); S_3 is a group, decided at any cap
    i3 = _write(tmp_path, "i3.pb", "pb 3\ngen 2 3 1\ngen 2 1 3\ngen 1 2 _\n")
    s3 = _write(tmp_path, "s3.pb", "pb 3\ngen 2 1 3\ngen 2 3 1\n")
    for path, k, refused in ((i3, "3", True), (s3, "2", False)):
        code, out, _ = run(capsys, "mgs", path, "-k", k)
        assert code == 0 and out.splitlines()[0] == "YES"
        answer = _write(tmp_path, "ans.txt", out)
        code, out, err = run(capsys, "verify", "mgs", path, answer,
                             "--cap", "2")
        assert (code, out == "", "refused" in err) == (
            (1, True, True) if refused else (0, False, False)), path
        code, out, _ = run(capsys, "verify", "mgs", path, answer)
        assert code == 0 and out.strip() == "OK"
    # a witness that does not generate U: a generator short, or one
    # outside U (a rank-2 map is not in S_3)
    fail = "FAIL witness set does not generate the closure"
    for witness in ("gen 2 1 3\n", "gen 2 1 3\ngen 2 3 1\ngen 1 2 _\n"):
        code, out, _ = _verify(capsys, tmp_path, "mgs", s3,
                               "YES\n" + witness)
        assert (code, out.strip()) == (1, fail), witness


def test_explicit_pb_solver_is_checked_like_assume(tmp_path, capsys):
    # U = <S_3, a rank-2 idempotent> is General; the clifford and sis
    # solvers used to print NO for a member, and sis crashed on conj
    path = _write(tmp_path, "gen.pb",
                  "pb 3\ngen 2 3 1\ngen 2 1 3\ngen 1 2 _\ntarget 1 _ _\n"
                  "s 1 _ _\nt _ 2 _\n")
    for cmd in ("member", "conj"):
        for extra in ([], ["--solver", "oracle"]):
            code, out, _ = run(capsys, cmd, path, *extra)
            assert code == 0 and out.splitlines()[0] == "YES", extra
        for solver in ("group", "sis"):
            code, out, err = run(capsys, cmd, path, "--solver", solver)
            assert code == 2 and out == "", (cmd, solver)
            assert "does not hold" in err and "Traceback" not in err
        # the StrictInverse/General split needs the closure, which the
        # cap cuts off: a refusal
        code, out, err = run(capsys, cmd, path, "--solver", "sis",
                             "--cap", "3")
        assert code == 1 and out == "" and "refused" in err, cmd


def test_general_conj_answers_what_the_oracle_answers(tmp_path, capsys):
    # U = <S_3, a rank-2 idempotent> is General: {1,2} and {2,3} are
    # conjugate idempotents, a transposition and an idempotent are not.
    # The auto route gives the oracle's answer with a conjugator of its
    # own, which verifies
    head = "pb 3\ngen 2 3 1\ngen 2 1 3\ngen 1 2 _\n"
    for pair, answer in (("s 1 2 _\nt _ 2 3\n", "YES"),
                         ("s 2 1 _\nt 1 2 _\n", "NO")):
        path = _write(tmp_path, "gen.pb", head + pair)
        code, out, _ = run(capsys, "conj", path, "--solver", "oracle")
        assert code == 0 and out.splitlines()[0] == answer
        code, auto, _ = run(capsys, "conj", path)
        assert code == 0 and auto.splitlines()[0] == answer
        assert (answer == "YES") == auto.startswith("YES\nconjugator ")
        saved = _write(tmp_path, "auto.out", auto)
        verdict = "OK\n" if answer == "YES" else "OK no witness to check\n"
        assert run(capsys, "verify", "conj", path, saved) == (0, verdict, "")


def test_general_is_not_a_solver_choice(tmp_path, capsys):
    # a General U has one solver, the auto route's; the oracle is the
    # route that enumerates U.  Nor is any solver that auto picks from
    # the input alone: ct-greedy on every ct file, semilattice and
    # clifford on every U of their varieties
    path = _write(tmp_path, "gen.pb", "pb 3\ngen 2 3 1\ngen 2 1 3\n"
                  "gen 1 2 _\ntarget 1 _ _\ns 1 2 _\nt _ 2 3\n")
    semilattice = _write(tmp_path, "s.pb", PB_SEMILATTICE)
    ct = _write(tmp_path, "y2.ct", CT_Y2)
    for cmd in ("member", "conj"):
        for solver, files in (("general", (path,)),
                              ("ct-greedy", (semilattice, ct)),
                              ("semilattice", (semilattice, ct)),
                              ("clifford", (semilattice, ct))):
            for file in files:
                code, out, err = run(capsys, cmd, file, "--solver", solver)
                assert (code, out) == (2, ""), (cmd, solver, file)
                assert "invalid choice: '%s'" % solver in err, err


def test_explain_names_the_solver_on_every_route(tmp_path, capsys):
    pb = _write(tmp_path, "g.pb", PB_GROUP + "s 2 3 1\nt 2 3 1\n")
    ct = _write(tmp_path, "y2.ct", CT_Y2)
    b2 = _write(tmp_path, "b2.pb", "pb 2\ngen 2 _\ntarget 1 _\n"
                "s 1 _\nt _ 2\n")
    general = _write(tmp_path, "gen.pb", "pb 3\ngen 2 3 1\ngen 2 1 3\n"
                     "gen 1 2 _\ntarget 1 _ _\ns 1 2 _\nt _ 2 3\n")
    semilattice = _write(tmp_path, "s.pb", PB_SEMILATTICE)
    clifford = _write(tmp_path, "c.pb", SOLVER_MATRIX["Clifford"][0])
    # the auto route names the solver of each variety, also those that
    # are no --solver value
    cases = [(pb, [], "group"), (semilattice, [], "semilattice"),
             (clifford, [], "clifford"),
             (b2, [], "sis"), (general, [], "general"),
             (pb, ["--solver", "group"], "group"),
             (pb, ["--solver", "sis"], "sis"),
             (pb, ["--solver", "oracle"], "oracle"),
             (ct, [], "ct-greedy"), (ct, ["--solver", "oracle"], "oracle")]
    for cmd in ("member", "conj"):
        for path, extra, solver in cases:
            code, out, err = run(capsys, cmd, path, *extra, "--explain")
            lines = err.splitlines()
            assert code == 0 and "solver: %s" % solver in lines, (
                cmd, path, extra)
            # the explanation goes to stderr only
            assert run(capsys, cmd, path, *extra) == (code, out, "")
            greedy = cmd == "member" and solver == "ct-greedy"
            assert greedy == any(line.startswith("greedy_iterations: ")
                                 for line in lines), (cmd, path, extra)


def test_explain_survives_a_refusal(tmp_path, capsys):
    # the 8-cycle, a transposition and a rank-7 idempotent: I_8, a
    # General U with 256 idempotents, refused at cap 100 once E(U) passes
    # it, after the classification was chosen
    path = _write(tmp_path, "i8.pb", "pb 8\ngen 2 3 4 5 6 7 8 1\n"
                  "gen 2 1 3 4 5 6 7 8\ngen 1 2 3 4 5 6 7 _\n"
                  "target 1 2 3 4 5 6 7 8\ns 1 2 3 4 5 6 7 _\n"
                  "t 2 1 3 4 5 6 7 _\n")
    refused = ("refused: idempotent (E(U)) cap exceeded: more than 100 "
               "idempotents")
    oracle = "refused: closure exceeded 100 elements"
    for cmd in ("member", "conj"):
        code, out, err = run(capsys, cmd, path, "--cap", "100", "--explain")
        assert (code, out) == (1, "")
        assert err.splitlines() == ["classified_by: idempotents",
                                    refused], cmd
        code, out, err = run(capsys, cmd, path, "--cap", "100", "--explain",
                             "--solver", "oracle")
        assert (code, out, err) == (1, "", "solver: oracle\n%s\n" % oracle)
        assert run(capsys, cmd, path, "--cap", "100") == (1, "", refused + "\n")
        # an input error also keeps what was chosen before it
        code, out, err = run(capsys, cmd, path, "--cap", "300", "--explain",
                             "--solver", "group")
        assert (code, out) == (2, "") and err.splitlines() == [
            "solver: group", "error: --solver group: variety Group does "
            "not hold: U is General"]


def test_explain_names_the_deciding_dclass_on_the_general_route(
        tmp_path, capsys):
    # I_8 (as above) answers at cap 300 from E(U): the identity is the
    # one idempotent of its D-class, with H-class S_8, and two rank-7
    # idempotents share the D-class of the eight rank-7 idempotents,
    # with H-class S_7, and are conjugate.  A rank-7 idempotent and a
    # partial transposition differ in their cycle types, so their
    # signatures decide NO before any D-class is built; I_8 holds every
    # partial bijection on 8 points, so no pair of it that is not
    # conjugate shares a signature
    records = ("pb 8\ngen 2 3 4 5 6 7 8 1\ngen 2 1 3 4 5 6 7 8\n"
               "gen 1 2 3 4 5 6 7 _\ntarget 1 2 3 4 5 6 7 8\n"
               "s 1 2 3 4 5 6 7 _\n")
    path = _write(tmp_path, "i8.pb", records + "t 2 1 3 4 5 6 7 _\n")
    same = _write(tmp_path, "i8_same.pb", records + "t _ 2 3 4 5 6 7 8\n")
    head = ["classified_by: idempotents"]
    tail = ["idempotents: 256", "solver: general", "variety: General"]
    # the conjugator shifts each point up by one: 1..7 onto 2..8
    for cmd, file, answer, size, order in (
            ("member", path, "YES\n", 1, 40320),
            ("conj", same, "YES\nconjugator 2 3 4 5 6 7 8 _\n", 8, 5040)):
        code, out, err = run(capsys, cmd, file, "--cap", "300", "--explain")
        assert (code, out) == (0, answer)
        assert err.splitlines() == head + [
            "dclass_idempotents: %d" % size, "hclass_order: %d" % order
        ] + tail, cmd
        assert run(capsys, cmd, file, "--cap", "300") == (0, out, "")
    answer = _write(tmp_path, "i8_same.ans", out)
    assert run(capsys, "verify", "conj", same, answer, "--cap", "300") == (
        0, "OK\n", "")
    code, out, err = run(capsys, "conj", path, "--cap", "300", "--explain")
    assert (code, out) == (0, "NO\n")
    assert err.splitlines() == head + [
        "idempotents: 256", "signature: differs", "solver: general",
        "variety: General"]
    assert run(capsys, "conj", path, "--cap", "300") == (0, out, "")
    # an idempotent outside E(U) meets no D-class, so neither key
    # appears: <S_3 fixing 4, the identity on {1,2}> holds no map with
    # domain {1,2,3}
    outside = _write(tmp_path, "s3.pb", "pb 4\ngen 2 3 1 4\ngen 2 1 3 4\n"
                     "gen 1 2 _ _\ntarget 1 2 3 _\n")
    code, out, err = run(capsys, "member", outside, "--explain")
    assert (code, out, err.splitlines()) == (0, "NO\n", head + [
        "idempotents: 8", "solver: general", "variety: General"])


def test_explain_keys_of_the_strict_inverse_route(tmp_path, capsys):
    # B(S_3, 2) queried on its second block: the record of the one Munn
    # component carries the target over to the H-class at the first
    # block, where the group search runs
    path = _write(tmp_path, "b.pb", "pb 6\ngen 2 1 3 _ _ _\n"
                  "gen 2 3 1 _ _ _\ngen 4 5 6 _ _ _\ntarget _ _ _ 5 4 6\n"
                  "s _ _ _ 5 4 6\nt _ _ _ 4 6 5\n")
    solver = {"basis_gamma", "delta", "group_generators", "group_target",
              "munn_dot"}
    route = {"classified_by", "idempotents", "solver", "variety"}
    for cmd, answer, keys in (
            ("member", "YES\n", solver),
            ("conj", "YES\nconjugator _ _ _ 5 6 4\n",
             solver - {"basis_gamma"})):
        code, out, err = run(capsys, cmd, path, "--explain")
        assert (code, out) == (0, answer), cmd
        lines = err.splitlines()
        assert {line.split(": ")[0] for line in lines
                if ": " in line} | {line[2:] for line in lines
                                    if line.startswith("% ")} == (
            keys | route), cmd
        assert "solver: sis" in lines and "variety: StrictInverse" in lines
        # the group search runs on the first block
        target = [line for line in lines if line.startswith("group_target")]
        assert target == ["group_target: PartialBijection(6:[%s,_,_,_])" % (
            "2,1,3" if cmd == "member" else "1,3,2")], cmd


# the varieties each explicit pb solver is exact on
_EXACT_ON = {
    "group": ("Trivial", "Group"),
    "sis": ("Trivial", "Semilattice", "Group", "Clifford", "StrictInverse"),
}


def test_explicit_solvers_agree_with_the_oracle(tmp_path, capsys):
    rng = random.Random(16)
    runs = {solver: 0 for solver in _EXACT_ON}
    witnesses = 0
    for gs, name in sample_systems(rng, 4, degrees=(3, 6), closure_cap=300):
        elements = close(gs).elements
        for _ in range(3):
            s, u = rng.choice(elements), rng.choice(elements)
            target = (rng.choice(elements) if rng.random() < 0.6
                      else rand_pb(rng, gs.degree))
            t = gs.mul(gs.mul(gs.inv(u), s), u)  # often conjugate to s
            path = _write(tmp_path, "q.pb", serialize(PBInstance(
                gs.degree, list(gs.generators), target=target, s=s, t=t)))
            for cmd in ("member", "conj"):
                code, want, _ = run(capsys, cmd, path, "--solver", "oracle")
                assert code == 0
                for solver, varieties in _EXACT_ON.items():
                    if name not in varieties:
                        continue
                    code, out, _ = run(capsys, cmd, path, "--solver", solver)
                    assert code == 0
                    assert out.splitlines()[0] == want.splitlines()[0], (
                        cmd, solver, name)
                    # every printed witness (word or conjugator) checks out
                    code, verdict, _ = _verify(capsys, tmp_path, cmd, path,
                                               out)
                    assert (code, verdict.strip()) in (
                        (0, "OK"), (0, "OK no witness to check")), (
                        cmd, solver, out, verdict)
                    runs[solver] += 1
                    witnesses += verdict.strip() == "OK"
    assert min(runs.values()) >= 20 and witnesses >= 20, (runs, witnesses)


def test_explicit_pb_solver_runs_inside_its_variety(tmp_path, capsys):
    # C_3 is a group, so every explicit pb solver applies
    path = _write(tmp_path, "g.pb",
                  "pb 3\ngen 2 3 1\ntarget 3 1 2\ns 2 3 1\nt 2 3 1\n")
    for cmd in ("member", "conj"):
        for solver in ("group", "sis"):
            code, out, _ = run(capsys, cmd, path, "--solver", solver)
            assert code == 0 and out.splitlines()[0] == "YES", (cmd, solver)


# a pb file of each variety, with a target in U and, but for the
# semilattice, a conjugate pair, and the explicit pb solvers that take it
SOLVER_MATRIX = {
    "Trivial": ("pb 2\ngen 1 2\ntarget 1 2\ns 1 2\nt 1 2\n",
                ("group", "sis")),
    "Semilattice": (PB_SEMILATTICE, ("sis",)),
    "Group": ("pb 3\ngen 2 3 1\ngen 2 1 3\ntarget 3 1 2\ns 2 1 3\n"
              "t 1 3 2\n", ("group", "sis")),
    "Clifford": ("pb 6\n" + "".join("gen %s\n" % g for g in
                                     WITNESS_GENERATORS["Clifford"])
                 + "target 3 1 2 _ _ _\ns 2 1 3 _ _ _\nt 3 2 1 _ _ _\n",
                 ("sis",)),
    "StrictInverse": ("pb 2\ngen 2 _\ntarget 1 _\ns 1 _\nt _ 2\n",
                      ("sis",)),
    "General": ("pb 3\ngen 2 3 1\ngen 2 1 3\ngen 1 2 _\ntarget 1 _ _\n"
                "s 1 2 _\nt _ 2 3\n", ()),
}
ROUTES = ("auto", "oracle", "group", "sis")


def test_every_solver_on_every_variety(tmp_path, capsys):
    """Each --solver choice on a file of each variety and on a ct file
    gives auto's answer with a witness that verify accepts, or exits 2
    because the solver does not fit the file."""
    table, idx = brandt_table(3)
    files = {name: (_write(tmp_path, name + ".pb", text),
                    {"auto", "oracle", *solvers})
             for name, (text, solvers) in SOLVER_MATRIX.items()}
    files["ct"] = (_write(tmp_path, "b3.ct", serialize(CTInstance(
        table, [idx[(0, 1)], idx[(1, 2)]], target=idx[(2, 0)],
        s=idx[(0, 0)], t=idx[(2, 2)]))), {"auto", "oracle"})
    for name, (path, takes) in files.items():
        assert run(capsys, "classify", path)[1].split("\n", 1)[0] == (
            name if name != "ct" else "StrictInverse")
        for cmd in ("member", "conj"):
            code, auto, _ = run(capsys, cmd, path)
            assert code == 0, (name, cmd)
            for solver in ROUTES:
                code, out, err = run(capsys, cmd, path, "--solver", solver)
                if solver not in takes:
                    assert (code, out) == (2, ""), (name, cmd, solver)
                    assert ("does not hold" in err
                            or "does not apply" in err), err
                    continue
                assert code == 0, (name, cmd, solver, err)
                assert out.split("\n", 1)[0] == auto.split("\n", 1)[0], (
                    name, cmd, solver)
                code, verdict, _ = _verify(capsys, tmp_path, cmd, path, out)
                witness = "OK" if len(out.splitlines()) > 1 else (
                    "OK no witness to check")
                assert (code, verdict) == (0, witness + "\n"), (
                    name, cmd, solver, out)


# a call of every command that parses; each runs on one pb file
CALLS = {
    "classify": ["classify", "{pb}"],
    "member": ["member", "{pb}", "--solver", "oracle", "--cap", "7"],
    "conj": ["conj", "{pb}", "--solver", "sis", "--explain"],
    "green": ["green", "{pb}", "--rel", "R", "--leq"],
    "slp": ["slp", "{pb}"],
    "transport": ["transport", "{pb}"],
    "automata": ["automata", "intersect", "{pb}", "{pb}"],
    "gen": ["gen", "mgs", "{pb}", "-o", "{out}"],
    "mgs": ["mgs", "{pb}", "-k", "1"],
    "eqn": ["eqn", "{pb}"],
    "verify": ["verify", "member", "{pb}", "{pb}"],
}
BAD_CHOICES = {
    "member": ["member", "{pb}", "--solver", "nope"],
    "conj": ["conj", "{pb}", "--solver", "Group"],
    "green": ["green", "{pb}", "--rel", "X"],
    "gen": ["gen", "nope", "{pb}", "-o", "{out}"],
    "verify": ["verify", "nope", "{pb}", "{pb}"],
}


def _parser_argvs(tmp_path):
    pb = _write(tmp_path, "all.pb", "pb 3\ngen 2 3 1\ntarget 3 1 2\n"
                "s 2 3 1\nt 2 3 1\nds 1\ndt 2\n")
    fill = {"pb": pb, "out": str(tmp_path / "out.pb")}
    argvs = [[], ["-h"], ["--help"], ["nope"], ["nope", pb], ["--cap", "5"],
             ["--", "member", pb], ["mem", pb]]
    for name, call in CALLS.items():
        call = [a.format(**fill) for a in call]
        argvs += [call, [name, "-h"], [name], call + ["--bogus"],
                  call + ["extra"], call + ["--cap", "x"],
                  ["--cap", "5"] + call]
        if name in BAD_CHOICES:
            argvs.append([a.format(**fill) for a in BAD_CHOICES[name]])
    return argvs


def _parsed(parser, argv, capsys):
    try:
        parsed = vars(parser.parse_args(argv))
    except SystemExit as exc:
        parsed = exc.code
    return parsed, capsys.readouterr()


def test_one_command_parser_acts_as_the_full_one(tmp_path, capsys,
                                                 monkeypatch):
    full = cli.build_parser
    built = []

    def recording(names):
        built.append(list(names))
        return full(names)

    monkeypatch.setattr(cli, "build_parser", recording)
    for argv in _parser_argvs(tmp_path):
        built.clear()
        got = run(capsys, *argv)
        command = argv[:1] if argv and argv[0] in CALLS else list(CALLS)
        assert built == [command], argv
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", lambda names: full())
            assert run(capsys, *argv) == got, argv
        assert (_parsed(full(command), argv, capsys)
                == _parsed(full(), argv, capsys)), argv


def test_each_call_builds_its_own_parser(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "g.pb", PB_GROUP)
    full = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda names: built.append(full(names)) or built[-1])
    for _ in range(2):
        assert run(capsys, "member", path) == (0, "YES\n", "")
    assert len(built) == 2 and built[0] is not built[1]


def _python(*args, stdout=subprocess.PIPE, **env):
    """Run a fresh interpreter that imports this checkout's invsem, with
    `env` added to its environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(invsem.__file__)))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def test_module_entry_point_reads_sys_argv(tmp_path):
    path = _write(tmp_path, "g.pb", PB_GROUP)
    done = _python("-m", "invsem.cli", "member", path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "YES\n", "")
    done = _python("-m", "invsem.cli", "nope")
    assert done.returncode == 2 and done.stdout == ""
    assert "invalid choice: 'nope'" in done.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_exits_1_without_a_traceback(tmp_path, unbuffered):
    path = _write(tmp_path, "s3.pb", "pb 3\ngen 2 3 1\ngen 2 1 3\n"
                  "s 2 1 _\nt _ 3 2\n")
    read, write = os.pipe()
    os.close(read)  # the reader is gone before anything is written
    try:
        done = _python("-m", "invsem.cli", "conj", path, stdout=write,
                       PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "")


def test_numpy_loads_on_the_first_table_only(tmp_path, capsys):
    pb = _write(tmp_path, "g.pb", PB_GROUP)
    ct = _write(tmp_path, "y2.ct", CT_Y2)
    done = _python("-c", """if True:
        import sys
        def numpy_loaded():
            print("numpy loaded:", "numpy" in sys.modules)
        import invsem
        numpy_loaded()
        from invsem import cli, formats
        numpy_loaded()
        print("exit", cli.main(["member", sys.argv[1]]))
        numpy_loaded()
        print("exit", cli.main(["member", sys.argv[2]]))
        numpy_loaded()
        """, pb, ct)
    _, ct_out, ct_err = run(capsys, "member", ct)
    assert (done.returncode, done.stderr) == (0, ct_err)
    assert done.stdout == ("numpy loaded: False\n" * 2 + "YES\nexit 0\n"
                           "numpy loaded: False\n" + ct_out + "exit 0\n"
                           "numpy loaded: True\n")


def test_ct_conj_leaves_the_table_lists_unbuilt(tmp_path, capsys,
                                               monkeypatch):
    table, idx = brandt_table(3)
    path = _write(tmp_path, "b3.ct", serialize(CTInstance(
        table, [idx[(0, 1)], idx[(1, 2)]], s=idx[(0, 0)], t=idx[(2, 2)])))
    loaded = []
    parse_file = cli.formats.parse
    monkeypatch.setattr(cli.formats, "parse",
                        lambda p: loaded.append(parse_file(p)) or loaded[-1])
    assert run(capsys, "conj", path) == (0, "YES\n", "")
    [inst] = loaded
    table_slot = type(inst.table).table
    with pytest.raises(AttributeError):
        table_slot.__get__(inst.table)
    assert inst.table.table == inst.table.array.tolist()
    assert table_slot.__get__(inst.table) is inst.table.table


def test_gen_output_that_cannot_be_written_exits_2(tmp_path, capsys):
    src = _write(tmp_path, "g.pb", PB_GROUP)
    code, out, err = run(capsys, "gen", "mgs", src, "-o",
                         str(tmp_path / "missing" / "x.pb"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "No such file" in err
    ncl = _write(tmp_path, "k4.ncl", K4_NCL)
    code, out, err = run(capsys, "gen", "ncl-automata", ncl, "-o", src)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "File exists" in err


def test_ia_states_past_memory_are_refused_or_rejected(tmp_path, capsys):
    text = "ia states=%d alphabet=2\ninv a A\nstart 1\naccept 1\n"
    # [None] * 10**18 fails at once, allocating nothing
    path = _write(tmp_path, "big.ia", text % 10**18)
    assert run(capsys, "automata", "intersect", path) == (
        1, "", "refused: out of memory\n")
    path = _write(tmp_path, "bigger.ia", text % 10**19)
    assert run(capsys, "automata", "intersect", path) == (
        2, "", "error: line 1: states %d out of range 1..%d\n"
        % (10**19, sys.maxsize))


def test_transport_point_lists_are_checked(tmp_path, capsys):
    for body, message in (("ds 1 _ 3\ndt 1 2 3\n", "bad point '_'"),
                          ("ds _\ndt 1\n", "bad point '_'"),
                          ("ds 1 2\ndt 3 1 3\n", "repeated point 3")):
        path = _write(tmp_path, "t.pb", "pb 3\ngen 2 3 1\n" + body)
        for command in ("transport", "classify"):
            code, out, err = run(capsys, command, path)
            assert (code, out) == (2, "")
            assert err.startswith("error: line ") and message in err


# small instances of every kind, and the commands that read each; FILE
# stands for the instance and OUT for an output path
_FUZZ_INSTANCES = {
    "pb": ("pb 3\ngen 2 3 1\ngen 1 _ 3\ntarget 3 1 2\ns 1 _ _\n"
           "t _ 2 _\nds 1 2\ndt 2 3\n",
           [["classify", "FILE"], ["member", "FILE"],
            ["member", "FILE", "--solver", "oracle"], ["conj", "FILE"],
            ["slp", "FILE"], ["transport", "FILE"],
            ["green", "FILE", "--rel", "D"], ["mgs", "FILE", "-k", "2"],
            ["gen", "mgs", "FILE", "-o", "OUT"],
            ["gen", "equation", "FILE", "-o", "OUT"]]),
    "ct": ("ct 5\n0 0 0 0 0\n0 1 2 0 0\n0 0 0 1 2\n0 3 4 0 0\n"
           "0 0 0 3 4\ngens 2 3\ntarget 1\ns 1\nt 4\n",
           [["classify", "FILE"], ["member", "FILE"], ["conj", "FILE"],
            ["conj", "FILE", "--solver", "oracle"],
            ["green", "FILE", "--rel", "R"]]),
    "graph": ("graph 3\nedge 1 2\nedge 2 3\ns 1\nt 3\n",
              [["gen", "ugap-conj", "FILE", "-o", "OUT"],
               ["gen", "ugap-member", "FILE", "-o", "OUT"]]),
    "ncl": (K4_NCL,
            [["gen", "ncl-conj", "FILE", "-o", "OUT"],
             ["gen", "ncl-member", "FILE", "-o", "OUT"],
             ["gen", "ncl-automata", "FILE", "-o", "OUT"]]),
    "ia": ("ia states=2 alphabet=3\ninv a A\ninv b b\ntrans 1 a 2\n"
           "trans 2 A 1\ntrans 2 b 2\nstart 1\naccept 2\n",
           [["automata", "intersect", "FILE"],
            ["automata", "intersect", "FILE", "FILE"]]),
}

# tokens a mutation may put into a line; the numbers stay small, so no
# mutated size makes a command slow, and the two states= values are too
# large to allocate, so they fail at once
_FUZZ_TOKENS = ("_", "0", "1", "2", "3", "-1", "+2", "\uff12", "x", "g1",
                "<", ">", "states=%d" % 10**18, "states=%d" % 10**19)


def _mutate(rng, text):
    """text with one or two random line drops, line duplications,
    line extensions, token swaps or token replacements."""
    rows = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(1, 2)):
        if not rows:
            break
        i = rng.randrange(len(rows))
        spots = [(r, c) for r, row in enumerate(rows)
                 for c in range(len(row))]
        op = rng.randrange(5)
        if op == 0:
            del rows[i]
        elif op == 1:
            rows.insert(i, list(rows[i]))
        elif op == 2:
            rows[i].append(rng.choice(_FUZZ_TOKENS))
        elif spots:
            r, c = rng.choice(spots)
            if op == 3:
                r2, c2 = rng.choice(spots)
                rows[r][c], rows[r2][c2] = rows[r2][c2], rows[r][c]
            else:
                rows[r][c] = rng.choice(_FUZZ_TOKENS)
    return "".join(" ".join(row) + "\n" for row in rows)


def test_mutated_instances_end_in_an_exit_code(tmp_path, capsys):
    """Every command, on mutated small instances of every kind and with
    outputs that may not be writable, exits 0, 1 or 2 and raises
    nothing."""
    rng = random.Random(0)
    taken = _write(tmp_path, "taken", "")
    runs = 0
    for i in range(1000):
        kind = sorted(_FUZZ_INSTANCES)[i % len(_FUZZ_INSTANCES)]
        base, commands = _FUZZ_INSTANCES[kind]
        text = _mutate(rng, base)
        path = _write(tmp_path, "m%d.%s" % (i, kind), text)
        for command in commands:
            out = rng.choice([str(tmp_path / ("o%d" % runs)), taken,
                              os.path.join(taken, "o")])
            argv = [path if a == "FILE" else out if a == "OUT" else a
                    for a in command]
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail("%s on %r raised %r" % (argv, text, exc))
            capsys.readouterr()
            assert code in (0, 1, 2), (argv, text)
            runs += 1
    assert runs > 4000
