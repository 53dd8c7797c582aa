"""The library holds what a command, the session API or an export runs:
every top-level function and class of `src/invsem` is exported or used
by other library code, and the test-only references stay in
`tests/reference.py`."""

import ast
import importlib
import pathlib
import types

import invsem
from invsem.groups import PermGroup

SRC = pathlib.Path(invsem.__file__).parent

# what moved to tests/reference.py or was deleted, by its old module
REMOVED = {
    "invsem.automata": ("as_dfa",),
    "invsem.cayley": ("from_closure",),
    "invsem.classify": ("classify", "_idempotent_indices",
                        "_is_strict_inverse"),
    "invsem.ctsolver": ("ct_member", "ct_conjugate", "ct_r_equiv"),
    "invsem.groups": ("_diagonal_group", "_group_domain"),
    "invsem.hardness": ("automata_word_to_transitions",
                        "conjugation_orbit_decide"),
    "invsem.meta": ("solve_equations_bruteforce",),
    "invsem.munn": ("GENERAL_CAP",),
    "invsem.ncl": ("all_configs", "transitions_of", "ncl_reach_bruteforce",
                   "replay"),
    "invsem.oracle": ("eval_word", "_right_ideal", "_left_ideal",
                      "_two_sided_ideal"),
    "invsem.pbij": ("from_pairs", "all_partial_bijections"),
}

TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def _names_in(node, reexport):
    """The names and attribute names that `node` refers to.  Imported
    names count too, except in the package's re-exports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and not reexport:
            out.update(alias.name for alias in sub.names)
    return out


def test_every_definition_is_exported_or_used():
    statements = [(stmt, _names_in(stmt, name == "__init__.py"))
                  for name, tree in TREES.items() for stmt in tree.body]
    unused = [
        "%s:%s" % (name, stmt.name)
        for name, tree in TREES.items() for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in invsem.__all__
        and not any(stmt.name in names for other, names in statements
                    if other is not stmt)]
    assert unused == []


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        mod = importlib.import_module(module)
        for name in names:
            assert not hasattr(mod, name), (module, name)
            assert name not in invsem.__all__, name
            if name != "classify":
                assert not hasattr(invsem, name), name
    assert not hasattr(PermGroup, "elements")
    assert not hasattr(PermGroup, "fixed_points")
    # invsem.classify is the module again, not a re-exported function
    assert isinstance(invsem.classify, types.ModuleType)
    assert len(set(invsem.__all__)) == len(invsem.__all__)
    for name in invsem.__all__:
        assert not isinstance(getattr(invsem, name), types.ModuleType), name


def test_one_element_cap():
    # 10**6 is spelt out once, as oracle.ELEMENT_CAP, and --cap reads it
    spelt = [name for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.Constant))
             and ast.unparse(node) in ("10 ** 6", "1000000")]
    assert spelt == ["oracle.py"]
    from invsem import cli, oracle
    args = cli.build_parser().parse_args(["classify", "FILE"])
    assert args.cap == oracle.ELEMENT_CAP
