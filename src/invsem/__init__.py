"""Membership, conjugacy and reductions in finite inverse semigroups.

Two input models are supported: partial bijections on a finite point
set (model "pb") and complete multiplication tables (model "ct").
Fast solvers cover the group, semilattice, Clifford and strict-inverse
cases; a brute-force oracle provides ground truth; generators for the
hardness reductions (graph reachability, constraint-logic machines,
automata intersection, minimum generating sets, equations) round out
the toolkit.
"""

from .pbij import (
    PartialBijection,
    compose,
    identity,
    empty_map,
    partial_identity,
    singleton,
    idempotent_power,
    brandt,
    direct_product,
)
from .cayley import CayleyTable, preston_wagner, brandt_table, y2_table
from .gensys import GeneratorSystem
from .oracle import close, naive_member, naive_conjugate, naive_green
from .classify import OutsideTractable, VarietyTag, classify_generated
from .groups import PermGroup, perm_group_of, pb_group_member, \
    group_conjugate, set_transporter
from .ctsolver import CTSolver
from .slp import (SLP, slp_eval, slp_to_text, slp_from_text,
                  slp_semilattice, slp_group, slp_clifford, NotGenerated)
from .munn import (munn_graph, munn_dot, basis_at, sis_member,
                   sis_conjugate, clifford_member, clifford_conjugate,
                   dispatch_member, dispatch_conjugate)
from .automata import InverseAutomaton, intersect_nonempty, ProductCapExceeded
from .ncl import NCLMachine, ncl_validate
from .hardness import (gen_ugap_conj, gen_ugap_member, gen_ncl_conj,
                       gen_ncl_member, gen_ncl_automata, gen_mgs,
                       gen_equation)
from .meta import mgs_decide, EquationSystem, solve_equations
from .formats import parse, serialize, FormatError

__all__ = [
    "PartialBijection",
    "compose",
    "identity",
    "empty_map",
    "partial_identity",
    "singleton",
    "idempotent_power",
    "brandt",
    "direct_product",
    "CayleyTable",
    "preston_wagner",
    "brandt_table",
    "y2_table",
    "GeneratorSystem",
    "close",
    "naive_member",
    "naive_conjugate",
    "naive_green",
    "VarietyTag",
    "classify_generated",
    "PermGroup",
    "perm_group_of",
    "pb_group_member",
    "group_conjugate",
    "set_transporter",
    "CTSolver",
    "SLP",
    "slp_eval",
    "slp_to_text",
    "slp_from_text",
    "slp_semilattice",
    "slp_group",
    "slp_clifford",
    "NotGenerated",
    "OutsideTractable",
    "munn_graph",
    "munn_dot",
    "basis_at",
    "sis_member",
    "sis_conjugate",
    "clifford_member",
    "clifford_conjugate",
    "dispatch_member",
    "dispatch_conjugate",
    "InverseAutomaton",
    "intersect_nonempty",
    "ProductCapExceeded",
    "NCLMachine",
    "ncl_validate",
    "gen_ugap_conj",
    "gen_ugap_member",
    "gen_ncl_conj",
    "gen_ncl_member",
    "gen_ncl_automata",
    "gen_mgs",
    "gen_equation",
    "mgs_decide",
    "EquationSystem",
    "solve_equations",
    "parse",
    "serialize",
    "FormatError",
]
