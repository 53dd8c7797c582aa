"""Desk-scale deciders for the two application problems: minimum
generating set (exact subset search with pruning) and satisfiability of
systems of equations with per-variable subsemigroup constraints
(guess-and-check backtracking over closure enumerations).

The generating-set search runs on integers only.  Its product table is
read off the right Cayley graph that `oracle.close` records, one column
per element in enumeration order, so no element product is evaluated
after the closure.  Closures of partial generating sets grow along the
edges of the chosen letters (East, Egri-Nagy, Mitchell and Peresse,
JSC 2019) by `search.reach`.  The maximal J-classes that bound the
search are read off the pairs (x x~, x~ x) and one pass over the
right generator edges.  A candidate alone in its maximal J-class is
forced: the search starts from the closure of the forced candidates,
so on the tag-point instances of `hardness.gen_mgs`, which force every
maximal class, the decision is one closure.  Each chosen set is grown
once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .classify import d_class_labels
from .oracle import close, ELEMENT_CAP
from .search import reach


# -- minimum generating set ------------------------------------------------


def mgs_decide(gs, k, cap=ELEMENT_CAP):
    """Is there Xi with |Xi| <= k and <Xi> = U?

    `gs` is a GeneratorSystem and U = <Sigma>.  Xi is not required to
    be inverse-closed: inverses are added when closing but |Xi| counts
    the chosen elements only.  Returns (bool, witness tuple or None).

    The search starts from the forced candidates F: those that are the
    only candidate of their maximal J-class.  Some smallest generating
    set contains F.  Take one, X, and a forced x of class C.  X meets
    C, say at y.  The domination chain of y ends in a candidate c with
    y in <c>, so c is J-above y; C is maximal, so c lies in C and is x.
    Then y is in <x>, and X - {y} + {x} still generates U with at most
    |X| elements; do this for every forced class.  So the breadth-first
    search starts at <F> with F chosen, and when <F> = U (as on every
    `hardness.gen_mgs` instance whose target is a member, where every
    maximal class is forced) the decision is that one closure.
    """
    if k <= 0:  # U holds its generators: the empty set does not generate it
        return False, None
    cl = close(gs, cap)
    full_n = len(cl)

    # The whole search runs over closure indices, and only the witness
    # is decoded; cols[b][a] is the index of elements[a] * elements[b].
    cols, inv_t = _product_table(gs, cl)

    def grow(closure, chosen, x):
        # <closure + {x}> where closure = <chosen> is closed.  Every
        # element of the result is a word in the chosen letters, x and
        # their inverses; its longest prefix inside the old closure is
        # followed by x or x~, so it suffices to multiply the old
        # closure by x and x~ and each new element by every letter,
        # all on the right.
        xs = {x, inv_t[x]}
        letters = xs.union(chosen, [inv_t[c] for c in chosen])
        step = xs.union(*(map(cols[y].__getitem__, closure) for y in xs))
        return reach(step - closure, [cols[y] for y in letters], set(closure))

    # Candidate reduction: if <x> is contained in <y>, replacing x by y
    # in any generating set keeps it generating, so only elements with
    # maximal monogenic closure need to be tried (one per closure).
    mono = [grow(frozenset(), (), i) for i in range(full_n)]
    # <x> is contained in <y> exactly when x is in <y>
    dominated = [False] * full_n
    for j, m in enumerate(mono):
        for i in m:
            if i != j and (len(m) > len(mono[i]) or j < i):
                dominated[i] = True
    candidates = [i for i in range(full_n) if not dominated[i]]

    # Covering bound: a maximal J-class contains none of the products
    # of elements outside it, so every generating set meets every
    # maximal J-class.  The classes are read off the pairs (a a~, a~ a).
    label = d_class_labels([cols[b][a] for a, b in enumerate(inv_t)],
                           [cols[a][b] for a, b in enumerate(inv_t)])
    # the generators are the first elements of the closure
    n_classes, class_of = _maximal_class_cover(
        cols[:len(gs.generators)], label, candidates)
    if n_classes > k:
        return False, None

    # Forced start: a candidate that is the only one of its maximal
    # J-class lies in some smallest generating set (see the docstring),
    # so the search starts from <F>, with one closure.
    per_class = Counter(class_of)
    hit = {c for c, m in per_class.items() if c is not None and m == 1}
    forced = tuple(x for x, c in zip(candidates, class_of) if c in hit)
    letters = forced + tuple(inv_t[x] for x in forced)
    start = frozenset(reach(letters, [cols[y] for y in letters]))
    if len(start) == full_n:
        return True, tuple(map(cl.element, forced))

    # Breadth-first over subset sizes; states are the distinct closures
    # reachable by some partial Xi, so equivalent subsets collapse.
    # Never add an element already generated by the current partial Xi,
    # and grow each chosen set once: <chosen + {x}> depends on the set
    # only, and a grown closure that is not full is already in `seen`.
    states = {start: (forced, hit)}
    seen = {start}
    grown = set()
    for level in range(len(forced), k):
        nxt = {}
        for closure, (chosen, hit) in states.items():
            slack = k - level - (n_classes - len(hit))
            for ci, x in enumerate(candidates):
                if x in closure:
                    continue
                c = class_of[ci]
                covers_new = c is not None and c not in hit
                if slack <= 0 and not covers_new:
                    continue
                key = frozenset(chosen + (x,))
                if key in grown:
                    continue
                grown.add(key)
                new = frozenset(grow(closure, chosen, x))
                if len(new) == full_n:
                    witness = tuple(map(cl.element, chosen + (x,)))
                    return True, witness
                if new not in seen:
                    seen.add(new)
                    new_hit = hit | {c} if covers_new else hit
                    nxt[new] = (chosen + (x,), new_hit)
        states = nxt
    return False, None


def _product_table(gs, cl):
    """The product table and the inverse map of the closure cl, as
    closure indices, from its right Cayley graph alone.

    Returns (cols, inv) with cols[b][a] the index of elements[a] *
    elements[b] and inv[a] the index of elements[a]~.  Column b of a
    generator is its edge column; for b = b' * Sigma[g] (the product
    witness), a * b = right[a * b'][g], so column b is column b'
    followed along the g-edges.  Likewise b~ = Sigma[g]~ * b'~."""
    right = cl.right
    edge_cols = [[row[g] for row in right] for g in range(len(gs.generators))]
    gen_inv = gs.inv_index  # generator g is elements[g]
    cols = []
    inv = []
    for b, witness in enumerate(cl.product_witness):
        if witness is None:
            cols.append(edge_cols[b])
            inv.append(gen_inv[b])
        else:
            j, g = witness
            cols.append(list(map(edge_cols[g].__getitem__, cols[j])))
            inv.append(cols[inv[j]][gen_inv[g]])
    return cols, inv


def _maximal_class_cover(edges, label, candidates):
    """The number of maximal J-classes of a closed inverse semigroup
    with J-class labels `label`, and per candidate index its class label
    if that class is maximal, else None.  `edges` are the maps of right
    multiplication by an inverse-closed generating set.

    A class is maximal exactly when no edge enters it from another
    class: J never rises along an edge, and if c = x c' y lies in C with
    c' above C, then either x c' lies outside C and the path from it
    along y enters C, or the path from c'~ along x~ enters C at (x c')~,
    as J-classes are closed under inversion."""
    entered = {label[b] for m in edges for c, b in zip(label, m)
               if label[b] != c}
    maximal = set(label) - entered
    return len(maximal), [label[x] if label[x] in maximal else None
                          for x in candidates]


# -- equations -------------------------------------------------------------


@dataclass
class EquationSystem:
    """Variables with optional constraint generator systems, and
    equations between non-empty words.

    A word is a tuple of tokens ("const", element, barred) or
    ("var", name, barred); barred tokens evaluate to the inverse.
    """

    variables: list  # names, in declaration order
    constraints: dict  # name -> GeneratorSystem or None
    equations: list  # of (lhs, rhs) token tuples

    def check(self):
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise ValueError("duplicate variable name")
        for lhs, rhs in self.equations:
            for word in (lhs, rhs):
                if not word:
                    raise ValueError("empty word in equation")
                for tok in word:
                    if tok[0] == "var" and tok[1] not in declared:
                        raise ValueError("undeclared variable %r" % (tok[1],))
                    if tok[0] not in ("var", "const"):
                        raise ValueError("bad token kind %r" % (tok[0],))


def eval_word(word, assignment, mul, inv):
    value = None
    for kind, payload, barred in word:
        x = assignment[payload] if kind == "var" else payload
        if barred:
            x = inv(x)
        value = x if value is None else mul(value, x)
    return value


def solve_equations(system, ambient, cap=ELEMENT_CAP):
    """First satisfying assignment (dict name -> element) in
    enumeration order, or None.  Unconstrained variables range over the
    ambient closure."""
    system.check()
    mul = ambient.mul
    inv = ambient.inv
    domains = []
    for name in system.variables:
        gs = system.constraints.get(name) or ambient
        domains.append(list(close(gs, cap).elements))

    # check an equation as soon as all its variables are assigned
    def ready(eq, assigned):
        for word in eq:
            for tok in word:
                if tok[0] == "var" and tok[1] not in assigned:
                    return False
        return True

    def holds(eq, assignment):
        lhs, rhs = eq
        return (eval_word(lhs, assignment, mul, inv)
                == eval_word(rhs, assignment, mul, inv))

    names = system.variables

    def backtrack(i, assignment):
        if i == len(names):
            if all(holds(eq, assignment) for eq in system.equations):
                return dict(assignment)
            return None
        name = names[i]
        for cand in domains[i]:
            assignment[name] = cand
            if all(holds(eq, assignment) for eq in system.equations
                   if ready(eq, assignment)):
                found = backtrack(i + 1, assignment)
                if found is not None:
                    return found
            del assignment[name]
        return None

    result = backtrack(0, {})
    if result is not None:
        for eq in system.equations:
            assert holds(eq, result), "assignment fails re-verification"
    return result
