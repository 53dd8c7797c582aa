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
right generator edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import d_class_labels
from .gensys import GeneratorSystem
from .oracle import close, ELEMENT_CAP
from .search import reach


# -- minimum generating set ------------------------------------------------


def mgs_decide(u, k, cap=ELEMENT_CAP):
    """Is there Xi with |Xi| <= k and <Xi> = U?

    `u` is a GeneratorSystem or a list of partial bijections closed
    under products and inverses.  Xi is not required to be
    inverse-closed: inverses are added when closing but |Xi| counts the
    chosen elements only.  Returns (bool, witness tuple or None).
    """
    if isinstance(u, GeneratorSystem):
        gs = u
        cl = close(gs, cap)
        elements = cl.elements
    else:
        elements = list(u)
        if not elements:
            raise ValueError("empty element list")
        gs = GeneratorSystem(elements, degree=elements[0].degree)
        cl = close(gs, cap)
        if not len(cl.elements) == len(set(elements)) == len(elements):
            raise ValueError("element list is not closed")
    full_n = len(elements)
    if k <= 0:
        return False, None

    # The whole search runs over indices into `elements`; cols[b][a] is
    # the index of elements[a] * elements[b].
    cols, inv_t = _product_table(gs, cl)
    gen_idx = list(range(len(gs.generators)))
    if elements is not cl.elements:
        # an element list is searched in its own order
        pos = [cl.index[x] for x in elements]
        back = sorted(range(full_n), key=pos.__getitem__)  # pos inverted
        cols = [[back[cols[pb][pa]] for pa in pos] for pb in pos]
        inv_t = [back[inv_t[c]] for c in pos]
        gen_idx = sorted(back[g] for g in gen_idx)

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
    n_classes, class_of = _maximal_class_cover(
        [cols[g] for g in gen_idx], label, candidates)
    if n_classes > k:
        return False, None

    # Breadth-first over subset sizes; states are the distinct closures
    # reachable by some partial Xi, so equivalent subsets collapse.
    # Never add an element already generated by the current partial Xi.
    states = {frozenset(): ((), frozenset())}
    seen = {frozenset()}
    for level in range(k):
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
                new = frozenset(grow(closure, chosen, x))
                if len(new) == full_n:
                    witness = tuple(elements[i] for i in chosen + (x,))
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
    gen_inv = [cl.index[gs.inv(g)] for g in gs.generators]
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


def solve_equations_bruteforce(system, ambient, cap=ELEMENT_CAP):
    """Exhaustive enumeration without pruning; confirmation oracle for
    small search spaces."""
    system.check()
    mul = ambient.mul
    inv = ambient.inv
    domains = []
    for name in system.variables:
        gs = system.constraints.get(name) or ambient
        domains.append(list(close(gs, cap).elements))
    from itertools import product
    for combo in product(*domains):
        assignment = dict(zip(system.variables, combo))
        if all(eval_word(l, assignment, mul, inv)
               == eval_word(r, assignment, mul, inv)
               for l, r in system.equations):
            return assignment
    return None
