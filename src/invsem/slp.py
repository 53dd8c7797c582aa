"""Straight-line programs over a generator list, with the constructive
length-bounded builders: greedy minimal factorization for semilattices,
BFS / cube-doubling for groups, and the two-phase Clifford
construction.  The group search runs on the codes of the system's
element kernel, `GeneratorSystem.codec`, which compare as their elements
do, so every kernel finds the same words and emits the same SLP.

An SLP is a sequence of items, each Gen(i) (a generator reference),
Mul(i, j) or Inv(i) with strictly earlier operand indices, plus the
index of the item computing the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .formats import records
from .oracle import ELEMENT_CAP, ClosureCapExceeded
from .munn import clifford_member

BFS_THRESHOLD = 4096
CUBE_CAP = 10**5


class NotGenerated(Exception):
    """The target is not in the span of the generators."""


@dataclass(frozen=True)
class SLP:
    items: tuple  # of ("g", i) | ("m", i, j) | ("i", i)
    target: int

    def __len__(self):
        return len(self.items)

    def validate(self, n_gens):
        for pos, item in enumerate(self.items):
            problem = _item_problem(item, pos, n_gens)
            if problem is not None:
                raise ValueError("item %d: %s" % (pos, problem))
        if not (0 <= self.target < len(self.items)):
            raise ValueError("target index out of range")


def _item_problem(item, pos, n_gens):
    """Why `item` cannot be item `pos` of an SLP over n_gens generators
    (any number if None), or None."""
    kind = item[0]
    if kind == "g":
        return (None if n_gens is None or 0 <= item[1] < n_gens
                else "bad generator index")
    if kind in ("m", "i"):
        return (None if all(0 <= j < pos for j in item[1:])
                else "operand not earlier")
    return "unknown kind %r" % (kind,)


def slp_eval(gs, slp):
    """Evaluate over a GeneratorSystem (or anything with generators,
    mul, inv)."""
    gens = gs.generators
    slp.validate(len(gens))
    values = []
    for item in slp.items:
        if item[0] == "g":
            values.append(gens[item[1]])
        elif item[0] == "m":
            values.append(gs.mul(values[item[1]], values[item[2]]))
        else:
            values.append(gs.inv(values[item[1]]))
    return values[slp.target]


def slp_to_text(slp):
    lines = []
    for item in slp.items:
        if item[0] == "g":
            lines.append("g %d" % item[1])
        elif item[0] == "m":
            lines.append("m %d %d" % (item[1], item[2]))
        else:
            lines.append("inv %d" % item[1])
    lines.append("target %d" % slp.target)
    return "\n".join(lines) + "\n"


def slp_from_text(text):
    """The SLP of the text form of `slp_to_text`; tokens from a % on are
    a comment."""
    return slp_from_records(records(text))


def slp_from_records(lines, n_gens=None):
    """The SLP of (line number, tokens) records in the text form of
    `slp_to_text`, as `formats.records` reads them.  Every error names
    the record's line.  Generator indices are checked only against a
    given n_gens."""
    items = []
    target = None
    for lineno, parts in lines:
        try:
            if parts[0] == "g" and len(parts) == 2:
                item = ("g", int(parts[1]))
            elif parts[0] == "m" and len(parts) == 3:
                item = ("m", int(parts[1]), int(parts[2]))
            elif parts[0] == "inv" and len(parts) == 2:
                item = ("i", int(parts[1]))
            elif parts[0] == "target" and len(parts) == 2:
                target, target_line = int(parts[1]), lineno
                continue
            else:
                raise ValueError
        except ValueError:
            raise ValueError("line %d: cannot parse %r"
                             % (lineno, " ".join(parts)))
        problem = _item_problem(item, len(items), n_gens)
        if problem is not None:
            raise ValueError("line %d: %s" % (lineno, problem))
        items.append(item)
    if target is None:
        raise ValueError("missing target line")
    if not (0 <= target < len(items)):
        raise ValueError("line %d: target index out of range" % target_line)
    return SLP(tuple(items), target)


# -- semilattice -----------------------------------------------------------


def slp_semilattice(gs, e):
    """Greedy minimal factorization of an idempotent e over idempotent
    generators.  Length <= 2*ceil(log2(|<Sigma>|+1)).
    """
    gens = gs.generators
    mul = gs.mul
    for g in gens:
        if mul(g, g) != g:
            raise ValueError("generator %r is not idempotent" % (g,))
    if mul(e, e) != e:
        raise NotGenerated("target is not idempotent")
    # all generators above e; their product is e iff e is generated
    chosen = [i for i, g in enumerate(gens) if mul(e, g) == e]
    if not chosen:
        raise NotGenerated("no generator above the target")
    if _meet(gs, gens, chosen) != e:
        raise NotGenerated("target not in the generated semilattice")
    return _chain_slp(_greedy_deletion(gs, gens, chosen, e))


def _meet(gs, idempotents, chosen):
    """The product of the idempotents at the indices `chosen`, which
    must not be empty."""
    return reduce(gs.mul, [idempotents[i] for i in chosen])


def _greedy_deletion(gs, idempotents, chosen, e):
    """Drop indices from `chosen` in list order while the product of the
    idempotents at the rest stays e (the product of all of them)."""
    k = 0
    while k < len(chosen):
        if len(chosen) > 1:
            trial = chosen[:k] + chosen[k + 1:]
            if _meet(gs, idempotents, trial) == e:
                chosen = trial
                continue
        k += 1
    return chosen


# -- groups ----------------------------------------------------------------


def _chain_slp(word):
    """SLP for a non-empty product of generator indices."""
    items = [("g", word[0])]
    for letter in word[1:]:
        items.append(("g", letter))
        items.append(("m", len(items) - 2, len(items) - 1))
    return SLP(tuple(items), len(items) - 1)


def _identity_slp():
    return SLP((("g", 0), ("i", 0), ("m", 0, 1)), 2)


def slp_group(gs, g, cap=ELEMENT_CAP):
    """SLP for a group element; generic over the GeneratorSystem."""
    identity = gs.mul(gs.generators[0], gs.inv(gs.generators[0]))
    return _search(gs, gs.generators, identity, g, cap)


def _search(gs, gens, identity, target, cap):
    """slp_group_low over elements of gs, on gs.codec's codes."""
    ops = gs.codec
    return slp_group_low(list(map(ops.encode, gens)), ops.mul, ops.inv,
                         ops.encode(identity), ops.encode(target), cap)


def _over_cap(cap):
    return ClosureCapExceeded("group SLP search exceeded %d elements" % cap)


def slp_group_low(gens, mul, inv, identity, target, cap=ELEMENT_CAP):
    """BFS shortest word while the group stays small; cube-doubling
    beyond BFS_THRESHOLD elements (length O(log^2 |G|)).  Both enumerate
    group elements, and more than `cap` of them raise ClosureCapExceeded.
    """
    if target == identity:
        return _identity_slp()
    # breadth-first shortest words, generators in list order
    words = {identity: ()}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            w = words[x]
            for i, u in enumerate(gens):
                y = mul(x, u)
                if y not in words:
                    words[y] = w + (i,)
                    if y == target:
                        return _chain_slp(words[y])
                    if len(words) > cap:
                        raise _over_cap(cap)
                    nxt.append(y)
        if len(words) > BFS_THRESHOLD:
            return _cube_doubling(gens, mul, inv, identity, target, cap)
        frontier = nxt
    raise NotGenerated("target not in the generated group")


def _cube_doubling(gens, mul, inv, identity, target, cap):
    """Reachability-lemma construction: grow a cube C(h_1..h_k) whose
    difference set C^-1 C doubles until it absorbs the target; each new
    h is a first-found d*g outside the difference set.  A cube of more
    than CUBE_CAP elements raises ClosureCapExceeded.
    """
    # cube: element -> bitmask over h indices (product in index order)
    cube = {identity: 0}
    hdefs = []  # h_j = (mask1, mask2, gen index): cube[m1]^-1 cube[m2] * gen
    while True:
        if len(cube) > CUBE_CAP:
            raise ClosureCapExceeded("cube-doubling exceeded %d elements"
                                     % CUBE_CAP)
        diff = {}
        for x1, m1 in cube.items():
            ix1 = inv(x1)
            for x2, m2 in cube.items():
                d = mul(ix1, x2)
                if d not in diff:
                    diff[d] = (m1, m2)
                    if len(diff) > cap:
                        raise _over_cap(cap)
        if target in diff:
            m1, m2 = diff[target]
            return _emit_cube_slp(hdefs, (m1, m2, None), gens)
        new_h = None
        for d, (m1, m2) in diff.items():
            for i in range(len(gens)):
                h = mul(d, gens[i])
                if h not in diff:
                    new_h = (h, (m1, m2, i))
                    break
            if new_h:
                break
        if new_h is None:
            raise NotGenerated("target not in the generated group")
        h, hdef = new_h
        j = len(hdefs)
        hdefs.append(hdef)
        bit = 1 << j
        for x, m in list(cube.items()):
            cube[mul(x, h)] = m | bit


def _emit_cube_slp(hdefs, final, gens):
    items = [("g", 0), ("i", 0), ("m", 0, 1)]  # identity at index 2
    identity_item = 2
    gen_item = {}
    h_item = [None] * len(hdefs)
    mask_item = {}

    def emit_gen(i):
        if i not in gen_item:
            items.append(("g", i))
            gen_item[i] = len(items) - 1
        return gen_item[i]

    def emit_h(j):
        if h_item[j] is None:
            m1, m2, gi = hdefs[j]
            d = emit_diff(m1, m2)
            items.append(("m", d, emit_gen(gi)))
            h_item[j] = len(items) - 1
        return h_item[j]

    def emit_mask(mask):
        if mask == 0:
            return identity_item
        if mask not in mask_item:
            j = 0
            acc = None
            m = mask
            while m:
                if m & 1:
                    hj = emit_h(j)
                    if acc is None:
                        acc = hj
                    else:
                        items.append(("m", acc, hj))
                        acc = len(items) - 1
                j += 1
                m >>= 1
            mask_item[mask] = acc
        return mask_item[mask]

    def emit_diff(m1, m2):
        a = emit_mask(m1)
        items.append(("i", a))
        ia = len(items) - 1
        b = emit_mask(m2)
        items.append(("m", ia, b))
        return len(items) - 1

    m1, m2, gi = final
    d = emit_diff(m1, m2)
    if gi is not None:
        items.append(("m", d, emit_gen(gi)))
        d = len(items) - 1
    return SLP(tuple(items), d)


# -- Clifford --------------------------------------------------------------


def slp_clifford(gs, t, cap=ELEMENT_CAP):
    """Two phases: an SLP for the idempotent t t~ over the generator
    idempotents s s~, then a group SLP in the H-class of t t~ (under
    `cap`), both rewritten over the original generators.  On the pb
    model t is sifted through the H-class's BSGS (`munn.clifford_member`)
    before phase 2, so a non-member is answered without a search.
    """
    gens = gs.generators
    mul = gs.mul
    inv = gs.inv
    e = mul(t, inv(t))
    # phase 1: greedy factorization of e over {s s~ : s s~ >= e}
    idems = [mul(u, inv(u)) for u in gens]
    eligible = [i for i, f in enumerate(idems) if mul(e, f) == e]
    if not eligible:
        raise NotGenerated("no generator idempotent above t t~")
    if _meet(gs, idems, eligible) != e:
        raise NotGenerated("t t~ not in the idempotent span; t not generated")
    items = []
    acc = None
    for i in _greedy_deletion(gs, idems, eligible, e):
        items.append(("g", i))
        items.append(("i", len(items) - 1))
        items.append(("m", len(items) - 2, len(items) - 1))
        f_item = len(items) - 1
        if acc is not None:
            items.append(("m", acc, f_item))
            f_item = len(items) - 1
        acc = f_item
    e_item = acc

    if mul(t, t) == t:
        if t != e:
            raise NotGenerated("idempotent target differs from its t t~")
        return SLP(tuple(items), e_item)

    if gs.model == "pb" and not clifford_member(gs, t):
        raise NotGenerated("target not in the generated group")
    # phase 2: group SLP over Sigma' = {e s : s s~ >= e}
    prime = [mul(e, gens[i]) for i in eligible]
    sub = _search(gs, prime, e, t, cap)
    # splice, remapping Gen(j) to Mul(e_item, Gen(eligible[j]))
    offset = {}
    for pos, item in enumerate(sub.items):
        if item[0] == "g":
            items.append(("g", eligible[item[1]]))
            items.append(("m", e_item, len(items) - 1))
        elif item[0] == "m":
            items.append(("m", offset[item[1]], offset[item[2]]))
        else:
            items.append(("i", offset[item[1]]))
        offset[pos] = len(items) - 1
    return SLP(tuple(items), offset[sub.target])
