"""Boolean frames, frame constructions, and the ten equational properties.

A frame is a Boolean algebra plus one arbitrary unary operation f.  Finite
frames store f as a full lookup table (numpy array over bit encodings), so
exhaustive scans vectorize; symbolic frames carry a rule mapping eventually
periodic sets to eventually periodic sets.  Frames are immutable after
construction and every check here is a pure function.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import Element, FiniteAlgebra, UsageError, ValidationError
from .periodic import (EMPTY, MULT4, NATS, EPSet, classify,
                       co_initial_segment_set, ep_join, ep_neg, finite_set,
                       initial_segment_set, subadditive_case_pairs)


@dataclass(frozen=True)
class Exhaustive:
    """Scan the whole carrier; finite frames only."""


@dataclass(frozen=True)
class Sampled:
    """Seeded sampling; the only strategy available on symbolic frames."""

    count: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise UsageError(f"sample count must be at least 1, got {self.count}")


EXHAUSTIVE = Exhaustive()


@dataclass(frozen=True)
class Verdict:
    status: str  # "holds" | "fails" | "holds_on_sample"
    witness: dict | None = None

    @property
    def holds(self) -> bool:
        return self.status in ("holds", "holds_on_sample")

    @property
    def definite(self) -> bool:
        return self.status in ("holds", "fails")


class FiniteFrame:
    """Finite Boolean frame: powerset algebra + total operation table."""

    is_finite = True

    def __init__(self, alg: FiniteAlgebra, table: np.ndarray, name: str = ""):
        table = np.asarray(table, dtype=np.uint32)
        if table.shape != (alg.size,):
            raise ValidationError(
                f"operation table must have {alg.size} entries, got {table.shape}"
            )
        bad = np.nonzero(table > alg.mask)[0]
        if bad.size:
            shown = ", ".join(f"{int(b):#x}" for b in bad[:5])
            raise ValidationError(f"table outputs escape the carrier at inputs {shown}")
        self.alg = alg
        self.table = table
        self.name = name or f"frame[{alg.atom_count} atoms]"

    def __repr__(self) -> str:
        return f"FiniteFrame({self.name!r}, atoms={self.alg.atom_count})"

    def apply(self, x: Element) -> Element:
        if not isinstance(x, Element):
            raise UsageError(f"finite frames act on Elements, got {type(x).__name__}")
        self.alg._own(x)
        return Element(int(self.table[x.bits]), self.alg.atom_count)


class SymbolicFrame:
    """Frame over the eventually periodic subsets of N, given by a rule."""

    is_finite = False

    def __init__(self, name: str, rule, params: dict | None = None):
        self.name = name
        self._rule = rule
        self.params = dict(params or {})

    def __repr__(self) -> str:
        return f"SymbolicFrame({self.name!r})"

    def apply(self, s: EPSet) -> EPSet:
        if not isinstance(s, EPSet):
            raise UsageError(f"symbolic frames act on EPSets, got {type(s).__name__}")
        return self._rule(s)


def finite_frame(alg: FiniteAlgebra, table: dict, name: str = "") -> FiniteFrame:
    """Frame from an explicit Element -> Element mapping (validated total)."""
    arr = np.zeros(alg.size, dtype=np.uint32)
    seen = np.zeros(alg.size, dtype=bool)
    for x, y in table.items():
        alg._own(x, y)
        arr[x.bits] = y.bits
        seen[x.bits] = True
    missing = np.nonzero(~seen)[0]
    if missing.size:
        shown = ", ".join(f"{int(b):#x}" for b in missing[:5])
        more = "" if missing.size <= 5 else f" (+{missing.size - 5} more)"
        raise ValidationError(f"table is partial; missing inputs {shown}{more}")
    return FiniteFrame(alg, arr, name)


def identity_frame(atom_count: int) -> FiniteFrame:
    alg = FiniteAlgebra(atom_count)
    return FiniteFrame(alg, np.arange(alg.size, dtype=np.uint32), f"id[{atom_count}]")


def constant_zero_frame(atom_count: int) -> FiniteFrame:
    alg = FiniteAlgebra(atom_count)
    return FiniteFrame(alg, np.zeros(alg.size, dtype=np.uint32), f"zero[{atom_count}]")


def negation_frame(atom_count: int) -> FiniteFrame:
    """f(x) = -x; the operation is Boole-definable."""
    alg = FiniteAlgebra(atom_count)
    table = np.arange(alg.size, dtype=np.uint32) ^ np.uint32(alg.mask)
    return FiniteFrame(alg, table, f"negation[{atom_count}]")


def neg_op(frame: FiniteFrame) -> FiniteFrame:
    """Antitone companion: replace f by the complement of f."""
    table = frame.table ^ np.uint32(frame.alg.mask)
    return FiniteFrame(frame.alg, table, f"neg-op({frame.name})")


# ---------------------------------------------------------------------------
# Kripke frames and complex algebras


@dataclass(frozen=True)
class KripkeFrame:
    worlds: tuple
    relation: frozenset

    def __post_init__(self):
        if len(set(self.worlds)) != len(self.worlds):
            raise ValidationError("duplicate worlds")
        ws = set(self.worlds)
        for pair in self.relation:
            if len(pair) != 2 or pair[0] not in ws or pair[1] not in ws:
                raise ValidationError(f"relation pair {pair!r} escapes the worlds")


def complex_algebra(k: KripkeFrame) -> FiniteFrame:
    """Powerset frame of a Kripke frame; f(S) = {x : exists y in S, x R y}."""
    n = len(k.worlds)
    alg = FiniteAlgebra(n)  # enforces the atom cap
    idx = {w: i for i, w in enumerate(k.worlds)}
    pre_mask = [0] * n
    for x, y in k.relation:
        pre_mask[idx[y]] |= 1 << idx[x]
    table = np.zeros(alg.size, dtype=np.uint32)
    encodings = np.arange(alg.size, dtype=np.uint32)
    for i in range(n):
        table[((encodings >> np.uint32(i)) & 1).astype(bool)] |= np.uint32(pre_mask[i])
    return FiniteFrame(alg, table, "complex")


def wheel_kripke(n: int) -> KripkeFrame:
    """n-cycle with tolerance-1 adjacency plus a hub related to everything."""
    if n < 5:
        raise UsageError("wheel frames defined for n >= 5")
    rel = {(x, y) for x in range(n) for y in range(n) if (x - y) % n in (0, 1, n - 1)}
    rel |= {("h", "h")}
    rel |= {("h", x) for x in range(n)} | {(x, "h") for x in range(n)}
    return KripkeFrame(tuple(range(n)) + ("h",), frozenset(rel))


def wheel(n: int) -> FiniteFrame:
    frame = complex_algebra(wheel_kripke(n))
    frame.name = f"wheel {n}"
    return frame


# ---------------------------------------------------------------------------
# Product-style constructions


def frame_product(f: FiniteFrame, g: FiniteFrame) -> FiniteFrame:
    """Direct product; the operation acts componentwise."""
    na, nb = f.alg.atom_count, g.alg.atom_count
    alg = FiniteAlgebra(na + nb)
    table = ((f.table.astype(np.uint32) << np.uint32(nb))[:, None]
             | g.table[None, :]).ravel()
    return FiniteFrame(alg, table, f"product({f.name},{g.name})")


def star(f: FiniteFrame) -> FiniteFrame:
    """Square the frame; pairs with a zero coordinate map componentwise,
    every other pair goes to the top."""
    n = f.alg.atom_count
    alg = FiniteAlgebra(2 * n)
    size = f.alg.size
    fa = f.table
    table = np.full(size * size, np.uint32(alg.mask), dtype=np.uint32)
    table[:size] = (np.uint32(fa[0]) << np.uint32(n)) | fa          # <0,b>
    table[::size] = (fa.astype(np.uint32) << np.uint32(n)) | fa[0]  # <a,0>
    return FiniteFrame(alg, table, f"star({f.name})")


def flat(f: FiniteFrame) -> FiniteFrame:
    """Square the frame; border pairs (a zero or top coordinate) map
    componentwise, interior pairs go to the top.  Cases apply first-match
    in the order <a,0>, <0,a>, <a,1>, <1,a>, interior."""
    n = f.alg.atom_count
    alg = FiniteAlgebra(2 * n)
    size = f.alg.size
    top = size - 1
    fa = f.table.astype(np.uint32)
    shifted = fa << np.uint32(n)
    table = np.full(size * size, np.uint32(alg.mask), dtype=np.uint32)
    # assign in reverse precedence so earlier cases win
    table[top * size:(top + 1) * size] = (np.uint32(top) << np.uint32(n)) | fa
    table[top::size] = shifted | np.uint32(top)
    table[:size] = fa
    table[::size] = shifted
    return FiniteFrame(alg, table, f"flat({f.name})")


def _sharp_positions(size: int) -> np.ndarray:
    """Greedy pairing of nontrivial elements: ascending encodings, each
    first-seen u immediately followed by its complement, so positions
    2i and 2i+1 are complementary."""
    mask = size - 1
    pos = np.full(size, -1, dtype=np.int64)
    nxt = 0
    for u in range(1, mask):
        if pos[u] < 0:
            pos[u] = nxt
            pos[mask ^ u] = nxt + 1
            nxt += 2
    return pos


def sharp(f: FiniteFrame) -> FiniteFrame:
    """Square the frame with complement-symmetric borders and a two-valued
    interior.  Input must be normal, unit-preserving, with >= 8 elements.

    Interior rule: cell <a,b> is the top pair iff pos(a)//2 + pos(b) is
    even, else the bottom pair, where pos is the canonical complement
    pairing.  Complementing a flips nothing in pos(a)//2 and complementing
    b flips the parity, so f(-z) = -f(z) across the whole carrier; rows
    vary with pos(b) and columns with pos(a)//2, so every interior row and
    column attains both values.  Both facts are re-verified by scan.
    """
    n = f.alg.atom_count
    size = f.alg.size
    topa = size - 1
    if int(f.table[0]) != 0 or int(f.table[topa]) != topa:
        raise UsageError("sharp construction needs a normal, unit-preserving frame")
    if size < 8:
        raise UsageError("sharp construction needs at least 8 elements")
    alg = FiniteAlgebra(2 * n)
    full = np.uint32(alg.mask)
    fa = f.table.astype(np.uint32)
    neg_f_neg = np.uint32(topa) ^ fa[np.uint32(topa) ^ np.arange(size, dtype=np.uint32)]
    pos = _sharp_positions(size)
    parity = ((pos // 2)[:, None] + pos[None, :]) & 1
    tbl2 = np.where(parity == 0, full, np.uint32(0)).astype(np.uint32)
    tbl2[0, :] = fa                                                  # <0,b>
    tbl2[topa, :] = (np.uint32(topa) << np.uint32(n)) | neg_f_neg    # <1,b>
    tbl2[:, 0] = fa << np.uint32(n)                                  # <a,0>
    tbl2[:, topa] = (neg_f_neg << np.uint32(n)) | np.uint32(topa)    # <a,1>
    table = tbl2.ravel()

    # post-construction scans; failure would be a construction bug
    zs = np.arange(alg.size, dtype=np.uint32)
    if not bool((table[full ^ zs] == (full ^ table)).all()):
        raise RuntimeError("internal error: sharp output is not complement-symmetric")
    mid = tbl2[1:topa, 1:topa]
    row_ok = (mid == 0).any(axis=1) & (mid == full).any(axis=1)
    col_ok = (mid == 0).any(axis=0) & (mid == full).any(axis=0)
    if not (bool(row_ok.all()) and bool(col_ok.all())):
        raise RuntimeError("internal error: sharp interior misses a row/column value")
    return FiniteFrame(alg, table, f"sharp({f.name})")


# ---------------------------------------------------------------------------
# Symbolic families over the powerset of N

_NEG_MULT4 = ep_neg(MULT4)


def _rule_extensive(x_set: EPSet, s: EPSet) -> EPSet:
    tag = classify(s)
    if tag.variant == "empty":
        return finite_set((0,))
    if tag.variant == "initial_segment":
        return initial_segment_set(tag.param + 1)
    if tag.variant == "two_e":
        return NATS
    if tag.variant == "co_initial_segment" and x_set.member(tag.param):
        return NATS
    return s


def _rule_contractive(x_set: EPSet, s: EPSet) -> EPSet:
    # order-dual of the extensive rule: h(S) = -f(-S)
    if s == NATS:
        return co_initial_segment_set(0)
    tag = classify(s)
    if tag.variant == "co_initial_segment":
        return co_initial_segment_set(tag.param + 1)
    if s == _NEG_MULT4:
        return EMPTY
    if tag.variant == "initial_segment" and x_set.member(tag.param - 1):
        return EMPTY
    return s


def _rule_subadditive(x_set: EPSet, s: EPSet) -> EPSet:
    tag = classify(s)
    if tag.variant == "empty":
        return finite_set((0,))
    if tag.variant == "initial_segment":
        return initial_segment_set(tag.param + 1)
    if tag.variant == "e_star":
        return s
    if tag.variant == "co_singleton" and x_set.member(tag.param):
        return s
    if tag.variant == "co_initial_segment" and tag.param == 0 and x_set.member(0):
        return s  # -{0} is also the co-singleton at 0
    if tag.variant == "finite":
        return ep_join(s, finite_set((tag.param + 1,)))
    return NATS


_FAMILY_RULES = {"A": _rule_extensive, "B": _rule_contractive,
                 "C": _rule_subadditive}


def family_frame(family: str, x: EPSet) -> SymbolicFrame:
    """Symbolic frame over P(N) from the extensive ("A"), contractive ("B"),
    or subadditive ("C") family, parameterized by an eventually periodic set.
    """
    if family not in _FAMILY_RULES:
        raise UsageError(f"unknown family {family!r}; expected A, B, or C")
    if not isinstance(x, EPSet):
        raise UsageError("family parameter must be an EPSet")
    rule = _FAMILY_RULES[family]
    return SymbolicFrame(f"family {family}", lambda s: rule(x, s), {"x": x})


# ---------------------------------------------------------------------------
# Property checking: each property is an identity, decided by check_identity


# x <= y is written so that no compound side repeats: x & y = x, x | y = y,
# or x & -y = 0
PROPERTY_IDENTITIES = {
    "normal": "f(0) = 0",
    "unit_preserving": "f(1) = 1",
    "additive": "f(x | y) = f(x) | f(y)",
    "subadditive": "f(x | y) & -(f(x) | f(y)) = 0",
    "monotone": "(f(x) | f(y)) & -f(x | y) = 0",
    "extensive": "x & f(x) = x",
    "contractive": "f(x) | x = x",
    "idempotent": "f(f(x)) = f(x)",
    "semi_complemented": "f(-x) = -f(x)",
    "symmetric": "x & f(-f(x)) = 0",
}
PROPERTIES = tuple(PROPERTY_IDENTITIES)


@functools.cache
def _property_identity(prop: str):
    from .terms import parse_identity  # terms imports this module

    return parse_identity(PROPERTY_IDENTITIES[prop])


def check_property(frame, prop: str, strategy=EXHAUSTIVE) -> Verdict:
    """Decide a property by checking its identity in `PROPERTY_IDENTITIES`.

    Verdicts and witnesses are those of `check_identity`.  On a symbolic
    frame the subadditive check first tries the case pairs of
    `subadditive_case_pairs`, then samples the rest of `strategy.count`.
    """
    from .terms import check_identity

    if prop not in PROPERTY_IDENTITIES:
        raise UsageError(f"unknown property {prop!r}")
    first = ()
    if prop == "subadditive" and isinstance(frame, SymbolicFrame):
        pairs = subadditive_case_pairs(frame.params.get("x", finite_set((3, 5))))
        first = [{"x": a, "y": b} for a, b in pairs]
    return check_identity(frame, _property_identity(prop), strategy, _first=first)


def flat_condition(frame: FiniteFrame) -> bool:
    """Hypotheses used for simplicity of the flat construction: normal,
    unit-preserving, two nonzero elements with disjoint f-images, and no
    nonzero element annihilated by f."""
    t = frame.table
    mask = frame.alg.mask
    if int(t[0]) != 0 or int(t[mask]) != mask:
        return False
    if (t[1:] == 0).any():
        return False
    imgs = t[1:]
    for a in range(1, frame.alg.size):
        if ((imgs & np.uint32(t[a])) == 0).any():
            return True
    return False
