"""Reference semantics that the benchmark checks cep-lab's outputs against.

Everything here is plain numpy or int code written from the definitions
(operation tables over bit-pattern carriers, congruential elements,
relativization as the term language desugars it, eventually periodic sets as
lassos).  It never calls cep_lab, so a kernel rewrite that changes a verdict
or a witness disagrees with it.
"""

from __future__ import annotations

import math
from itertools import product as cartesian
from typing import NamedTuple

import numpy as np

# ---------------------------------------------------------------------------
# Finite frames: an operation table `t` of uint32 over the carrier 0..2^n-1.


def complex_table(n: int, edges) -> np.ndarray:
    """f(S) = {x : some y in S with x R y}, worlds numbered 0..n-1."""
    pre = [0] * n
    for x, y in edges:
        pre[y] |= 1 << x
    xs = np.arange(1 << n, dtype=np.uint32)
    t = np.zeros(1 << n, dtype=np.uint32)
    for i in range(n):
        t[((xs >> np.uint32(i)) & np.uint32(1)).astype(bool)] |= np.uint32(pre[i])
    return t


def product_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise operation on pairs; the first factor takes the high bits."""
    nb = len(b).bit_length() - 1
    return ((a.astype(np.uint32) << np.uint32(nb))[:, None] | b[None, :]).ravel()


def _square(fa: np.ndarray):
    size = len(fa)
    n = size.bit_length() - 1
    full = np.uint32((1 << 2 * n) - 1)
    return size, n, full, fa.astype(np.uint32)


def star_table(fa: np.ndarray) -> np.ndarray:
    """<0,b> -> <f0,fb>, <a,0> -> <fa,f0>, every other pair -> top."""
    size, n, full, fa = _square(fa)
    t = np.full((size, size), full, dtype=np.uint32)
    t[0, :] = (fa[0] << np.uint32(n)) | fa
    t[:, 0] = (fa << np.uint32(n)) | fa[0]
    return t.ravel()


def flat_table(fa: np.ndarray) -> np.ndarray:
    """First match of <a,0> -> <fa,0>, <0,b> -> <0,fb>, <a,1> -> <fa,1>,
    <1,b> -> <1,fb>; interior pairs -> top."""
    size, n, full, fa = _square(fa)
    top = np.uint32(size - 1)
    t = np.full((size, size), full, dtype=np.uint32)
    t[size - 1, :] = (top << np.uint32(n)) | fa
    t[:, size - 1] = (fa << np.uint32(n)) | top
    t[0, :] = fa
    t[:, 0] = fa << np.uint32(n)
    return t.ravel()


def sharp_table(fa: np.ndarray) -> np.ndarray:
    """Borders <0,b> -> <0,fb>, <1,b> -> <1,-f-b>, <a,0> -> <fa,0>,
    <a,1> -> <-f-a,1>; interior <a,b> -> top iff pos(a)//2 + pos(b) is even,
    where pos pairs each nontrivial element, in ascending order of first
    appearance, with its complement."""
    size, n, full, fa = _square(fa)
    top = size - 1
    pos = np.zeros(size, dtype=np.int64)
    nxt = 0
    placed = set()
    for u in range(1, top):
        if u not in placed:
            pos[u], pos[top ^ u] = nxt, nxt + 1
            placed.update((u, top ^ u))
            nxt += 2
    dual = np.uint32(top) ^ fa[np.uint32(top) ^ np.arange(size, dtype=np.uint32)]
    t = np.where(((pos // 2)[:, None] + pos[None, :]) % 2 == 0,
                 full, np.uint32(0)).astype(np.uint32)
    t[0, :] = fa
    t[top, :] = (np.uint32(top) << np.uint32(n)) | dual
    t[:, 0] = fa << np.uint32(n)
    t[:, top] = (dual << np.uint32(n)) | np.uint32(top)
    return t.ravel()


def congruential_elements(t: np.ndarray) -> list[int]:
    """Every congruential element, by the definition, over the whole carrier."""
    xs = np.arange(len(t), dtype=np.uint32)
    out = []
    for a in range(len(t)):
        ua = np.uint32(a)
        if bool(((t & ua) == (t[xs & ua] & ua)).all()):
            out.append(a)
    return out


def largest_congruential_below(t: np.ndarray, c: int) -> int:
    """Decreasing fixpoint a -> a & AND_x (f(x) <-> f(x & a)) from c."""
    mask = np.uint32(len(t) - 1)
    xs = np.arange(len(t), dtype=np.uint32)
    a = c
    while True:
        new = a & int(np.bitwise_and.reduce(mask ^ (t ^ t[xs & np.uint32(a)])))
        if new == a:
            return a
        a = new


def is_simple(t: np.ndarray) -> bool:
    mask = len(t) - 1
    return all(largest_congruential_below(t, mask ^ (1 << i)) == 0
               for i in range(mask.bit_length()))


def closure(t: np.ndarray, gens) -> frozenset:
    """Subalgebra generated by gens: close {0, 1, gens} under -, & and f."""
    mask = len(t) - 1
    elems = {0, mask, *gens}
    while True:
        grown = set(elems)
        for u in elems:
            grown.add(mask ^ u)
            grown.add(int(t[u]))
            grown.update(u & v for v in elems)
        if grown == elems:
            return frozenset(elems)
        elems = grown


def is_subalgebra(t: np.ndarray, elems) -> bool:
    mask = len(t) - 1
    s = set(elems)
    return (0 in s and mask in s
            and all(mask ^ u in s and int(t[u]) in s for u in s)
            and all(u & v in s for u in s for v in s))


def _atom_partitions(n: int):
    """Set partitions of the atoms 0..n-1, as lists of block bitmasks."""
    def rec(i, blocks):
        if i == n:
            yield list(blocks)
            return
        for k in range(len(blocks)):
            blocks[k] |= 1 << i
            yield from rec(i + 1, blocks)
            blocks[k] &= ~(1 << i)
        blocks.append(1 << i)
        yield from rec(i + 1, blocks)
        blocks.pop()
    yield from rec(0, [])


def subalgebras(t: np.ndarray) -> list[frozenset]:
    """Every subalgebra: each Boolean subalgebra is spanned by a partition of
    the atoms; keep those closed under f."""
    n = (len(t) - 1).bit_length()
    out = []
    for blocks in _atom_partitions(n):
        elems = frozenset(sum(b for b, on in zip(blocks, pick) if on)
                          for pick in cartesian((0, 1), repeat=len(blocks)))
        if all(int(t[u]) in elems for u in elems):
            out.append(elems)
    return out


def relatively_congruential(t: np.ndarray, elems, a: int) -> bool:
    return all(int(t[x]) & a == int(t[x & a]) & a for x in elems)


def restriction_breaks(t: np.ndarray, elems, a: int, b: int) -> bool:
    """b shows that the least extension of the subalgebra congruence at `a`
    restricts back to a strictly larger one: b >= a* and not b >= a."""
    a_star = largest_congruential_below(t, a)
    return b in elems and b & a_star == a_star and b & a != a


def cep_holds(t: np.ndarray) -> bool:
    """No subalgebra congruence fails to extend, over every subalgebra."""
    for elems in subalgebras(t):
        for a in elems:
            if relatively_congruential(t, elems, a) and any(
                    restriction_breaks(t, elems, a, b) for b in elems):
                return False
    return True


# ---------------------------------------------------------------------------
# Term evaluation over a Boolean structure `o`.  Join, arrow and the
# biconditional are defined from complement and meet exactly as the term
# language desugars them, so relativized evaluation needs only a different
# complement and top.


class _Ops:
    def join(self, a, b):
        return self.neg(self.meet(self.neg(a), self.neg(b)))

    def bicond(self, a, b):
        return self.meet(self.neg(self.meet(a, self.neg(b))),
                         self.neg(self.meet(b, self.neg(a))))

    def leq(self, a, b):
        return self.eq(self.meet(a, b), a)

    def var(self, x):
        return x


class BitOps(_Ops):
    """Absolute Boolean frame over encodings (ints or numpy arrays)."""

    def __init__(self, table: np.ndarray):
        self.table = table
        self.mask = np.uint32(len(table) - 1)
        self.zero = np.uint32(0)
        self.one = self.mask

    def f(self, a):
        return self.table[a]

    def neg(self, a):
        return self.mask ^ a

    def meet(self, a, b):
        return a & b

    def eq(self, a, b):
        return a == b


class RelOps(BitOps):
    """Relativization at w: variables meet w, complement is taken inside w,
    top is w, and f applies unchanged."""

    def __init__(self, table: np.ndarray, w):
        super().__init__(table)
        self.w = np.uint32(w) if np.ndim(w) == 0 else w
        self.one = self.w

    def neg(self, a):
        return self.w & (self.mask ^ a)

    def var(self, x):
        return x & self.w


def fpow(o, k, a):
    for _ in range(k):
        a = o.f(a)
    return a


# (text, variables, evaluator) -- the identity pool of the verification
# suite.  The evaluator returns (lhs, rhs) under the structure `o`.
IDENTITIES = (
    ("f(0) = 0", "", lambda o, x, y: (o.f(o.zero), o.zero)),
    ("f(1) = 1", "", lambda o, x, y: (o.f(o.one), o.one)),
    ("f(x) = x", "x", lambda o, x, y: (o.f(x), x)),
    ("f(f(x)) = f(x)", "x", lambda o, x, y: (o.f(o.f(x)), o.f(x))),
    ("x & f(x) = x", "x", lambda o, x, y: (o.meet(x, o.f(x)), x)),
    ("f(x) & x = f(x)", "x", lambda o, x, y: (o.meet(o.f(x), x), o.f(x))),
    ("f(x | y) = f(x) | f(y)", "xy",
     lambda o, x, y: (o.f(o.join(x, y)), o.join(o.f(x), o.f(y)))),
    ("f(x | y) & (f(x) | f(y)) = f(x | y)", "xy",
     lambda o, x, y: (o.meet(o.f(o.join(x, y)), o.join(o.f(x), o.f(y))),
                      o.f(o.join(x, y)))),
    ("(f(x) | f(y)) & f(x | y) = f(x) | f(y)", "xy",
     lambda o, x, y: (o.meet(o.join(o.f(x), o.f(y)), o.f(o.join(x, y))),
                      o.join(o.f(x), o.f(y)))),
    ("f(-x) = -f(x)", "x", lambda o, x, y: (o.f(o.neg(x)), o.neg(o.f(x)))),
    ("x & -f(-f(x)) = x", "x",
     lambda o, x, y: (o.meet(x, o.neg(o.f(o.neg(o.f(x))))), x)),
    ("f(f(x)) = 1", "x", lambda o, x, y: (o.f(o.f(x)), o.one)),
)

IDENTITY_TEXT = {text: (names, fn) for text, names, fn in IDENTITIES}

# property name -> (arity, predicate over the structure `o`)
PROPERTIES = {
    "normal": (0, lambda o: o.eq(o.f(o.zero), o.zero)),
    "unit_preserving": (0, lambda o: o.eq(o.f(o.one), o.one)),
    "additive": (2, lambda o, x, y: o.eq(o.f(o.join(x, y)),
                                         o.join(o.f(x), o.f(y)))),
    "subadditive": (2, lambda o, x, y: o.leq(o.f(o.join(x, y)),
                                             o.join(o.f(x), o.f(y)))),
    "monotone": (2, lambda o, x, y: o.leq(o.join(o.f(x), o.f(y)),
                                          o.f(o.join(x, y)))),
    "extensive": (1, lambda o, x: o.leq(x, o.f(x))),
    "contractive": (1, lambda o, x: o.leq(o.f(x), x)),
    "idempotent": (1, lambda o, x: o.eq(o.f(o.f(x)), o.f(x))),
    "semi_complemented": (1, lambda o, x: o.eq(o.f(o.neg(x)), o.neg(o.f(x)))),
    "symmetric": (1, lambda o, x: o.leq(x, o.neg(o.f(o.neg(o.f(x)))))),
}


def identity_values(o, text: str, asgn: dict):
    """(lhs, rhs) of a pool identity under `asgn` (variable -> value)."""
    names, fn = IDENTITY_TEXT[text]
    args = [o.var(asgn[v]) for v in names]
    args += [None] * (2 - len(args))
    return fn(o, *args)


def identity_holds_at(o, text: str, asgn: dict):
    lhs, rhs = identity_values(o, text, asgn)
    return o.eq(lhs, rhs)


def fresh_var(taken, base: str) -> str:
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def clause_holds_at(table: np.ndarray, mode: str, text: str, k: int,
                    asgn: dict):
    """Value of the transfer clause (disjunction of its three identities)
    under `asgn`, which binds the identity's variables and the probe."""
    names, _ = IDENTITY_TEXT[text]
    y = fresh_var(set(names), "y")
    o = BitOps(table)
    v = asgn[y]
    if mode == "psi":
        probe = fpow(o, k, v)
        rel = RelOps(table, probe)
        return ((probe == o.one) | (probe == o.zero)
                | identity_holds_at(rel, text, asgn))
    rel = RelOps(table, v)
    lhs, rhs = identity_values(rel, text, asgn)
    body = o.meet(o.meet(o.bicond(o.f(v), v), o.bicond(o.f(o.neg(v)), o.neg(v))),
                  o.bicond(lhs, rhs))
    return (o.f(v) == o.one) | (o.f(o.neg(v)) == o.one) | (body == o.one)


def clause_variables(text: str) -> list[str]:
    names = list(IDENTITY_TEXT[text][0])
    return sorted(names + [fresh_var(set(names), "y")])


def clause_holds_everywhere(table: np.ndarray, mode: str, text: str,
                            k: int) -> bool:
    """Brute force: loop over the first variable, broadcast the others."""
    names = clause_variables(text)
    xs = np.arange(len(table), dtype=np.uint32)
    shapes = [(-1, 1), (1, -1)]
    rest = {v: xs.reshape(shapes[i]) if len(names) == 3 else xs
            for i, v in enumerate(names[1:])}
    for x0 in range(len(table)):
        asgn = {names[0]: np.uint32(x0), **rest}
        if not bool(np.all(clause_holds_at(table, mode, text, k, asgn))):
            return False
    return True


# ---------------------------------------------------------------------------
# Eventually periodic sets as lassos: membership of n is bit n of `bits`
# for n < t + p, and repeats with period p from t on.


class Lasso(NamedTuple):
    t: int
    p: int
    bits: int


def lasso(s) -> Lasso:
    """Read an EPSet's fields (modulus, residues, exceptions) as a lasso."""
    exc = dict(s.exceptions)
    t = s.exceptions[-1][0] + 1 if s.exceptions else 0
    bits = 0
    for n in range(t + s.modulus):
        if exc.get(n, n % s.modulus in s.residues):
            bits |= 1 << n
    return Lasso(t, s.modulus, bits)


def member(a: Lasso, n: int) -> bool:
    if n >= a.t:
        n = a.t + (n - a.t) % a.p
    return bool(a.bits >> n & 1)


def _window(a: Lasso, t: int, p: int) -> int:
    return sum(1 << n for n in range(t + p) if member(a, n))


def _aligned(a: Lasso, b: Lasso):
    t, p = max(a.t, b.t), math.lcm(a.p, b.p)
    return t, p, _window(a, t, p), _window(b, t, p)


def ep_meet(a: Lasso, b: Lasso) -> Lasso:
    t, p, x, y = _aligned(a, b)
    return Lasso(t, p, x & y)


def ep_join(a: Lasso, b: Lasso) -> Lasso:
    t, p, x, y = _aligned(a, b)
    return Lasso(t, p, x | y)


def ep_bicond(a: Lasso, b: Lasso) -> Lasso:
    t, p, x, y = _aligned(a, b)
    return Lasso(t, p, ~(x ^ y) & ((1 << t + p) - 1))


def ep_neg(a: Lasso) -> Lasso:
    return Lasso(a.t, a.p, ~a.bits & ((1 << a.t + a.p) - 1))


def ep_eq(a: Lasso, b: Lasso) -> bool:
    _, _, x, y = _aligned(a, b)
    return x == y


def is_finite(a: Lasso) -> bool:
    return a.bits >> a.t == 0


def is_cofinite(a: Lasso) -> bool:
    return a.bits >> a.t == (1 << a.p) - 1


def members_below_tail(a: Lasso) -> list[int]:
    return [n for n in range(a.t) if a.bits >> n & 1]


EMPTY = Lasso(0, 1, 0)
NATS = Lasso(0, 1, 1)
EVENS = Lasso(0, 2, 0b01)
ODDS = Lasso(0, 2, 0b10)
MULT4 = Lasso(0, 4, 0b0001)


def finite(members) -> Lasso:
    members = set(members)
    t = max(members) + 1 if members else 0
    return Lasso(t, 1, sum(1 << n for n in members))


def cofinite(non_members) -> Lasso:
    return ep_neg(finite(non_members))


def shape(s: Lasso):
    """(variant, param) as the symbolic family rules read a set."""
    odd_inf = not is_finite(ep_meet(s, ODDS))
    if is_finite(s):
        ms = members_below_tail(s)
        if not ms:
            return "empty", None
        if ms == list(range(len(ms))):
            return "initial_segment", len(ms)
        return "finite", ms[-1]
    if ep_eq(s, MULT4):
        return "two_e", None
    if is_cofinite(s):
        comp = members_below_tail(ep_neg(s))
        if comp and comp == list(range(len(comp))):
            return "co_initial_segment", len(comp) - 1
        if len(comp) == 1:
            return "co_singleton", comp[0]
        return "other", None
    if not odd_inf and is_finite(ep_meet(EVENS, ep_neg(s))):
        return "e_star", None
    return "other", None


def _rule_a(x: Lasso, s: Lasso) -> Lasso:
    variant, n = shape(s)
    if variant == "empty":
        return finite((0,))
    if variant == "initial_segment":
        return finite(range(n + 1))
    if variant == "two_e":
        return NATS
    if variant == "co_initial_segment" and member(x, n):
        return NATS
    return s


def _rule_b(x: Lasso, s: Lasso) -> Lasso:
    if ep_eq(s, NATS):
        return cofinite((0,))
    variant, n = shape(s)
    if variant == "co_initial_segment":
        return cofinite(range(n + 2))
    if ep_eq(s, ep_neg(MULT4)):
        return EMPTY
    if variant == "initial_segment" and member(x, n - 1):
        return EMPTY
    return s


def _rule_c(x: Lasso, s: Lasso) -> Lasso:
    variant, n = shape(s)
    if variant == "empty":
        return finite((0,))
    if variant == "initial_segment":
        return finite(range(n + 1))
    if variant == "e_star":
        return s
    if variant == "co_singleton" and member(x, n):
        return s
    if variant == "co_initial_segment" and n == 0 and member(x, 0):
        return s
    if variant == "finite":
        return ep_join(s, finite((n + 1,)))
    return NATS


FAMILY_RULES = {"A": _rule_a, "B": _rule_b, "C": _rule_c}


class LassoOps(_Ops):
    """Boolean frame over eventually periodic sets with a family rule."""

    zero = EMPTY
    one = NATS

    def __init__(self, family: str, x: Lasso):
        rule = FAMILY_RULES[family]
        self.f = lambda s: rule(x, s)

    @staticmethod
    def neg(a):
        return ep_neg(a)

    @staticmethod
    def meet(a, b):
        return ep_meet(a, b)

    @staticmethod
    def eq(a, b):
        return ep_eq(a, b)


def nbar(o, n: int):
    """Singleton-defining macro of the subadditive family."""
    if n == 0:
        return o.f(o.zero)
    out = None
    for m in range(n):
        part = o.neg(nbar(o, m))
        out = part if out is None else o.meet(out, part)
    return o.meet(out, fpow(o, n + 1, o.zero))
