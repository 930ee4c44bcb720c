"""Modal term language: parsing, evaluation, relativization, clause checking.

Terms desugar at parse time to five core constructors (zero, variable,
complement, meet, operation application); 1, join, arrow and bicond are
sugar.  Identities are pairs of terms; clauses are universally quantified
disjunctions of identities and are checked exhaustively on finite frames
with partial-evaluation memoization so the quantifier nesting stays cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import Element, ParseError, UsageError
from .frames import (EXHAUSTIVE, Exhaustive, FiniteFrame, Sampled,
                     SymbolicFrame, Verdict)
from .periodic import EMPTY, EPSet, EPSetSampler, ep_join, ep_meet, ep_neg


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Const0(Term):
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class FApp(Term):
    arg: Term


@dataclass(frozen=True)
class ConstBits(Term):
    """Folded constant over a concrete finite carrier (internal)."""

    bits: int


ZERO = Const0()
ONE = Neg(ZERO)


def meet_t(*ts: Term) -> Term:
    out = ts[0]
    for t in ts[1:]:
        out = Meet(out, t)
    return out


def join_t(a: Term, b: Term) -> Term:
    return Neg(Meet(Neg(a), Neg(b)))


def arrow_t(a: Term, b: Term) -> Term:
    return Neg(Meet(a, Neg(b)))


def bicond_t(a: Term, b: Term) -> Term:
    return Meet(arrow_t(a, b), arrow_t(b, a))


def fpow(k: int, t: Term) -> Term:
    for _ in range(k):
        t = FApp(t)
    return t


def nbar(n: int) -> Term:
    """Singleton-defining macro: nbar(0) = f(0) and
    nbar(n+1) = meet of -nbar(m) for m <= n with f^(n+2)(0)."""
    if n == 0:
        return FApp(ZERO)
    parts = [Neg(nbar(m)) for m in range(n)]
    parts.append(fpow(n + 1, ZERO))
    return meet_t(*parts)


def free_vars(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, (Const0, ConstBits)):
        return frozenset()
    if isinstance(t, (Neg, FApp)):
        return free_vars(t.arg)
    return free_vars(t.left) | free_vars(t.right)


def substitute(t: Term, name: str, replacement: Term) -> Term:
    if isinstance(t, Var):
        return replacement if t.name == name else t
    if isinstance(t, (Const0, ConstBits)):
        return t
    if isinstance(t, Neg):
        return Neg(substitute(t.arg, name, replacement))
    if isinstance(t, FApp):
        return FApp(substitute(t.arg, name, replacement))
    return Meet(substitute(t.left, name, replacement),
                substitute(t.right, name, replacement))


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term

    def variables(self) -> frozenset:
        return free_vars(self.lhs) | free_vars(self.rhs)


@dataclass(frozen=True)
class Clause:
    """Universally quantified disjunction of identities."""

    disjuncts: tuple

    def __post_init__(self):
        if not self.disjuncts:
            raise UsageError("a clause needs at least one disjunct")

    def variables(self) -> frozenset:
        out = frozenset()
        for d in self.disjuncts:
            out |= d.variables()
        return out


# ---------------------------------------------------------------------------
# Parsing.  Grammar (low to high precedence, meet/join left-associative,
# arrow right-associative):
#   identity := term '=' term
#   term     := bicond
#   bicond   := arrow ('<->' arrow)*
#   arrow    := join ('->' arrow)?
#   join     := meet ('|' meet)*
#   meet     := unary ('&' unary)*
#   unary    := '-' unary | 'f' '(' term ')' | '0' | '1' | 'nbar' NAT
#             | ident | '(' term ')'
# 'g' and 'h' are accepted as aliases of the operation symbol 'f'.

_OP_NAMES = ("f", "g", "h")


def _tokenize(text: str, symbols):
    """(kind, value, offset) triples; `symbols` are tried in order, so a
    longer symbol must come before its prefixes."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        sym = next((s for s in symbols if text.startswith(s, i)), None)
        if sym is not None:
            tokens.append((sym, sym, i))
            i += len(sym)
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("NUM", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    _SYMBOLS = ("<->", "->", "-", "&", "|", "(", ")", "=")

    def __init__(self, text: str):
        self.tokens = _tokenize(text, self._SYMBOLS)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                             tok[2])
        return tok

    def whole_term(self) -> Term:
        t = self.term()
        self.expect("END")
        return t

    def term(self) -> Term:
        return self.bicond()

    def bicond(self) -> Term:
        t = self.arrow()
        while self.peek()[0] == "<->":
            self.next()
            t = bicond_t(t, self.arrow())
        return t

    def arrow(self) -> Term:
        t = self.join()
        if self.peek()[0] == "->":
            self.next()
            return arrow_t(t, self.arrow())
        return t

    def join(self) -> Term:
        t = self.meet()
        while self.peek()[0] == "|":
            self.next()
            t = join_t(t, self.meet())
        return t

    def meet(self) -> Term:
        t = self.unary()
        while self.peek()[0] == "&":
            self.next()
            t = Meet(t, self.unary())
        return t

    def unary(self) -> Term:
        kind, value, at = self.peek()
        if kind == "-":
            self.next()
            return Neg(self.unary())
        if kind == "NUM":
            self.next()
            if value == "0":
                return ZERO
            if value == "1":
                return ONE
            raise ParseError(f"only the constants 0 and 1 are terms, found {value!r}",
                             at)
        if kind == "NAME":
            self.next()
            if value in _OP_NAMES and self.peek()[0] == "(":
                self.next()
                inner = self.term()
                self.expect(")")
                return FApp(inner)
            if value == "nbar":
                num = self.expect("NUM")
                return nbar(int(num[1]))
            return Var(value)
        if kind == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        raise ParseError(f"expected a term, found {value or 'end of input'!r}", at)


def parse_term(text: str) -> Term:
    return _Parser(text).whole_term()


def parse_identity(text: str) -> Identity:
    p = _Parser(text)
    lhs = p.term()
    p.expect("=")
    rhs = p.term()
    p.expect("END")
    return Identity(lhs, rhs)


# ---------------------------------------------------------------------------
# The standard modal-to-algebraic translation: diamond becomes the frame
# operation, falsum becomes 0, conjunction and negation map homomorphically.
# Modal sugar ([], ->, |, top) is desugared first.  Formulas are parsed by
# the term grammar above with modal symbols, which have no '<->', '-' or
# '=', and with modal atoms:
#   unary := '~' unary | '<>' unary | '[]' unary | 'bot' | 'top' | letter
#          | '(' term ')'


class _ModalParser(_Parser):
    _SYMBOLS = ("->", "<>", "[]", "~", "&", "|", "(", ")")

    def unary(self) -> Term:
        kind, value, at = self.next()
        if kind == "~":
            return Neg(self.unary())
        if kind == "<>":
            return FApp(self.unary())
        if kind == "[]":
            return Neg(FApp(Neg(self.unary())))
        if kind == "NAME":
            if value == "bot":
                return ZERO
            if value == "top":
                return ONE
            return Var(value)
        if kind == "(":
            inner = self.term()
            self.expect(")")
            return inner
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", at)


def iota(text: str) -> Term:
    """Translate a modal formula into an algebraic term."""
    return _ModalParser(text).whole_term()


# ---------------------------------------------------------------------------
# Evaluation


def _eval_bits(t: Term, table, mask, asgn):
    if isinstance(t, Const0):
        return np.uint32(0)
    if isinstance(t, ConstBits):
        return np.uint32(t.bits)
    if isinstance(t, Var):
        try:
            return asgn[t.name]
        except KeyError:
            raise UsageError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Neg):
        return mask ^ _eval_bits(t.arg, table, mask, asgn)
    if isinstance(t, FApp):
        return table[_eval_bits(t.arg, table, mask, asgn)]
    return (_eval_bits(t.left, table, mask, asgn)
            & _eval_bits(t.right, table, mask, asgn))


def _eval_ep(t: Term, frame: SymbolicFrame, asgn):
    # the nodes of sampled checks first: this runs for every node of every trial
    if isinstance(t, Var):
        try:
            return asgn[t.name]
        except KeyError:
            raise UsageError(f"unbound variable {t.name!r}") from None
    if isinstance(t, FApp):
        return frame.apply(_eval_ep(t.arg, frame, asgn))
    if isinstance(t, Meet):
        return ep_meet(_eval_ep(t.left, frame, asgn), _eval_ep(t.right, frame, asgn))
    if isinstance(t, Neg):
        a = t.arg
        if isinstance(a, Meet) and isinstance(a.left, Neg) and isinstance(a.right, Neg):
            # a desugared join: one ep_join instead of three negations and a meet
            return ep_join(_eval_ep(a.left.arg, frame, asgn),
                           _eval_ep(a.right.arg, frame, asgn))
        return ep_neg(_eval_ep(a, frame, asgn))
    if isinstance(t, Const0):
        return EMPTY
    raise UsageError("bit constants only evaluate on finite frames")


def eval_term(frame, t: Term, assignment: dict):
    """Evaluate a term under an assignment of the frame's carrier elements."""
    if isinstance(frame, FiniteFrame):
        n = frame.alg.atom_count
        bits = {}
        for name, value in assignment.items():
            if not isinstance(value, Element):
                raise UsageError("finite frames need Element assignments")
            frame.alg._own(value)
            bits[name] = np.uint32(value.bits)
        out = _eval_bits(t, frame.table, np.uint32(frame.alg.mask), bits)
        return Element(int(out), n)
    if isinstance(frame, SymbolicFrame):
        for value in assignment.values():
            if not isinstance(value, EPSet):
                raise UsageError("symbolic frames need EPSet assignments")
        return _eval_ep(t, frame, assignment)
    raise UsageError(f"not a frame: {frame!r}")


# ---------------------------------------------------------------------------
# Relativization: rewrite a term so it evaluates inside the relative algebra
# below y.  Constants relativize to 0, variables meet with y, complement
# becomes complement-within-y, and the operation application passes through.


def relativize(t: Term, y: str) -> Term:
    if y in free_vars(t):
        raise UsageError(f"relativization variable {y!r} occurs in the term")
    return _relativize(t, Var(y))


def _relativize(t: Term, y: Term) -> Term:
    if isinstance(t, Const0):
        return t
    if isinstance(t, ConstBits):
        raise UsageError("cannot relativize folded constants")
    if isinstance(t, Var):
        return Meet(t, y)
    if isinstance(t, Neg):
        return Meet(Neg(_relativize(t.arg, y)), y)
    if isinstance(t, Meet):
        return Meet(_relativize(t.left, y), _relativize(t.right, y))
    return FApp(_relativize(t.arg, y))


def relativize_identity(e: Identity, y: str) -> Identity:
    return Identity(relativize(e.lhs, y), relativize(e.rhs, y))


def fix_variable(e: Identity, name: str, value: Element) -> Identity:
    """Substitute a concrete carrier element for a variable."""
    c = ConstBits(value.bits)
    return Identity(substitute(e.lhs, name, c), substitute(e.rhs, name, c))


def _fresh_var(taken, base="y"):
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def make_clause(mode: str, e: Identity, k: int = 2) -> Clause:
    """Positive universal clause transferring an identity to a squared frame.

    mode "phi": f(y)=1 or f(-y)=1 or the conjunction (f(y)<->y) and
    (f(-y)<->-y) and (lhs^y <-> rhs^y), encoded as a single identity = 1.
    mode "psi": f^k(y)=1 or f^k(y)=0 or the identity relativized at f^k(y).
    """
    y = _fresh_var(e.variables())
    vy = Var(y)
    if mode == "phi":
        body = meet_t(bicond_t(FApp(vy), vy),
                      bicond_t(FApp(Neg(vy)), Neg(vy)),
                      bicond_t(relativize(e.lhs, y), relativize(e.rhs, y)))
        return Clause((Identity(FApp(vy), ONE),
                       Identity(FApp(Neg(vy)), ONE),
                       Identity(body, ONE)))
    if mode == "psi":
        probe = fpow(k, vy)
        w = _fresh_var(e.variables() | {y}, "w")
        rel = relativize_identity(e, w)
        d3 = Identity(substitute(rel.lhs, w, probe), substitute(rel.rhs, w, probe))
        return Clause((Identity(probe, ONE), Identity(probe, ZERO), d3))
    raise UsageError(f"unknown clause mode {mode!r}")


# ---------------------------------------------------------------------------
# Identity and clause checking


def _identity_exhaustive(frame: FiniteFrame, e: Identity) -> Verdict:
    n = frame.alg.atom_count
    size = frame.alg.size
    mask = np.uint32(frame.alg.mask)
    names = sorted(e.variables())
    outer, last = names[:-1], names[-1:]  # last is [] for a ground identity
    scan = {v: np.arange(size, dtype=np.uint32) for v in last}
    # outer variables in lexicographic order, the last one vectorized, so
    # the first failing assignment is the least counterexample
    for values in itertools.product(range(size), repeat=len(outer)):
        asgn = dict(zip(outer, map(np.uint32, values)), **scan)
        res = _eval_bits(e.lhs, frame.table, mask, asgn) == \
            _eval_bits(e.rhs, frame.table, mask, asgn)
        if not bool(res.all()):
            witness = {k: Element(v, n) for k, v in zip(outer, values)}
            witness.update((v, Element(int(np.argmax(~res)), n)) for v in last)
            return Verdict("fails", witness)
    return Verdict("holds")


def check_identity(frame, e: Identity, strategy=EXHAUSTIVE, *, _first=()) -> Verdict:
    """Decide an identity on a frame.

    Finite + exhaustive scans every assignment (vectorized over the last
    variable) and reports the least counterexample.  Ground identities get
    a definite verdict on any frame; open identities on symbolic frames
    require a Sampled strategy and draw assignments from the EPSet sampler.
    `_first` holds assignments tried on a symbolic frame before sampling;
    they count towards `strategy.count`.
    """
    names = sorted(e.variables())
    if isinstance(frame, FiniteFrame):
        if isinstance(strategy, Exhaustive):
            return _identity_exhaustive(frame, e)
        rng = np.random.default_rng(strategy.seed)
        n = frame.alg.atom_count
        mask = np.uint32(frame.alg.mask)
        for _ in range(strategy.count):
            asgn = {v: np.uint32(rng.integers(frame.alg.size)) for v in names}
            if int(_eval_bits(e.lhs, frame.table, mask, asgn)) != \
                    int(_eval_bits(e.rhs, frame.table, mask, asgn)):
                return Verdict("fails",
                               {k: Element(int(v), n) for k, v in asgn.items()})
        return Verdict("holds_on_sample")
    if not isinstance(frame, SymbolicFrame):
        raise UsageError(f"not a frame: {frame!r}")
    if not names:
        ok = _eval_ep(e.lhs, frame, {}) == _eval_ep(e.rhs, frame, {})
        return Verdict("holds") if ok else Verdict("fails", {})
    if isinstance(strategy, Exhaustive):
        raise UsageError("exhaustive checks need a finite frame; use Sampled")
    sampler = EPSetSampler(strategy.seed)
    drawn = ({v: sampler.sample() for v in names}
             for _ in range(strategy.count - len(_first)))
    for asgn in itertools.chain(_first, drawn):
        if _eval_ep(e.lhs, frame, asgn) != _eval_ep(e.rhs, frame, asgn):
            return Verdict("fails", asgn)
    return Verdict("holds_on_sample")


def _fold(t: Term, table, mask) -> Term:
    """Partial evaluation: collapse variable-free subterms to constants."""
    if isinstance(t, (Const0, ConstBits, Var)):
        return t
    if isinstance(t, Neg):
        a = _fold(t.arg, table, mask)
        if isinstance(a, (Const0, ConstBits)):
            bits = 0 if isinstance(a, Const0) else a.bits
            return ConstBits(int(mask) ^ bits)
        return Neg(a)
    if isinstance(t, FApp):
        a = _fold(t.arg, table, mask)
        if isinstance(a, (Const0, ConstBits)):
            bits = 0 if isinstance(a, Const0) else a.bits
            return ConstBits(int(table[bits]))
        return FApp(a)
    left = _fold(t.left, table, mask)
    right = _fold(t.right, table, mask)
    if isinstance(left, (Const0, ConstBits)) and isinstance(right, (Const0, ConstBits)):
        lb = 0 if isinstance(left, Const0) else left.bits
        rb = 0 if isinstance(right, Const0) else right.bits
        return ConstBits(lb & rb)
    return Meet(left, right)


def check_clause(frame, c: Clause) -> Verdict:
    """Exhaustively decide a clause on a finite frame.

    Variables are eliminated one at a time (most-shared first); after each
    substitution, disjuncts are constant-folded, ground disjuncts decided,
    and subproblems memoized on their folded shape, so clauses whose early
    disjuncts depend on few variables prune most of the assignment space.
    """
    if not isinstance(frame, FiniteFrame):
        raise UsageError("clause checking needs a finite frame")
    size = frame.alg.size
    n = frame.alg.atom_count
    table = frame.table
    mask = np.uint32(frame.alg.mask)

    counts = {}
    for d in c.disjuncts:
        for v in d.variables():
            counts[v] = counts.get(v, 0) + 1
    order = tuple(sorted(counts, key=lambda v: (-counts[v], v)))
    folded = tuple(Identity(_fold(d.lhs, table, mask), _fold(d.rhs, table, mask))
                   for d in c.disjuncts)
    arr = np.arange(size, dtype=np.uint32)
    memo: dict = {}

    def ground_value(t: Term):
        if isinstance(t, Const0):
            return 0
        if isinstance(t, ConstBits):
            return t.bits
        return None

    def rec(disjuncts, remaining):
        live = []
        for d in disjuncts:
            lv, rv = ground_value(d.lhs), ground_value(d.rhs)
            if lv is not None and rv is not None:
                if lv == rv:
                    return None  # satisfied outright
                continue  # ground and false: drop
            live.append(d)
        if not remaining:
            return {}
        key = (tuple(live), remaining)
        if key in memo:
            return memo[key]
        if len(remaining) == 1:
            name = remaining[0]
            sat = np.zeros(size, dtype=bool)
            for d in live:
                asgn = {name: arr}
                sat |= _eval_bits(d.lhs, table, mask, asgn) == \
                    _eval_bits(d.rhs, table, mask, asgn)
            result = None if bool(sat.all()) else {name: Element(int(np.argmax(~sat)), n)}
        else:
            name = remaining[0]
            result = None
            for v in range(size):
                cb = ConstBits(v)
                ds = tuple(Identity(_fold(substitute(d.lhs, name, cb), table, mask),
                                    _fold(substitute(d.rhs, name, cb), table, mask))
                           for d in live)
                hit = rec(ds, remaining[1:])
                if hit is not None:
                    result = {name: Element(v, n), **hit}
                    break
        memo[key] = result
        return result

    witness = rec(folded, order)
    return Verdict("holds") if witness is None else Verdict("fails", witness)
