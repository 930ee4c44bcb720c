"""Exact arithmetic on eventually periodic subsets of the naturals.

An EPSet is a residue set modulo m describing the eventual (tail) behaviour,
plus a finite exception map for positions where membership differs from the
tail rule.  Canonical form (minimal modulus, nonredundant exceptions) makes
equality and hashing structural.  This fragment is closed under all Boolean
operations and under every symbolic frame rule in `frames`, so property
checks over the infinite powerset algebras run entirely inside it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .core import UsageError


@dataclass(frozen=True)
class EPSet:
    """Canonical eventually periodic subset of N.

    membership(n) = exceptions[n] where defined, else (n mod modulus) in
    residues.  Exceptions are stored only where they differ from the tail
    rule; `threshold` is the least N past which the tail rule alone applies.
    Construct via `make_periodic` or the helpers below, never directly.
    """

    modulus: int
    residues: frozenset
    exceptions: tuple  # ((position, member), ...) sorted by position

    def __post_init__(self):
        if self.modulus < 1:
            raise UsageError("modulus must be >= 1")
        if not all(0 <= r < self.modulus for r in self.residues):
            raise UsageError("residue out of range; use make_periodic")
        if _minimal_period(self.modulus, self.residues) != self.modulus:
            raise UsageError("non-minimal modulus; use make_periodic")
        prev = -1
        for n, v in self.exceptions:
            if n <= prev or v == (n % self.modulus in self.residues):
                raise UsageError("redundant or unsorted exceptions; use make_periodic")
            prev = n
        object.__setattr__(self, "_exc", dict(self.exceptions))

    @property
    def threshold(self) -> int:
        return self.exceptions[-1][0] + 1 if self.exceptions else 0

    def member(self, n: int) -> bool:
        if n < 0:
            raise UsageError("naturals only")
        got = self._exc.get(n)
        if got is not None:
            return got
        return n % self.modulus in self.residues

    @property
    def is_finite(self) -> bool:
        return not self.residues

    @property
    def is_cofinite(self) -> bool:
        return len(self.residues) == self.modulus

    def finite_members(self) -> list[int]:
        if not self.is_finite:
            raise UsageError("finite_members on an infinite set")
        return [n for n, v in self.exceptions if v]

    def __repr__(self) -> str:
        plus = [n for n, v in self.exceptions if v]
        minus = [n for n, v in self.exceptions if not v]
        parts = [f"m={self.modulus}", f"r={sorted(self.residues)}"]
        if plus:
            parts.append(f"+{plus}")
        if minus:
            parts.append(f"-{minus}")
        return f"EPSet({', '.join(parts)})"


def _minimal_period(m: int, residues) -> int:
    rs = set(residues)
    for d in range(1, m + 1):
        if m % d:
            continue
        if all((r in rs) == (((r + d) % m) in rs) for r in range(m)):
            return d
    return m


def _canonical(m: int, residues, overrides: dict) -> EPSet:
    """overrides: absolute membership at positions below some threshold."""
    rs = set(residues)
    d = _minimal_period(m, rs)
    rs = frozenset(r for r in rs if r < d)
    exc = {n: v for n, v in overrides.items() if v != (n % d in rs)}
    return EPSet(d, rs, tuple(sorted(exc.items())))


def make_periodic(modulus: int, residues=(), exceptions=None) -> EPSet:
    """Canonicalized EPSet from modulus, residues, and membership overrides."""
    if modulus < 1:
        raise UsageError("modulus must be >= 1")
    rs = set(residues)
    for r in rs:
        if not 0 <= r < modulus:
            raise UsageError(f"residue {r} out of range for modulus {modulus}")
    overrides = {}
    for n, v in (exceptions or {}).items():
        if n < 0:
            raise UsageError("exception positions must be naturals")
        overrides[int(n)] = bool(v)
    return _canonical(modulus, rs, overrides)


EMPTY = make_periodic(1)
NATS = make_periodic(1, (0,))
EVENS = make_periodic(2, (0,))          # E
ODDS = make_periodic(2, (1,))           # O
MULT4 = make_periodic(4, (0,))          # doubled evens: multiples of four


def finite_set(members) -> EPSet:
    return make_periodic(1, (), {n: True for n in members})


def cofinite_set(non_members) -> EPSet:
    return make_periodic(1, (0,), {n: False for n in non_members})


def initial_segment_set(n: int) -> EPSet:
    return finite_set(range(n))


def co_initial_segment_set(n: int) -> EPSet:
    """Complement of {0, ..., n}."""
    return cofinite_set(range(n + 1))


def co_singleton_set(n: int) -> EPSet:
    return cofinite_set((n,))


def _binary(op, a: EPSet, b: EPSet) -> EPSet:
    m = lcm(a.modulus, b.modulus)
    residues = {r for r in range(m)
                if op(r % a.modulus in a.residues, r % b.modulus in b.residues)}
    t = max(a.threshold, b.threshold)
    overrides = {n: op(a.member(n), b.member(n)) for n in range(t)}
    return _canonical(m, residues, overrides)


def ep_meet(a: EPSet, b: EPSet) -> EPSet:
    return _binary(lambda u, v: u and v, a, b)


def ep_join(a: EPSet, b: EPSet) -> EPSet:
    return _binary(lambda u, v: u or v, a, b)


def ep_bicond(a: EPSet, b: EPSet) -> EPSet:
    return _binary(lambda u, v: u == v, a, b)


def ep_neg(a: EPSet) -> EPSet:
    residues = set(range(a.modulus)) - set(a.residues)
    overrides = {n: not a.member(n) for n in range(a.threshold)}
    return _canonical(a.modulus, residues, overrides)


_EP_OPS = {"meet": (2, ep_meet), "join": (2, ep_join),
           "neg": (1, ep_neg), "bicond": (2, ep_bicond)}


def ep_boolean_op(op: str, *sets: EPSet) -> EPSet:
    if op not in _EP_OPS:
        raise UsageError(f"unknown Boolean operation {op!r}")
    arity, fn = _EP_OPS[op]
    if len(sets) != arity:
        raise UsageError(f"{op} expects {arity} argument(s), got {len(sets)}")
    return fn(*sets)


def ep_leq(a: EPSet, b: EPSet) -> bool:
    return ep_meet(a, b) == a


@dataclass(frozen=True)
class CaseTag:
    """Structural shape of an EPSet, as used by the symbolic frame rules.

    variant: empty | initial_segment(n) | finite(max) | two_e |
             co_initial_segment(n) | co_singleton(n) | e_star | other.
    """

    variant: str
    param: int | None
    infinite_odd_part: bool
    is_cofinite: bool


def classify(s: EPSet) -> CaseTag:
    """Unique structural tag of `s`.

    initial_segment(n) means s = {0,...,n-1} (n >= 1) and takes precedence
    over the plain finite tag; co_initial_segment(n) means s = -{0,...,n}
    and takes precedence over co_singleton.  e_star holds iff s is infinite
    with finitely many odd members and finite even complement.
    """
    odd_inf = not ep_meet(s, ODDS).is_finite
    cof = s.is_cofinite
    if s.is_finite:
        members = s.finite_members()
        if not members:
            return CaseTag("empty", None, False, False)
        if members == list(range(len(members))):
            return CaseTag("initial_segment", len(members), False, False)
        return CaseTag("finite", members[-1], False, False)
    if s == MULT4:
        return CaseTag("two_e", None, odd_inf, cof)
    if cof:
        comp = ep_neg(s).finite_members()
        if comp and comp == list(range(len(comp))):
            return CaseTag("co_initial_segment", len(comp) - 1, odd_inf, True)
        if len(comp) == 1:
            return CaseTag("co_singleton", comp[0], odd_inf, True)
        return CaseTag("other", None, odd_inf, True)
    if not odd_inf and ep_meet(EVENS, ep_neg(s)).is_finite:
        return CaseTag("e_star", None, False, False)
    return CaseTag("other", None, odd_inf, False)


class EPSetSampler:
    """Seeded generator of EPSets covering every classify shape.

    The distribution is fixed so failures replay from the seed: named
    constants, random finite sets, initial/co-initial segments,
    co-singletons, finite modifications of the evens (the e_star shape),
    and random periodic sets with random exceptions.
    """

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def sample(self) -> EPSet:
        rng = self.rng
        kind = rng.randrange(9)
        if kind == 0:
            return rng.choice((EMPTY, NATS, EVENS, ODDS, MULT4))
        if kind == 1:
            return finite_set(rng.sample(range(40), rng.randrange(9)))
        if kind == 2:
            return initial_segment_set(rng.randrange(13))
        if kind == 3:
            return co_initial_segment_set(rng.randrange(13))
        if kind == 4:
            return co_singleton_set(rng.randrange(21))
        if kind == 5:
            return cofinite_set(rng.sample(range(30), rng.randrange(1, 7)))
        if kind == 6:
            # e_star shape: drop finitely many evens, add finitely many odds
            drop = {2 * k for k in rng.sample(range(15), rng.randrange(4))}
            add = {2 * k + 1 for k in rng.sample(range(15), rng.randrange(4))}
            exc = {n: False for n in drop}
            exc.update({n: True for n in add})
            return make_periodic(2, (0,), exc)
        m = rng.randrange(1, 13)
        residues = [r for r in range(m) if rng.random() < 0.5]
        exc = {n: rng.random() < 0.5 for n in rng.sample(range(20), rng.randrange(5))}
        return make_periodic(m, residues, exc)

    def sample_pair(self) -> tuple[EPSet, EPSet]:
        a, b = self.sample(), self.sample()
        if self.rng.random() < 0.15:
            b = ep_meet(a, b)  # comparable pair
        return a, b


def subadditive_case_pairs(x_set: EPSet) -> list[tuple[EPSet, EPSet]]:
    """Hand-picked argument pairs hitting every branch of the subadditivity
    case split: finite/finite, finite/infinite and infinite/infinite unions,
    with co-atom complements both inside and outside the parameter set."""
    members = x_set.finite_members() if x_set.is_finite else []
    n_in = members[0] if members else 3
    # the tail repeats from the threshold on, so a set with no non-member
    # below threshold + modulus is N, and the two n_out pairs are dropped
    n_out = next((k for k in range(x_set.threshold + x_set.modulus)
                  if not x_set.member(k)), None)
    out_pairs = [] if n_out is None else [
        (co_initial_segment_set(n_out), initial_segment_set(n_out)),
        (co_singleton_set(n_out), EMPTY)]
    e_star_sample = make_periodic(2, (0,), {2: False, 5: True})
    return [
        # both finite: initial-segment and scattered unions
        (EMPTY, EMPTY),
        (initial_segment_set(3), finite_set((5,))),
        (finite_set((1,)), finite_set((3,))),
        (finite_set((0, 2)), finite_set((1,))),
        (finite_set((0, 1)), finite_set((2, 3))),
        # infinite + finite, union a co-atom with parameter in / out
        (co_initial_segment_set(n_in), initial_segment_set(n_in)),
        *out_pairs,
        (co_singleton_set(n_in), EMPTY),
        # infinite + finite, union not a co-atom
        (MULT4, finite_set((1,))),
        (e_star_sample, finite_set((7,))),
        # both infinite
        (EVENS, ep_meet(ODDS, co_singleton_set(n_in))),
        (ODDS, ep_meet(EVENS, co_singleton_set(0))),
        (ODDS, MULT4),
        (NATS, EVENS),
        (NATS, NATS),
        (EVENS, make_periodic(2, (0,), {0: False, 2: False, 1: True})),
        (e_star_sample, EVENS),
    ]
