"""The ten properties, decided through their identities, against the
benchmark's reference predicates (`perfbench/oracle.py`), which are written
from the definitions and never call cep_lab."""

import sys
from pathlib import Path

import numpy as np
import pytest

from cep_lab.core import FiniteAlgebra
from cep_lab.frames import (EXHAUSTIVE, PROPERTIES, PROPERTY_IDENTITIES,
                            FiniteFrame, Sampled, check_property, family_frame)
from cep_lab.periodic import (EMPTY, NATS, EPSetSampler, finite_set,
                              subadditive_case_pairs)
from cep_lab.terms import check_identity, parse_identity

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402

NAMES = ("x", "y")


def _least_failure(table, prop):
    """(status, witness bits) by brute force: x outer, y vectorized."""
    arity, pred = oracle.PROPERTIES[prop]
    o = oracle.BitOps(table)
    xs = np.arange(len(table), dtype=np.uint32)
    if arity == 0:
        return ("holds", None) if bool(pred(o)) else ("fails", {})
    if arity == 1:
        ok = pred(o, xs)
        return ("holds", None) if ok.all() else ("fails", {"x": int(np.argmin(ok))})
    for x in range(len(table)):
        ok = pred(o, np.uint32(x), xs)
        if not ok.all():
            return "fails", {"x": x, "y": int(np.argmin(ok))}
    return "holds", None


def _bits(v):
    return None if v.witness is None else {k: e.bits for k, e in v.witness.items()}


def _finite_tables():
    two = [np.array(t, dtype=np.uint32) for t in np.ndindex(4, 4, 4, 4)]
    rng = np.random.default_rng(23)
    three = [rng.integers(8, size=8).astype(np.uint32) for _ in range(60)]
    return two + three


def test_property_names_match_the_reference():
    assert set(PROPERTIES) == set(oracle.PROPERTIES) == set(PROPERTY_IDENTITIES)


def test_exhaustive_verdicts_match_reference_on_small_tables():
    tables = _finite_tables()
    assert len(tables) == 256 + 60
    for table in tables:
        frame = FiniteFrame(FiniteAlgebra(len(table).bit_length() - 1), table)
        for prop in PROPERTIES:
            v = check_property(frame, prop, EXHAUSTIVE)
            assert (v.status, _bits(v)) == _least_failure(table, prop), \
                (list(table), prop)


def _trials(x, prop, strategy):
    """The assignments a sampled check evaluates, regenerated from its seed."""
    arity = oracle.PROPERTIES[prop][0]
    first = subadditive_case_pairs(x) if prop == "subadditive" else []
    sampler = EPSetSampler(strategy.seed)
    drawn = [tuple(sampler.sample() for _ in range(arity))
             for _ in range(strategy.count - len(first))]
    return list(first) + drawn


@pytest.mark.parametrize("family", "ABC")
def test_sampled_verdicts_match_reference_on_families(family):
    xs = (finite_set((1, 3)), EMPTY, NATS, finite_set(range(5)))
    for k, x in enumerate(xs):
        frame = family_frame(family, x)
        o = oracle.LassoOps(family, oracle.lasso(x))
        for prop in PROPERTIES:
            arity, pred = oracle.PROPERTIES[prop]
            strategy = Sampled(150, k)
            v = check_property(frame, prop, strategy)
            if arity == 0:
                assert v.status == ("holds" if pred(o) else "fails"), (x, prop)
                continue
            # the witness is the first regenerated trial the reference falsifies
            bad = next((args for args in _trials(x, prop, strategy)
                        if not pred(o, *(oracle.lasso(a) for a in args))), None)
            if bad is None:
                assert v.status == "holds_on_sample", (x, prop, v.witness)
            else:
                assert v.status == "fails", (x, prop, bad)
                assert v.witness == dict(zip(NAMES, bad)), (x, prop)


def test_check_identity_reproduces_check_property():
    frame = FiniteFrame(FiniteAlgebra(3), np.array([0, 3, 2, 7, 4, 5, 6, 7],
                                                   dtype=np.uint32))
    fa = family_frame("A", finite_set((1, 3)))
    for prop, text in PROPERTY_IDENTITIES.items():
        e = parse_identity(text)
        assert check_property(frame, prop) == check_identity(frame, e)
        if prop != "subadditive":  # which first tries the case pairs
            assert check_property(fa, prop, Sampled(50, 2)) == \
                check_identity(fa, e, Sampled(50, 2))


def test_case_pairs_count_towards_the_sample_count(monkeypatch):
    draws = []
    sample = EPSetSampler.sample
    monkeypatch.setattr(EPSetSampler, "sample",
                        lambda self: draws.append(1) or sample(self))
    frame = family_frame("C", finite_set((3, 5)))
    for prop, count, expected in (("extensive", 50, 50),
                                  ("subadditive", 50, 2 * (50 - 18)),
                                  ("subadditive", 10, 0)):
        draws.clear()
        assert check_property(frame, prop, Sampled(count, 1)).holds
        assert len(draws) == expected, (prop, count)
