"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one pass/fail line with the elapsed time against the
criterion's budget (shown live under `pytest -s`).  Expected outcomes are
pinned here and in the verification registry; nothing re-baselines.
"""

import random
import time

import numpy as np

from cep_lab.congruence import (BUILTIN_TRACES, TraceStep, all_subalgebras,
                                cep_refute, congruential_in_subalgebra,
                                four_block_predicate, infinite_odds_filter,
                                is_congruential, largest_congruential_below,
                                replay_trace)
from cep_lab.core import FiniteAlgebra
from cep_lab.frames import FiniteFrame, family_frame
from cep_lab.periodic import finite_set
from cep_lab.verification import (item_appendix_additive_cep,
                                  item_appendix_normalize, item_cont_sep,
                                  item_ext_cep, item_ext_sep, item_figure1,
                                  item_flat_nocep, item_flat_simple,
                                  item_negation_cep, item_sharp_nocep,
                                  item_sharp_sc2, item_sharp_simple,
                                  item_star_nocep, item_star_preserve,
                                  item_star_relativize, item_star_simple,
                                  item_subadd_cep, item_subadd_props,
                                  item_subadd_sep)

SEED = 0
SAMPLES = 10000


def _stamp(num, budget, start, label):
    elapsed = time.time() - start
    print(f"[PASS] criterion {num:2d} ({elapsed:6.1f}s < {budget}s): {label}",
          flush=True)
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_figure1():
    start = time.time()
    result = item_figure1(SEED, SAMPLES)
    assert result.ok, result.details
    _stamp(1, 1, start, result.summary)


def test_criterion_02_star_simple_and_nocep():
    start = time.time()
    simple = item_star_simple(SEED, SAMPLES)
    nocep = item_star_nocep(SEED, SAMPLES)
    assert simple.ok, simple.details
    assert nocep.ok, nocep.details
    _stamp(2, 1, start, f"{simple.summary}; {nocep.summary}")


def test_criterion_03_relativization():
    start = time.time()
    result = item_star_relativize(SEED, SAMPLES)
    assert result.ok, result.details
    assert result.details["checked"] >= 10 * 5 * 2
    _stamp(3, 120, start, result.summary)


def test_criterion_04_star_preserves_profiles():
    start = time.time()
    result = item_star_preserve(SEED, SAMPLES)
    assert result.ok, result.details
    _stamp(4, 60, start, result.summary)


def test_criterion_05_sharp_wheels():
    start = time.time()
    simple = item_sharp_simple(SEED, SAMPLES)
    nocep = item_sharp_nocep(SEED, SAMPLES)
    assert simple.ok, simple.details
    assert nocep.ok, nocep.details
    _stamp(5, 120, start, f"{simple.summary}; {nocep.summary}")


def test_criterion_06_sharp_transfer_clauses():
    start = time.time()
    result = item_sharp_sc2(SEED, SAMPLES)
    assert result.ok, result.details
    _stamp(6, 300, start, result.summary)


def test_criterion_07_flat_wheels():
    start = time.time()
    simple = item_flat_simple(SEED, SAMPLES)
    nocep = item_flat_nocep(SEED, SAMPLES)
    assert simple.ok, simple.details
    assert nocep.ok, nocep.details
    _stamp(7, 120, start, f"{simple.summary}; {nocep.summary}")


def test_criterion_08_extensive_family():
    start = time.time()
    cep = item_ext_cep(SEED, SAMPLES)
    sep = item_ext_sep(SEED, SAMPLES)
    assert cep.ok, cep.details
    assert sep.ok, sep.details
    derived = sep.details["derived"]
    assert [n for n in range(7) if derived[str(n)]] == [1, 3]
    _stamp(8, 10, start, f"{cep.summary}; {sep.summary}")


def test_criterion_09_contractive_family():
    start = time.time()
    result = item_cont_sep(SEED, SAMPLES)
    assert result.ok, result.details
    derived = result.details["derived"]
    assert [n for n in range(7) if derived[str(n)]] == [2, 4]
    _stamp(9, 10, start, result.summary)


def test_criterion_10_subadditive_family():
    start = time.time()
    props = item_subadd_props(SEED, SAMPLES)
    sep = item_subadd_sep(SEED, SAMPLES)
    assert props.ok, props.details
    assert sep.ok, sep.details
    grid = sep.details["grid"]
    assert [n for n in range(9) if grid[str(n)]] == [3, 5]
    _stamp(10, 30, start, f"{props.summary}; {sep.summary}")


def test_criterion_11_trace_replay():
    for name, (family, mk) in sorted(BUILTIN_TRACES.items()):
        start = time.time()
        frame = family_frame(family, finite_set((1, 3)))
        report = replay_trace(frame, four_block_predicate,
                              infinite_odds_filter, mk())
        assert report.valid, (name, report)
        _stamp(11, 1, start, f"trace {name} replays")
    start = time.time()
    corrupted = list(BUILTIN_TRACES["ext2"][1]())
    corrupted[2] = TraceStep("fstep", (), (9,))
    report = replay_trace(family_frame("A", finite_set((1, 3))),
                          four_block_predicate, infinite_odds_filter,
                          tuple(corrupted))
    assert not report.valid and report.step == 3
    _stamp(11, 1, start, "corrupted trace rejected at the right step")


def test_criterion_12_appendix_pool():
    start = time.time()
    additive = item_appendix_additive_cep(SEED, SAMPLES)
    normalize = item_appendix_normalize(SEED, SAMPLES)
    negation = item_negation_cep(SEED, SAMPLES)
    for result in (additive, normalize, negation):
        assert result.ok, result.details
    _stamp(12, 300, start,
           f"{additive.summary}; {normalize.summary}; {negation.summary}")


def _random_three_atom_frames(count, seed):
    rng = random.Random(seed)
    alg = FiniteAlgebra(3)
    for _ in range(count):
        table = np.array([rng.randrange(8) for _ in range(8)], dtype=np.uint32)
        yield FiniteFrame(alg, table)


def _all_two_atom_frames():
    alg = FiniteAlgebra(2)
    for code in range(256):
        table = np.array([code & 3, (code >> 2) & 3, (code >> 4) & 3,
                          (code >> 6) & 3], dtype=np.uint32)
        yield FiniteFrame(alg, table)


def test_criterion_13_oracle_suites():
    start = time.time()
    disagreements = 0
    pool = list(_all_two_atom_frames()) + \
        list(_random_three_atom_frames(500, seed=SEED))
    for frame in pool:
        size = frame.alg.size
        t = frame.table
        congruentials = []
        for a in frame.alg.elements():
            # pair-definition oracle for the congruential condition
            ab = a.bits
            oracle = all(int(t[x]) & ab == int(t[y]) & ab
                         for x in range(size) for y in range(size)
                         if x & ab == y & ab)
            if oracle != is_congruential(frame, a):
                disagreements += 1
            if oracle:
                congruentials.append(a)
        for c in frame.alg.elements():
            best = max((a.bits for a in congruentials
                        if a.bits & c.bits == a.bits), default=0)
            got = largest_congruential_below(frame, c)
            if got.bits != best or not is_congruential(frame, got):
                disagreements += 1
        for sub in all_subalgebras(frame):
            for a in sub.sorted_elements():
                if not congruential_in_subalgebra(frame, sub, a):
                    continue
                refuted = cep_refute(frame, sub, a).refuted
                extension = any(
                    all((b.bits & c.bits == c.bits) == (b.bits & a.bits == a.bits)
                        for b in sub.elements)
                    for c in congruentials)
                if refuted == extension:
                    disagreements += 1
    assert disagreements == 0
    _stamp(13, 300, start,
           f"{len(pool)} frames against brute-force oracles, 0 disagreements")
