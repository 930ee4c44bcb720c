"""Eventually periodic sets: canonical forms, Boolean ops, classification.

The pointwise-membership oracle (scan an initial segment of N) is the
independent check for every structural operation here.
"""

import pytest

from cep_lab.core import UsageError
from cep_lab.periodic import (EMPTY, EVENS, MULT4, NATS, ODDS, EPSetSampler,
                              classify, co_initial_segment_set,
                              co_singleton_set, cofinite_set, ep_bicond,
                              ep_boolean_op, ep_join, ep_leq, ep_meet,
                              ep_neg, finite_set, initial_segment_set,
                              make_periodic)

SCAN = 1000


def members_below(s, n=SCAN):
    return [k for k in range(n) if s.member(k)]


def test_make_periodic_examples():
    assert make_periodic(2, (0,)) == EVENS
    assert make_periodic(4, (0,)) == MULT4
    assert make_periodic(1, (), {0: True, 1: True, 2: True}) == finite_set((0, 1, 2))


def test_make_periodic_validation():
    with pytest.raises(UsageError):
        make_periodic(2, (3,))
    with pytest.raises(UsageError):
        make_periodic(0, ())


def test_canonicalization():
    # modulus collapses to the minimal tail period
    assert make_periodic(4, (0, 2)) == EVENS
    assert make_periodic(6, (0, 1, 2, 3, 4, 5)) == NATS
    # redundant exceptions are dropped
    assert make_periodic(2, (0,), {4: True, 3: False}) == EVENS
    assert EVENS.threshold == 0


def test_membership_examples():
    assert MULT4.member(8)
    assert not MULT4.member(2)
    assert ODDS.member(7)


def test_boolean_op_examples():
    assert ep_neg(EVENS) == ODDS
    assert ep_meet(EVENS, MULT4) == MULT4
    assert ep_bicond(EVENS, EMPTY) == ODDS
    assert members_below(ep_bicond(EVENS, EMPTY)) == \
        [n for n in range(SCAN) if (n in range(0, SCAN, 2)) == False]  # noqa: E712
    with pytest.raises(UsageError):
        ep_boolean_op("neg", EVENS, ODDS)


def test_classify_examples():
    assert classify(finite_set((0, 1, 2))).variant == "initial_segment"
    assert classify(finite_set((0, 1, 2))).param == 3
    est = make_periodic(2, (0,), {2: False, 5: True})
    assert classify(est).variant == "e_star"
    assert classify(co_singleton_set(3)).variant == "co_singleton"
    assert classify(co_singleton_set(3)).param == 3
    tag = classify(MULT4)
    assert tag.variant == "two_e"
    # the doubled evens miss infinitely many evens, so e_star must not fire
    dropped = [n for n in range(SCAN) if n % 2 == 0 and not MULT4.member(n)]
    assert len(dropped) > 100


def test_classify_priority_and_flags():
    assert classify(EMPTY).variant == "empty"
    assert classify(NATS).variant == "other"
    assert classify(cofinite_set((0,))).variant == "co_initial_segment"
    assert classify(cofinite_set((0,))).param == 0
    assert classify(cofinite_set((0, 1))).param == 1
    assert classify(finite_set((2, 5))).variant == "finite"
    assert classify(finite_set((2, 5))).param == 5
    assert classify(ODDS).infinite_odd_part
    assert classify(cofinite_set((3,))).is_cofinite
    assert not classify(EVENS).infinite_odd_part


def test_ep_equal_examples():
    assert EVENS == make_periodic(4, (0, 2))
    assert EVENS != ODDS
    assert ep_join(MULT4, ODDS) == ep_join(ODDS, MULT4)


def test_random_ops_match_pointwise_oracle():
    sampler = EPSetSampler(20394)
    for _ in range(150):
        a, b = sampler.sample(), sampler.sample()
        got_meet = ep_meet(a, b)
        got_join = ep_join(a, b)
        got_bic = ep_bicond(a, b)
        got_neg = ep_neg(a)
        for n in range(SCAN):
            am, bm = a.member(n), b.member(n)
            assert got_meet.member(n) == (am and bm)
            assert got_join.member(n) == (am or bm)
            assert got_bic.member(n) == (am == bm)
            assert got_neg.member(n) != am


def test_leq_matches_oracle():
    sampler = EPSetSampler(77)
    for _ in range(200):
        a, b = sampler.sample_pair()
        assert ep_leq(a, b) == all(b.member(n) for n in members_below(a))


def test_classify_stable_under_modulus_inflation():
    sampler = EPSetSampler(5)
    for _ in range(300):
        s = sampler.sample()
        for k in (2, 3, 6):
            lifted_residues = [r + j * s.modulus
                               for r in s.residues for j in range(k)]
            lifted = make_periodic(k * s.modulus, lifted_residues,
                                   dict(s.exceptions))
            assert lifted == s
            assert classify(lifted) == classify(s)


def test_ep_equal_is_congruence_for_ops():
    sampler = EPSetSampler(11)
    for _ in range(100):
        a, b = sampler.sample(), sampler.sample()
        # re-expressed copies are equal and substitute freely
        a2 = make_periodic(2 * a.modulus,
                           [r + j * a.modulus for r in a.residues for j in (0, 1)],
                           dict(a.exceptions))
        assert a2 == a
        assert ep_meet(a2, b) == ep_meet(a, b)
        assert ep_join(a2, b) == ep_join(a, b)
        assert ep_neg(a2) == ep_neg(a)


def test_e_star_structural_vs_scan_heuristic():
    sampler = EPSetSampler(99)
    for _ in range(400):
        s = sampler.sample()
        structural = classify(s).variant == "e_star"
        # scan heuristic: infinitely many members, odd members stop, and
        # missing evens stop, judged on a long initial segment
        odd_late = any(s.member(n) for n in range(401, SCAN, 2))
        even_missing_late = any(not s.member(n) for n in range(400, SCAN, 2))
        infinite = any(s.member(n) for n in range(s.threshold, s.threshold + 2 * s.modulus))
        heuristic = infinite and not odd_late and not even_missing_late
        assert structural == heuristic, s


def test_sampler_covers_all_variants():
    sampler = EPSetSampler(0)
    seen = {classify(sampler.sample()).variant for _ in range(2000)}
    assert seen >= {"empty", "finite", "initial_segment", "two_e",
                    "co_initial_segment", "co_singleton", "e_star", "other"}


def test_finite_members_guard():
    with pytest.raises(UsageError):
        EVENS.finite_members()
    assert finite_set((4, 1)).finite_members() == [1, 4]
    assert initial_segment_set(0) == EMPTY
    assert co_initial_segment_set(0) == cofinite_set((0,))
