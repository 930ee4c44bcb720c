"""Frame constructions and the equational property checkers."""

import numpy as np
import pytest

from cep_lab.core import FiniteAlgebra, UsageError, ValidationError
from cep_lab.frames import (EXHAUSTIVE, KripkeFrame, Sampled, check_property,
                            complex_algebra, constant_zero_frame,
                            family_frame, finite_frame, flat, flat_condition,
                            frame_product, identity_frame, neg_op,
                            negation_frame, sharp, star, wheel)
from cep_lab.periodic import (EMPTY, EVENS, MULT4, NATS, ODDS, EPSetSampler,
                              co_initial_segment_set, co_singleton_set,
                              cofinite_set, finite_set, initial_segment_set,
                              make_periodic, subadditive_case_pairs)


def test_finite_frame_from_mapping():
    alg = FiniteAlgebra(2)
    mapping = {x: x for x in alg.elements()}
    fr = finite_frame(alg, mapping)
    assert fr.apply(alg.element(0b10)) == alg.element(0b10)

    neg_mapping = {x: ~x for x in alg.elements()}
    fr2 = finite_frame(alg, neg_mapping)
    assert fr2.apply(alg.zero) == alg.one

    del mapping[alg.element(0b01)]
    with pytest.raises(ValidationError, match="missing inputs 0x1"):
        finite_frame(alg, mapping)


def test_complex_algebra_small_cases():
    one_reflexive = complex_algebra(KripkeFrame((0,), frozenset({(0, 0)})))
    assert list(one_reflexive.table) == [0, 1]

    no_successors = complex_algebra(KripkeFrame((0, 1), frozenset()))
    assert list(no_successors.table) == [0, 0, 0, 0]

    with pytest.raises(ValidationError):
        KripkeFrame((0,), frozenset({(0, 1)}))


def test_wheel_basics():
    w5 = wheel(5)
    assert w5.alg.size == 64
    hub = w5.alg.element(1 << 5)
    assert w5.apply(hub) == w5.alg.one
    assert w5.apply(w5.alg.element(1)).bits == 0b110011  # {0,1,4,h}
    assert w5.apply(w5.apply(w5.alg.element(1))) == w5.alg.one
    with pytest.raises(UsageError, match="n >= 5"):
        wheel(4)


@pytest.mark.parametrize("n", [5, 7])
def test_wheel_double_application_tops_out(n):
    w = wheel(n)
    twice = w.table[w.table]
    assert twice[0] == 0
    assert bool((twice[1:] == w.alg.mask).all())


def test_frame_product_componentwise():
    w5 = wheel(5)
    prod = frame_product(w5, w5)
    n = 6
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = int(rng.integers(64)), int(rng.integers(64))
        got = prod.apply(prod.alg.element((a << n) | b)).bits
        assert got == (int(w5.table[a]) << n) | int(w5.table[b])
    # disjoint operation images at the mixed corners
    fa = prod.apply(prod.alg.element(63 << n))
    fb = prod.apply(prod.alg.element(63))
    assert fa & fb == prod.alg.zero
    assert check_property(prod, "normal").holds


def test_star_cases():
    base = identity_frame(2)
    st = star(base)
    n = 2
    assert st.apply(st.alg.element(0b10 << n)).bits == 0b10 << n   # <x,0>
    assert st.apply(st.alg.element((0b01 << n) | 0b10)).bits == st.alg.mask
    assert st.apply(st.alg.zero) == st.alg.zero
    # extensiveness passes through the construction
    assert check_property(base, "extensive").holds
    assert check_property(st, "extensive").holds


def test_sharp_border_rows_and_preconditions():
    w5 = wheel(5)
    sh = sharp(w5)
    n, size = 6, 64
    top = size - 1
    for a in (1, 17, 40):
        got = sh.apply(sh.alg.element((a << n) | top)).bits
        want = ((top ^ int(w5.table[top ^ a])) << n) | top  # <-f(-a), 1>
        assert got == want
        got0 = sh.apply(sh.alg.element(a << n)).bits
        assert got0 == int(w5.table[a]) << n                # <f(a), 0>
    assert sh.apply(sh.alg.zero) == sh.alg.zero
    assert check_property(sh, "semi_complemented").holds

    with pytest.raises(UsageError, match="normal"):
        sharp(negation_frame(3))
    with pytest.raises(UsageError, match="at least 8"):
        sharp(identity_frame(2))


def test_flat_cases():
    base = wheel(5)
    fl = flat(base)
    n, top = 6, 63
    a = 5
    fa = int(base.table[a])
    assert fl.apply(fl.alg.element(a << n)).bits == fa << n          # <a,0>
    assert fl.apply(fl.alg.element(a)).bits == fa                    # <0,a>
    assert fl.apply(fl.alg.element((a << n) | top)).bits == (fa << n) | top
    assert fl.apply(fl.alg.element((top << n) | a)).bits == (top << n) | fa
    assert fl.apply(fl.alg.element((5 << n) | 9)) == fl.alg.one      # interior
    assert not flat_condition(base)
    assert flat_condition(frame_product(base, base))


def test_family_frame_examples():
    fa = family_frame("A", finite_set((2,)))
    assert fa.apply(EMPTY) == finite_set((0,))
    assert fa.apply(MULT4) == NATS
    assert fa.apply(cofinite_set((0, 1, 2))) == NATS
    assert fa.apply(cofinite_set((0, 1))) == cofinite_set((0, 1))

    fc = family_frame("C", finite_set((3,)))
    assert fc.apply(finite_set((1,))) == finite_set((1, 2))
    assert fc.apply(EVENS) == EVENS   # e_star fixed point

    fb = family_frame("B", finite_set((1,)))
    assert fb.apply(NATS) == cofinite_set((0,))
    assert fb.apply(finite_set((0, 1))) == EMPTY   # {0,1} = {0..n} with n=1
    assert fb.apply(finite_set((0, 1, 2))) == finite_set((0, 1, 2))

    with pytest.raises(UsageError):
        family_frame("D", EMPTY)


def test_frame_apply_dispatch():
    ident = identity_frame(2)
    assert ident.apply(ident.alg.element(2)) == ident.alg.element(2)
    w5 = wheel(5)
    assert w5.apply(w5.alg.element(1 << 5)) == w5.alg.one
    fa = family_frame("A", EMPTY)
    assert fa.apply(ODDS) == ODDS
    with pytest.raises(UsageError, match="finite frames act on Elements"):
        ident.apply(ODDS)
    with pytest.raises(UsageError, match="symbolic frames act on EPSets"):
        fa.apply(ident.alg.zero)
    with pytest.raises(UsageError, match="width 6"):
        ident.apply(w5.alg.zero)


def test_check_property_examples():
    assert check_property(wheel(5), "additive", EXHAUSTIVE).status == "holds"
    v = check_property(negation_frame(1), "monotone", EXHAUSTIVE)
    assert v.status == "fails"
    assert v.witness["x"].bits == 0 and v.witness["y"].bits == 1

    fa = family_frame("A", finite_set((1,)))
    assert check_property(fa, "extensive", Sampled(3000, 2)).status == "holds_on_sample"
    fc = family_frame("C", finite_set((3, 5)))
    assert check_property(fc, "subadditive", Sampled(3000, 2)).status == "holds_on_sample"
    # ground properties on symbolic frames get a definite verdict
    assert check_property(fa, "normal", Sampled(10, 0)).status == "fails"
    assert check_property(fc, "unit_preserving", Sampled(10, 0)).status == "holds"

    with pytest.raises(UsageError):
        check_property(fa, "extensive", EXHAUSTIVE)
    with pytest.raises(UsageError):
        check_property(wheel(5), "transitive")
    for count in (0, -3):
        with pytest.raises(UsageError):
            Sampled(count, 0)


def test_property_counterexamples_are_least():
    v = check_property(wheel(5), "idempotent", EXHAUSTIVE)
    assert v.status == "fails"
    t = wheel(5).table
    first_bad = next(x for x in range(64) if t[t[x]] != t[x])
    assert v.witness["x"].bits == first_bad


def test_constructions_preserve_normal_and_unit():
    for base in (wheel(5), frame_product(identity_frame(1), identity_frame(1))):
        assert check_property(base, "normal").holds
        assert check_property(base, "unit_preserving").holds
        for built in (star(base), sharp(base) if base.alg.size >= 8 else None,
                      flat(base)):
            if built is None:
                continue
            assert check_property(built, "normal").holds
            assert check_property(built, "unit_preserving").holds


def test_family_closure_on_sampled_sets():
    sampler = EPSetSampler(31)
    frames = [family_frame(f, finite_set((1, 4))) for f in "ABC"]
    for _ in range(10000):
        s = sampler.sample()
        for fr in frames:
            out = fr.apply(s)
            # outputs re-canonicalize to themselves: valid EPSets
            assert make_periodic(out.modulus, out.residues,
                                 dict(out.exceptions)) == out


def test_neg_op_is_pointwise_complement():
    w5 = wheel(5)
    anti = neg_op(w5)
    for x in (0, 1, 17, 63):
        assert anti.table[x] == w5.alg.mask ^ w5.table[x]


def test_subadditive_case_pairs_without_small_non_members():
    # the least non-member n_out of X: none for N, far past n_in = 0 for {0..9}
    for x, n_out in ((NATS, None), (finite_set(range(5)), 5),
                     (finite_set(range(10)), 10), (finite_set((3, 5)), 0)):
        pairs = subadditive_case_pairs(x)
        out_pairs = [(co_initial_segment_set(n_out), initial_segment_set(n_out)),
                     (co_singleton_set(n_out), EMPTY)] if n_out is not None else []
        assert len(pairs) == 16 + len(out_pairs)
        assert pairs[6:6 + len(out_pairs)] == out_pairs
        v = check_property(family_frame("C", x), "subadditive", Sampled(300, 9))
        assert v.status == "holds_on_sample", x


def test_symbolic_sampled_failure_reports_witness():
    fb = family_frame("B", EMPTY)
    v = check_property(fb, "extensive", Sampled(2000, 4))
    assert v.status == "fails" and "x" in v.witness


def test_constant_zero_frame_profile():
    z = constant_zero_frame(2)
    assert check_property(z, "normal").holds
    assert not check_property(z, "unit_preserving").holds
    assert check_property(z, "monotone").holds
