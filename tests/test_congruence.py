"""Congruence machinery against brute-force oracles on small carriers."""

import random

import numpy as np
import pytest

from cep_lab.congruence import (Subalgebra, all_subalgebras, cep_check_full,
                                cep_refute, congruence_lattice,
                                congruential_in_subalgebra,
                                generate_subalgebra, is_congruential,
                                is_simple, largest_congruential_below,
                                subalgebra_frame)
from cep_lab.core import FiniteAlgebra, ResourceLimitError, UsageError
from cep_lab.frames import (FiniteFrame, KripkeFrame, complex_algebra,
                            family_frame, frame_product, identity_frame,
                            neg_op, negation_frame, sharp, star, wheel)
from cep_lab.periodic import EVENS, finite_set


def random_frame(rng, atoms):
    alg = FiniteAlgebra(atoms)
    table = np.array([rng.randrange(alg.size) for _ in range(alg.size)],
                     dtype=np.uint32)
    return FiniteFrame(alg, table, f"rand{atoms}")


def all_two_atom_frames():
    alg = FiniteAlgebra(2)
    for code in range(256):
        table = np.array([code & 3, (code >> 2) & 3, (code >> 4) & 3,
                          (code >> 6) & 3], dtype=np.uint32)
        yield FiniteFrame(alg, table, f"op{code}")


def congruential_by_pairs(frame, a):
    """Oracle: a is congruential iff agreeing-below-a inputs give
    agreeing-below-a outputs."""
    ab = a.bits
    t = frame.table
    size = frame.alg.size
    for x in range(size):
        for y in range(size):
            if x & ab == y & ab and int(t[x]) & ab != int(t[y]) & ab:
                return False
    return True


def test_is_congruential_trivial_elements():
    fr = wheel(5)
    assert is_congruential(fr, fr.alg.one)
    assert is_congruential(fr, fr.alg.zero)


def test_condition_equivalence_on_all_two_atom_frames():
    for fr in all_two_atom_frames():
        for a in fr.alg.elements():
            assert is_congruential(fr, a) == congruential_by_pairs(fr, a)


def test_lcb_identity_frame_fixes_everything():
    fr = identity_frame(3)
    for a in fr.alg.elements():
        assert largest_congruential_below(fr, a) == a


def test_lcb_matches_bruteforce_maximum():
    rng = random.Random(42)
    frames = list(all_two_atom_frames()) + [random_frame(rng, 3) for _ in range(100)]
    for fr in frames:
        congruentials = [a for a in fr.alg.elements() if is_congruential(fr, a)]
        for c in fr.alg.elements():
            best = max((a.bits for a in congruentials
                        if a.bits & c.bits == a.bits), default=0)
            got = largest_congruential_below(fr, c)
            assert got.bits == best
            assert is_congruential(fr, got)


def test_congruential_join_closure():
    rng = random.Random(9)
    for fr in [random_frame(rng, 3) for _ in range(60)]:
        cong = [a for a in fr.alg.elements() if is_congruential(fr, a)]
        for a in cong:
            for b in cong:
                assert is_congruential(fr, a | b)


def test_congruence_lattice_examples():
    four_corner = identity_frame(2)
    lat = congruence_lattice(four_corner)
    assert len(lat) == 4 and len(lat.nontrivial()) == 2

    assert len(congruence_lattice(identity_frame(3))) == 8  # pure-BA frame

    sh = sharp(wheel(5))
    lat = congruence_lattice(sh)
    assert [e.bits for e in lat.elements] == [0, sh.alg.mask]

    with pytest.raises(ResourceLimitError, match="is_simple"):
        congruence_lattice(sharp(wheel(7)))


def test_is_simple_agrees_with_lattice():
    rng = random.Random(3)
    pool = [random_frame(rng, 3) for _ in range(40)]
    pool += [identity_frame(2), negation_frame(2), sharp(wheel(5))]
    for fr in pool:
        assert is_simple(fr) == (len(congruence_lattice(fr)) == 2)


def test_is_congruential_fails_inside_simple_frames():
    st = star(frame_product(wheel(5), identity_frame(1)))
    del st  # too big to scan here; use the small star instead
    st = star(frame_product(identity_frame(1), identity_frame(1)))
    for bits in (1, 2, 7, 11):
        assert not is_congruential(st, st.alg.element(bits))


def test_generate_subalgebra_examples():
    w5 = wheel(5)
    sub = generate_subalgebra(w5, ())
    assert {e.bits for e in sub.elements} == {0, w5.alg.mask}
    assert sub.complete

    st = star(frame_product(identity_frame(1), identity_frame(1)))
    corners = generate_subalgebra(st, (st.alg.element(0b1100),))
    assert {e.bits for e in corners.elements} == {0, 0b0011, 0b1100, 0b1111}


def test_generate_subalgebra_symbolic_bounded():
    from cep_lab.congruence import four_block_predicate

    fa = family_frame("A", finite_set((1,)))
    sub = generate_subalgebra(fa, (EVENS,), bound=200)
    assert not sub.complete          # new finite sets keep appearing
    assert len(sub.elements) >= 200
    assert all(four_block_predicate(s) for s in sub.elements)


def test_subalgebra_frame_isomorphism():
    st = star(frame_product(identity_frame(1), identity_frame(1)))
    corners = generate_subalgebra(st, (st.alg.element(0b1100),))
    small, iso = subalgebra_frame(st, corners)
    assert small.alg.atom_count == 2
    for big, little in iso.items():
        assert iso[st.apply(big)] == small.apply(little)
        assert iso[~big] == ~little


def test_all_subalgebras_and_caps():
    neg2 = negation_frame(2)
    subs = all_subalgebras(neg2)
    assert [len(s) for s in subs] == [2, 4]
    with pytest.raises(ResourceLimitError, match="cep_refute"):
        all_subalgebras(wheel(5))


def test_cep_check_full_examples():
    assert cep_check_full(negation_frame(2)).holds

    # every complex algebra over two worlds extends congruences
    worlds = (0, 1)
    pairs = [(a, b) for a in worlds for b in worlds]
    for bits in range(16):
        rel = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        assert cep_check_full(complex_algebra(KripkeFrame(worlds, rel))).holds

    st = star(frame_product(identity_frame(1), identity_frame(1)))
    verdict = cep_check_full(st)
    assert not verdict.holds
    # the first failure is a four-corner-shaped subalgebra
    assert len(verdict.subalgebra) == 4
    assert congruential_in_subalgebra(st, verdict.subalgebra, verdict.element)
    # the canonical corners fail too
    corners = generate_subalgebra(st, (st.alg.element(0b1100),))
    assert cep_refute(st, corners, st.alg.element(0b0011)).refuted

    with pytest.raises(ResourceLimitError):
        cep_check_full(wheel(5))


def test_cep_refute_examples():
    sh = sharp(wheel(5))
    low = (1 << 6) - 1
    corners = Subalgebra(frozenset(sh.alg.element(b)
                                   for b in (0, low, low << 6, sh.alg.mask)))
    verdict = cep_refute(sh, corners, sh.alg.element(low))
    assert verdict.refuted and verdict.witness.bits == low << 6
    assert verdict.restriction_bound.bits == 0

    ident = identity_frame(2)
    sub = generate_subalgebra(ident, (ident.alg.element(1),))
    for a in sub.sorted_elements():
        assert not cep_refute(ident, sub, a).refuted

    with pytest.raises(UsageError, match="congruential"):
        st = star(frame_product(identity_frame(1), identity_frame(1)))
        whole = generate_subalgebra(st, tuple(st.alg.elements()))
        cep_refute(st, whole, st.alg.element(1))


def bruteforce_extension_exists(frame, sub, a):
    """Oracle: some congruence of the big frame restricts to exactly the
    subalgebra congruence generated by a."""
    members = sub.elements
    for c in frame.alg.elements():
        if not is_congruential(frame, c):
            continue
        if all((b.bits & c.bits == c.bits) == (b.bits & a.bits == a.bits)
               for b in members):
            return True
    return False


def test_cep_refute_agrees_with_bruteforce():
    rng = random.Random(12)
    frames = list(all_two_atom_frames())[:128] + \
        [random_frame(rng, 3) for _ in range(60)]
    for fr in frames:
        for sub in all_subalgebras(fr):
            for a in sub.sorted_elements():
                if not congruential_in_subalgebra(fr, sub, a):
                    continue
                got = cep_refute(fr, sub, a).refuted
                assert got == (not bruteforce_extension_exists(fr, sub, a))


def test_antitone_companion_same_congruences():
    rng = random.Random(8)
    frames = list(all_two_atom_frames()) + [random_frame(rng, 3) for _ in range(60)]
    for fr in frames:
        assert congruence_lattice(fr).elements == \
            congruence_lattice(neg_op(fr)).elements
