"""Powerset algebra basics: operations, enumeration, axioms."""

import pytest

from cep_lab.core import (ATOM_CAP, Element, FiniteAlgebra, ResourceLimitError,
                          UsageError)


def test_make_powerset_sizes():
    assert FiniteAlgebra(1).size == 2
    assert FiniteAlgebra(2).size == 4
    assert FiniteAlgebra(ATOM_CAP).mask == 2 ** ATOM_CAP - 1


def test_atom_cap_exceeded():
    with pytest.raises(ResourceLimitError, match="atom cap exceeded"):
        FiniteAlgebra(25)
    with pytest.raises(UsageError):
        FiniteAlgebra(0)


def test_boolean_op_examples():
    alg = FiniteAlgebra(2)
    e = alg.element
    assert e(0b01) & e(0b11) == e(0b01)
    assert ~(e(0b10) ^ e(0b10)) == alg.one
    assert ~(e(0b01) ^ e(0b11)) == e(0b01)
    assert ~e(0b01) == e(0b10)
    assert ~e(0b11) | e(0b01) == e(0b01)


def test_boolean_op_width_errors():
    alg = FiniteAlgebra(2)
    other = FiniteAlgebra(3).zero
    for op in (Element.__and__, Element.__or__, Element.__xor__, Element.leq):
        with pytest.raises(UsageError, match="width mismatch"):
            op(alg.zero, other)


def test_leq_examples():
    alg = FiniteAlgebra(2)
    e = alg.element
    assert alg.zero.leq(e(0b10))
    assert e(0b01).leq(e(0b11))
    assert not e(0b10).leq(e(0b01))


def test_enumerate():
    alg = FiniteAlgebra(2)
    assert [e.bits for e in alg.atoms()] == [0b01, 0b10]
    assert [e.bits for e in alg.coatoms()] == [0b10, 0b01]
    assert [e.bits for e in FiniteAlgebra(1).elements()] == [0, 1]


def test_element_str_is_msb_first():
    assert str(Element(0b01, 2)) == "01"
    assert str(Element(0b100, 3)) == "100"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_boolean_algebra_axioms_exhaustive(n):
    alg = FiniteAlgebra(n)
    elems = list(alg.elements())
    for x in elems:
        assert x | ~x == alg.one
        assert x & ~x == alg.zero
        assert ~~x == x
        assert x | alg.zero == x
        assert x & alg.one == x
        for y in elems:
            assert x & y == y & x
            assert x | y == y | x
            assert x & (x | y) == x
            assert x | (x & y) == x
            for z in elems:
                assert x & (y | z) == (x & y) | (x & z)
                assert (x & y) & z == x & (y & z)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bicond_and_order_compatibility(n):
    alg = FiniteAlgebra(n)
    elems = list(alg.elements())
    for x in elems:
        for y in elems:
            assert (~(x ^ y) == alg.one) == (x == y)
            assert x.leq(y) == ((x | y) == y)
