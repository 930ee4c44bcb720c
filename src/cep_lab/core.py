"""Finite powerset Boolean algebras with bit-pattern elements.

Every finite Boolean algebra is a powerset algebra, so an algebra is
identified by its atom count alone.  Elements are immutable bit patterns
(atom i <-> bit i); the Boolean operations are `Element`'s bitwise
operators `&`, `|`, `^`, `~` and its order `leq`.  Everything here is
pure and hashable, which the closure and scanning loops downstream rely on.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

# Hard cap on atom counts.  Carriers beyond 2**24 would make the exhaustive
# scans thrash; constructions that would exceed this fail loudly instead.
ATOM_CAP = 24


class CepLabError(Exception):
    """Base class for all library errors."""


class UsageError(CepLabError):
    """Bad arguments: wrong arity, width mismatch, unsupported strategy."""


class ResourceLimitError(CepLabError):
    """A construction or scan would exceed a configured size cap."""


class ValidationError(CepLabError):
    """Structured input (operation table, file, trace) failed validation."""


class ParseError(CepLabError):
    """Lexical or syntax error, carrying the input offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class Element(NamedTuple):
    """A carrier element: a subset of atoms encoded as a bit pattern.

    `width` is the owning algebra's atom count; patterns print MSB-first,
    so the "first block" of a product element is the high bits.
    """

    bits: int
    width: int

    def __str__(self) -> str:
        return format(self.bits, f"0{self.width}b")

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def is_one(self) -> bool:
        return self.bits == (1 << self.width) - 1

    def _check_same(self, other: "Element") -> None:
        if self.width != other.width:
            raise UsageError(
                f"width mismatch: {self.width}-bit vs {other.width}-bit element"
            )

    def __and__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.bits & other.bits, self.width)

    def __or__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.bits | other.bits, self.width)

    def __xor__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.bits ^ other.bits, self.width)

    def __invert__(self) -> "Element":
        return Element(self.bits ^ ((1 << self.width) - 1), self.width)

    def leq(self, other: "Element") -> bool:
        """Order of the algebra: x <= y iff x & y == x."""
        self._check_same(other)
        return self.bits & other.bits == self.bits


class FiniteAlgebra:
    """Powerset Boolean algebra on `atom_count` atoms (carrier size 2**n)."""

    def __init__(self, atom_count: int):
        if atom_count < 1:
            raise UsageError(f"atom_count must be >= 1, got {atom_count}")
        if atom_count > ATOM_CAP:
            raise ResourceLimitError(
                f"atom cap exceeded: {atom_count} > {ATOM_CAP}"
            )
        self.atom_count = atom_count
        self.size = 1 << atom_count
        self.mask = self.size - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteAlgebra) and other.atom_count == self.atom_count

    def __hash__(self) -> int:
        return hash(("FiniteAlgebra", self.atom_count))

    def __repr__(self) -> str:
        return f"FiniteAlgebra(atom_count={self.atom_count})"

    @property
    def zero(self) -> Element:
        return Element(0, self.atom_count)

    @property
    def one(self) -> Element:
        return Element(self.mask, self.atom_count)

    def element(self, bits: int) -> Element:
        if not 0 <= bits <= self.mask:
            raise UsageError(f"bit pattern {bits:#x} out of range for {self!r}")
        return Element(bits, self.atom_count)

    def _own(self, *xs: Element) -> None:
        for x in xs:
            if x.width != self.atom_count:
                raise UsageError(
                    f"element of width {x.width} does not belong to {self!r}"
                )

    def elements(self) -> Iterator[Element]:
        """All elements in ascending encoding (part of the contract)."""
        n = self.atom_count
        return (Element(b, n) for b in range(self.size))

    def atoms(self) -> list[Element]:
        return [Element(1 << i, self.atom_count) for i in range(self.atom_count)]

    def coatoms(self) -> list[Element]:
        """Complements of the atoms, listed in atom order."""
        return [~a for a in self.atoms()]
