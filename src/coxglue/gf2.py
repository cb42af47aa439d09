"""GF(2) linear algebra on packed int bitsets.

A matrix is stored as one Python int per row, bit j = entry in column j,
so row operations are word-parallel for free.  One XOR-basis kernel,
`_basis`, serves rank, column independence and solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch


def bits(m: int) -> Iterator[int]:
    """The indices of the set bits of m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


@dataclass(frozen=True)
class Gf2Matrix:
    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != self.rows:
            raise DimensionMismatch("row count mismatch")
        mask = (1 << self.cols) - 1
        if any(b & ~mask for b in self.bits):
            raise DimensionMismatch("bits outside column range")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "Gf2Matrix":
        rws = [tuple(r) for r in rows]
        ncols = len(rws[0]) if rws else 0
        for i, r in enumerate(rws):
            if len(r) != ncols:
                raise DimensionMismatch(f"row {i}: {len(r)} entries, not {ncols}")
            if not all(type(x) is int and 0 <= x <= 1 for x in r):
                raise ValueError(f"row {i} holds an entry other than 0 or 1")
        return cls(len(rws), ncols, tuple(
            sum(bit << j for j, bit in enumerate(r)) for r in rws))

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def row_list(self) -> list[list[int]]:
        return [[(b >> j) & 1 for j in range(self.cols)] for b in self.bits]

    def column(self, j: int) -> int:
        """Column j packed as an int (bit i = row i)."""
        if type(j) is not int or not 0 <= j < self.cols:
            raise DimensionMismatch(f"no column {j!r} in {self.cols} columns")
        out = 0
        for i, b in enumerate(self.bits):
            out |= ((b >> j) & 1) << i
        return out

    def transpose(self) -> "Gf2Matrix":
        return Gf2Matrix(self.cols, self.rows,
                         tuple(self.column(j) for j in range(self.cols)))

    def __add__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch")
        return Gf2Matrix(self.rows, self.cols,
                         tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def __matmul__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimension mismatch")
        out = []
        for b in self.bits:
            acc = 0
            for k in bits(b):
                acc ^= other.bits[k]
            out.append(acc)
        return Gf2Matrix(self.rows, other.cols, tuple(out))

    def power(self, k: int) -> "Gf2Matrix":
        if type(k) is not int or k < 0:
            raise ValueError(f"power k={k!r} is not an int >= 0")
        if self.rows != self.cols:
            raise DimensionMismatch("power of non-square matrix")
        out = Gf2Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def mul_vec(self, v: int) -> int:
        """Matrix times column vector (v packed with bit j = coordinate j)."""
        out = 0
        for i, b in enumerate(self.bits):
            out |= ((b & v).bit_count() & 1) << i
        return out

    def rank(self) -> int:
        return len(_basis(self.bits))


def _basis(vectors: Iterable[int], low: int = -1) -> list[int]:
    """An XOR basis of the vectors: each is reduced by the members so far,
    at each one's lowest set bit, and joins if a bit of `low` is left.
    Bits above `low` ride along and record which vectors were summed."""
    basis: list[int] = []
    for v in vectors:
        for p in basis:
            if v & p & -p:
                v ^= p
        if v & low:
            basis.append(v)
    return basis


@dataclass(frozen=True)
class Gf2Solution:
    """Result of solving M x = t over GF(2)."""

    solution: int | None
    rank: int
    augmented_rank: int

    @property
    def consistent(self) -> bool:
        return self.solution is not None

    def solution_support(self) -> tuple[int, ...]:
        if self.solution is None:
            raise ValueError("system is inconsistent")
        return tuple(bits(self.solution))


def gf2_solve(m: Gf2Matrix, target: int) -> Gf2Solution:
    """Solve M x = t; t is packed with bit i = row i.

    Returns one solution when consistent; otherwise certifies "no solution"
    by the rank jump rank([M | t]) > rank(M).  Bit rows + j of a reduced
    column marks column j, so t, reduced, carries the solution above.
    """
    rows = m.rows
    if target >> rows:
        raise DimensionMismatch("target longer than row count")
    low = (1 << rows) - 1
    basis = _basis((m.column(j) | 1 << rows + j for j in range(m.cols)), low)
    rank = len(basis)
    t = target
    for p in basis:
        if t & p & -p:
            t ^= p
    if t & low:
        return Gf2Solution(None, rank, rank + 1)
    return Gf2Solution(t >> rows, rank, rank)


def columns_independent(m: Gf2Matrix, columns: Sequence[int]) -> bool:
    """True iff the chosen columns of M are linearly independent."""
    return len(_basis(m.column(j) for j in columns)) == len(columns)
