"""Exact rational intersection theory on a fixed Picard basis.

Everything is computed over `fractions.Fraction`; no floating point enters
anywhere.  Negative definiteness is decided by Sylvester's criterion on
exact leading principal minors, and linear systems are solved by Gaussian
elimination with a first-nonzero pivot rule so the witnesses built on top
of this module are bit-for-bit reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DegenerateConfiguration, IncompatibleSurfaces

Q = Fraction


def rational(value: int | str | Fraction) -> Q:
    """Coerce ints, Fractions, or "p/q" strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def format_rational(value: Q) -> str:
    """Render as "p/q", or plain "p" for integers (the wire format)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class PicardLattice:
    """A free abelian group with named basis and symmetric pairing."""

    labels: tuple[str, ...]
    gram: tuple[tuple[Q, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise ValueError("gram matrix does not match basis size")
        for i in range(n):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, (Q(0),) * self.rank)

    def basis_class(self, label: str) -> "DivisorClass":
        i = self.labels.index(label)
        coords = tuple(Q(1) if j == i else Q(0) for j in range(self.rank))
        return DivisorClass(self, coords)

    def extended(self, label: str) -> "PicardLattice":
        """Orthogonal rank-one extension by a (-1)-class (a blow-up)."""
        if label in self.labels:
            raise ValueError(f"basis label {label!r} already in use")
        n = self.rank
        rows = [row + (Q(0),) for row in self.gram]
        rows.append(tuple(Q(0) if j < n else Q(-1) for j in range(n + 1)))
        return PicardLattice(self.labels + (label,), tuple(rows))

    @cached_property
    def _sparse_gram(self):
        # the pairing is diagonal outside a small base block; split it so
        # dot products cost O(shared support) instead of O(rank^2)
        diag = []
        off = []
        for i in range(self.rank):
            row = self.gram[i]
            if row[i]:
                diag.append((i, row[i]))
            for j in range(i + 1, self.rank):
                if row[j]:
                    off.append((i, j, row[j]))
        return tuple(diag), tuple(off)

    def pair(self, a: tuple[Q, ...], b: tuple[Q, ...]) -> Q:
        diag, off = self._sparse_gram
        total = Q(0)
        for i, g in diag:
            ai = a[i]
            if ai:
                bi = b[i]
                if bi:
                    total += ai * g * bi
        for i, j, g in off:
            cross = a[i] * b[j] + a[j] * b[i]
            if cross:
                total += g * cross
        return total


@dataclass(frozen=True)
class DivisorClass:
    """An exact-rational vector in the Picard basis of one surface."""

    lattice: PicardLattice
    coords: tuple[Q, ...]

    def __post_init__(self):
        if len(self.coords) != self.lattice.rank:
            raise ValueError("coordinate length does not match Picard rank")

    def _check(self, other: "DivisorClass") -> None:
        if self.lattice != other.lattice:
            raise IncompatibleSurfaces("incompatible surfaces")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(
            self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(
            self.lattice, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.lattice, tuple(-a for a in self.coords))

    def scale(self, factor: int | Q) -> "DivisorClass":
        f = rational(factor)
        return DivisorClass(self.lattice, tuple(f * a for a in self.coords))

    def dot(self, other: "DivisorClass") -> Q:
        self._check(other)
        return self.lattice.pair(self.coords, other.coords)

    @property
    def square(self) -> Q:
        return self.lattice.pair(self.coords, self.coords)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


@dataclass(frozen=True)
class IntersectionMatrix:
    """Symmetric pairing matrix of a finite list of catalog curves."""

    curve_ids: tuple[str, ...]
    entries: tuple[tuple[Q, ...], ...]

    def __post_init__(self):
        n = len(self.curve_ids)
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError("entries do not form a square matrix over curve_ids")
        for i in range(n):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("intersection matrix must be symmetric")

    @property
    def size(self) -> int:
        return len(self.curve_ids)


def intersect(d1: DivisorClass, d2: DivisorClass) -> Q:
    """Bilinear pairing of two classes on the same surface."""
    return d1.dot(d2)


def determinant(rows: list[list[Q]]) -> Q:
    """Exact determinant by elimination with first-nonzero pivoting."""
    n = len(rows)
    work = [list(row) for row in rows]
    det = Q(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            return Q(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = work[r][col] / pivot
            if factor:
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


def is_negative_definite(matrix: IntersectionMatrix) -> bool:
    """Sylvester's criterion: (-1)^k det(leading k-minor) > 0 for all k.

    The empty matrix is vacuously negative definite.
    """
    rows = [list(row) for row in matrix.entries]
    for k in range(1, matrix.size + 1):
        minor = determinant([row[:k] for row in rows[:k]])
        if minor == 0:
            return False
        if (minor > 0) != (k % 2 == 0):
            return False
    return True


def solve_linear(matrix: IntersectionMatrix, rhs: list[Q] | tuple[Q, ...]) -> tuple[Q, ...]:
    """Exact solution of matrix @ x = rhs (Gauss-Jordan, first-nonzero pivot)."""
    n = matrix.size
    if len(rhs) != n:
        raise ValueError("right-hand side length does not match matrix size")
    if n == 0:
        return ()
    aug = [list(row) + [rational(rhs[i])] for i, row in enumerate(matrix.entries)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise DegenerateConfiguration("degenerate configuration")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [a / pivot for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))
