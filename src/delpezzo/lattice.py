"""Exact rational intersection theory on a fixed Picard basis.

A Picard lattice is stored as what it is: the integral Gram block of the
minimal base, then one orthogonal (-1)-axis per blow-up.  A blow-up appends
a label and nothing else.

A divisor class is a tuple of integer numerators over one positive
denominator, in lowest terms.  Catalog curves and K are integral, so class
arithmetic runs on Python ints, and a pairing is one integer dot product
with the first class's dual vector, divided once by the two denominators.
One kernel gives that dual vector: ``dual_entries``, which reads a class as
its nonzeros, (positions, values); a dense class passes every position.  A
catalog curve usually has one to three nonzero coordinates, and it is
stored as just those, so ``weighted_sum`` also sums integer-weighted
classes at their nonzeros only.
Results leave this module as `fractions.Fraction`, apart from the integer
solve that the Zariski rounds, the contraction and the witness read; no
floating point enters anywhere.

Two curves on these smooth surfaces meet in an integer, so an intersection
matrix holds ints.  Both questions asked of one -- is it negative definite,
and what solves it -- are answered by one fraction-free Bareiss elimination
over the integers (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22 (1968)), with
nothing to rescale.  Its pivot rule is first-nonzero row, so the witnesses
built on top of this module are bit-for-bit reproducible, and it runs at
most once per `IntersectionMatrix`: every later test or solve on the same
matrix replays the recorded steps.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import chain

from .errors import DegenerateConfiguration, IncompatibleSurfaces, NumberTooLong

Q = Fraction


def rational(value: int | str | Fraction) -> Q:
    """Coerce ints, Fractions, or "p/q" strings to an exact rational.  A
    bool is not taken for an int."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def format_rational(value: Q) -> str:
    """Render a Fraction or an int as "p/q", or plain "p" for integers (the
    wire format)."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # a numerator or denominator too long for str
        raise NumberTooLong() from None


class Frozen:
    """Refuses attribute assignment after construction, as a frozen record
    does; an ``__init__`` sets its slots through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PicardLattice(Frozen):
    """A free abelian group with named basis and symmetric integral pairing.

    Every surface here is an iterated blow-up of a minimal base, and each
    blow-up adds one class E with E^2 = -1 orthogonal to everything before
    it.  So ``gram`` holds only the base block: the pairing on the first
    ``len(gram)`` labels (1x1 for P2, 2x2 for Hirzebruch and ruled bases),
    as integers.  Every label after the block is an orthogonal (-1)-axis.
    The labels are distinct.
    """

    __slots__ = ("labels", "gram")

    def __init__(self, labels: tuple[str, ...], gram: tuple[tuple[int, ...], ...]):
        n = len(gram)
        if n > len(labels) or any(len(row) != n for row in gram):
            raise ValueError("gram matrix does not match basis size")
        if len(set(labels)) != len(labels):
            label = next(x for i, x in enumerate(labels) if x in labels[:i])
            raise ValueError(f"basis label {label!r} already in use")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "gram", _symmetric_integers(gram, "gram matrix"))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels == other.labels and self.gram == other.gram

    def __hash__(self):
        return hash((self.labels, self.gram))

    def __repr__(self):
        return f"PicardLattice(labels={self.labels!r}, gram={self.gram!r})"

    @property
    def rank(self) -> int:
        return len(self.labels)

    def zero(self) -> "DivisorClass":
        return _divisor(self, (0,) * self.rank, 1)

    def basis_class(self, label: str) -> "DivisorClass":
        i = self.labels.index(label)
        return _divisor(self, (0,) * i + (1,) + (0,) * (self.rank - i - 1), 1)

    def pair(self, a: "DivisorClass", b: "DivisorClass") -> Q:
        x, y = a.nums, b.nums
        total = sum(g * y[k] for k, g in dual_entries(self.gram, range(len(x)), x))
        den = a.den * b.den
        return Fraction(total) if den == 1 else Fraction(total, den)


def _symmetric_integers(rows, what: str) -> tuple[tuple[int, ...], ...]:
    """A square matrix's rows as tuples of ints: an int-valued rational is
    stored as its int, and any other entry, or an asymmetric matrix, is
    refused."""
    block = tuple(map(tuple, rows))
    if not set(map(type, chain.from_iterable(block))) <= {int}:
        try:
            values = [[rational(x) for x in row] for row in block]
            if any(x.denominator != 1 for row in values for x in row):
                raise ValueError
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError(f"{what} entries must be integers") from None
        block = tuple(tuple(x.numerator for x in row) for row in values)
    if block != tuple(zip(*block)):
        raise ValueError(f"{what} must be symmetric")
    return block


def dual_entries(gram, positions, values):
    """The dual vector of the integral class with ``values`` at the
    ascending ``positions`` (a dense class passes every position), as an
    iterator over its entries, (axis, value) pairs: the base block's nonzero
    rows times the class on the block, then -v on each (-1)-axis the class
    has.  Every other entry is zero, so the class pairs with a class y as
    the sum of g * y[axis] over the entries.  A curve with k coordinates off
    the block gives at most k + len(gram) entries, whatever the rank."""
    n = len(gram)
    cut = bisect_left(positions, n)  # the block's coordinates come first
    block = []
    if cut:
        head, head_values = positions[:cut], values[:cut]
        for k, row in enumerate(gram):
            g = sum(map(operator.mul, map(row.__getitem__, head), head_values))
            if g:
                block.append((k, g))
    return chain(block, zip(positions[cut:], map(operator.neg, values[cut:])))


def numerators(values) -> tuple[tuple[int, ...], int]:
    """Rationals as integer numerators over their least common denominator."""
    den = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


def weighted_sum(terms, size: int) -> tuple[list[int], int]:
    """The sum of c * v over (sparse vector v, rational c) pairs, as ``size``
    integer numerators over the least common denominator of the c.  A
    vector is (positions, values) with ints as values; a dense one passes
    every position.  Each term costs its number of positions."""
    # an int weight has denominator 1 and needs no Fraction
    terms = [(v, c if type(c) is int else rational(c)) for v, c in terms]
    den = math.lcm(*(c.denominator for _, c in terms))
    total = [0] * size
    for (positions, values), c in terms:
        factor = c.numerator * (den // c.denominator)
        for k, v in zip(positions, values):
            total[k] += factor * v
    return total, den


class DivisorClass:
    """A rational class in the Picard basis of one surface.

    Stored as integer numerators ``nums`` over one positive denominator
    ``den``, in lowest terms (no prime divides ``den`` and every numerator),
    so two classes are equal exactly when their values are.  Catalog curves
    and K are integral (``den == 1``); only Zariski parts need a
    denominator.  Treat instances as immutable, like ``Fraction``s; the
    read-only ``coords`` gives the values as ``Fraction``s.
    """

    __slots__ = ("lattice", "nums", "den")

    def __init__(self, lattice: PicardLattice, coords):
        values = [rational(x) for x in coords]
        if len(values) != lattice.rank:
            raise ValueError("coordinate length does not match Picard rank")
        self.lattice = lattice
        self.nums, self.den = numerators(values)

    @property
    def coords(self) -> tuple[Q, ...]:
        den = self.den
        if den == 1:
            return tuple(map(Fraction, self.nums))
        return tuple(Fraction(v, den) for v in self.nums)

    def __eq__(self, other):
        if other.__class__ is not DivisorClass:
            return NotImplemented
        return (
            self.den == other.den
            and self.nums == other.nums
            and self.lattice == other.lattice
        )

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"DivisorClass(lattice={self.lattice!r}, coords={self.coords!r})"

    def _check(self, other: "DivisorClass") -> None:
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise IncompatibleSurfaces("incompatible surfaces")

    def _combine(self, other: "DivisorClass", op) -> "DivisorClass":
        self._check(other)
        x, y, den = self.nums, other.nums, self.den
        if den != other.den:
            g = math.gcd(den, other.den)
            x = [v * (other.den // g) for v in x]
            y = [v * (den // g) for v in y]
            den = den // g * other.den
        return _reduced(self.lattice, tuple(map(op, x, y)), den)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, operator.add)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "DivisorClass":
        return _divisor(self.lattice, tuple(-v for v in self.nums), self.den)

    def scale(self, factor: int | Q) -> "DivisorClass":
        f = rational(factor)
        p, q = f.numerator, f.denominator
        return _reduced(self.lattice, tuple(p * v for v in self.nums), self.den * q)

    def dot(self, other: "DivisorClass") -> Q:
        self._check(other)
        return self.lattice.pair(self, other)

    @property
    def square(self) -> Q:
        return self.lattice.pair(self, self)

    def is_zero(self) -> bool:
        return not any(self.nums)


def _divisor(lattice: PicardLattice, nums: tuple[int, ...], den: int) -> DivisorClass:
    """The class nums/den, which the caller guarantees is in lowest terms."""
    d = object.__new__(DivisorClass)
    d.lattice, d.nums, d.den = lattice, nums, den
    return d


def _reduced(lattice: PicardLattice, nums: tuple[int, ...], den: int) -> DivisorClass:
    """The class nums/den brought to lowest terms; den must be positive."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple(v // g for v in nums)
            den //= g
    return _divisor(lattice, nums, den)


class IntersectionMatrix(Frozen):
    """Symmetric pairing matrix of a finite list of catalog curves.  Two
    curves on a smooth surface meet in an integer, so the entries are ints:
    an int-valued rational is stored as its int, and any other entry raises
    ValueError, as a ``PicardLattice`` Gram block does."""

    __slots__ = ("curve_ids", "entries", "_eliminated")

    def __init__(self, curve_ids: tuple[str, ...], entries: tuple[tuple[int, ...], ...]):
        n = len(curve_ids)
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("entries do not form a square matrix over curve_ids")
        object.__setattr__(self, "curve_ids", curve_ids)
        object.__setattr__(self, "entries", _symmetric_integers(entries, "intersection matrix"))
        object.__setattr__(self, "_eliminated", None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.curve_ids == other.curve_ids and self.entries == other.entries

    def __hash__(self):
        return hash((self.curve_ids, self.entries))

    def __repr__(self):
        return f"IntersectionMatrix(curve_ids={self.curve_ids!r}, entries={self.entries!r})"

    @property
    def size(self) -> int:
        return len(self.curve_ids)

    @property
    def _elimination(self) -> "_Elimination":
        """The matrix's one elimination, computed on first use."""
        if self._eliminated is None:
            object.__setattr__(self, "_eliminated", _bareiss(self.entries))
        return self._eliminated


class _Elimination(namedtuple("_Elimination", "size steps")):
    """The recorded steps of one fraction-free elimination of an integer
    matrix.

    Step k holds the offset of the row swapped into place (0 for none), the
    pivot row of the upper triangular factor (its first entry is the pivot)
    and the column below the pivot.  There are fewer steps than rows when a
    column has no nonzero pivot left: the matrix is singular.
    """

    __slots__ = ()

    @property
    def negative_definite(self) -> bool:
        # with no swap, pivot k is the k-th leading minor
        return len(self.steps) == self.size and all(
            swap == 0 and (top[0] < 0) == (k % 2 == 0)
            for k, (swap, top, _) in enumerate(self.steps)
        )

    def solve(self, b: list[int] | tuple[int, ...]) -> tuple[list[int], int]:
        """The solution for an integer right-hand side, as integer numerators
        over one positive denominator (not in lowest terms).  Replay the steps
        on b, then back-substitute in integers: y = det * x is integral by
        Cramer's rule."""
        if len(self.steps) < self.size:
            raise DegenerateConfiguration("degenerate configuration")
        if not self.steps:
            return [], 1
        b = list(b)
        previous = 1
        for k, (swap, top, column) in enumerate(self.steps):
            b[k], b[k + swap] = b[k + swap], b[k]
            pivot, bk = top[0], b[k]
            for i, f in enumerate(column, k + 1):
                b[i] = (b[i] * pivot - f * bk) // previous
            previous = pivot
        det = self.steps[-1][1][0]
        y = [0] * self.size
        for k in reversed(range(self.size)):
            top = self.steps[k][1]
            tail = sum(map(operator.mul, top[1:], y[k + 1:]))
            y[k] = (det * b[k] - tail) // top[0]
        # x = y / det, over a positive denominator
        if det < 0:
            return [-v for v in y], -det
        return y, det


def _bareiss(entries) -> _Elimination:
    """Fraction-free elimination over the integers, first-nonzero row pivot.

    Each step divides exactly by the previous pivot (Sylvester's identity),
    so every entry stays an integer minor of the matrix.
    """
    rows = list(entries)
    steps = []
    previous = 1
    while rows:
        swap = next((r for r, row in enumerate(rows) if row[0]), None)
        if swap is None:
            break
        rows[0], rows[swap] = rows[swap], rows[0]
        top = rows[0]
        pivot = top[0]
        column = tuple(row[0] for row in rows[1:])
        steps.append((swap, tuple(top), column))
        rows = [
            [(x * pivot - f * y) // previous for x, y in zip(row[1:], top[1:])]
            for f, row in zip(column, rows[1:])
        ]
        previous = pivot
    return _Elimination(len(entries), tuple(steps))


def is_negative_definite(matrix: IntersectionMatrix) -> bool:
    """Sylvester's criterion, read off the pivots of the matrix's one
    elimination: no row swap, and pivot k (the k-th leading minor) has sign
    (-1)^k.  The elimination runs at most once per matrix.

    The empty matrix is vacuously negative definite.
    """
    return matrix._elimination.negative_definite


def solve_linear(matrix: IntersectionMatrix, rhs: list[Q] | tuple[Q, ...]) -> tuple[Q, ...]:
    """Exact solution of matrix @ x = rhs.

    Replays the matrix's one elimination (computed at most once per matrix)
    on the right-hand side and back-substitutes; raises
    DegenerateConfiguration when the matrix is singular.
    """
    b, rhs_den = numerators([rational(x) for x in rhs])
    nums, den = _solve_integers(matrix, b)
    return tuple(Fraction(v, den * rhs_den) for v in nums)


def _solve_integers(matrix: IntersectionMatrix, b) -> tuple[list[int], int]:
    """``solve_linear`` for an integer right-hand side, without a Fraction:
    integer numerators over one positive denominator, not in lowest terms."""
    if len(b) != matrix.size:
        raise ValueError("right-hand side length does not match matrix size")
    return matrix._elimination.solve(b)
