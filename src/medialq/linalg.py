"""Small exact-rational matrices for representation bookkeeping.

Everything downstream needs only products, sums, ranks and kernels of tiny
integer matrices, but it needs them *exactly* (residuals must be zero, not
small) and it needs honest zero-dimensional shapes: a map out of a
0-dimensional space is an empty matrix with a definite number of rows, and
composing through it must keep shapes straight.  Floating point and shape-
less conventions both fail here, so this module keeps explicit (rows, cols)
alongside a tuple-of-tuples of ints, and Fractions where a division leaves
the integers.
"""

from __future__ import annotations

from itertools import chain


class ShapeMismatch(ValueError):
    """Two matrices (or a matrix and a space) disagree about dimensions."""


def _frac(x):
    if type(x) is int:
        return x
    from fractions import Fraction
    return x if isinstance(x, Fraction) else Fraction(x)


class Matrix:
    """An immutable rows x cols matrix over the rationals.

    `data` is a tuple of row tuples; it has length `rows` even when
    `cols == 0`, and is empty when `rows == 0` — the shape is carried
    explicitly so degenerate matrices still compose correctly.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        data = tuple(map(tuple, data))
        if not {int}.issuperset(map(type, chain.from_iterable(data))):
            data = tuple(tuple(map(_frac, row)) for row in data)
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ShapeMismatch(
                f"data does not fill a {rows}x{cols} matrix")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data!r})"

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(
                f"cannot add {self.rows}x{self.cols} and "
                f"{other.rows}x{other.cols}")
        return Matrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _frac(c)
        return Matrix(self.rows, self.cols, tuple(
            tuple(c * x for x in row) for row in self.data))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}")
        if other.rows:
            cols = tuple(zip(*other.data))
        else:
            cols = tuple(() for _ in range(other.cols))
        return Matrix(self.rows, other.cols, tuple(
            tuple(sum(a * b for a, b in zip(row, col))
                  for col in cols)
            for row in self.data))

    def transpose(self):
        return Matrix(self.cols, self.rows, tuple(zip(*self.data))
                      if self.data else tuple(() for _ in range(self.cols)))

    def with_entry(self, i, j, value):
        """A copy with entry (i, j) replaced — the mutation-testing hook."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        rows = [list(row) for row in self.data]
        rows[i][j] = value
        return Matrix(self.rows, self.cols, rows)

    @property
    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def rref(self):
        """Reduced row echelon form and the tuple of pivot columns; a pivot
        row is divided through only by a pivot other than 1 and -1."""
        m = [list(row) for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot = next((i for i in range(r, self.rows) if m[i][c] != 0),
                         None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            if m[r][c] == -1:
                m[r] = [-x for x in m[r]]
            elif m[r][c] != 1:
                from fractions import Fraction
                inv = 1 / Fraction(m[r][c])
                m[r] = [x * inv for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(self.rows, self.cols, m), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def nullspace(self):
        """A deterministic basis of the kernel, as lists of ints, and
        Fractions where a division leaves the integers.

        One basis vector per free column, in increasing column order, with
        the free variable set to 1.
        """
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            vec = [0] * self.cols
            vec[free] = 1
            for r, p in enumerate(pivots):
                vec[p] = -reduced.data[r][free]
            basis.append(vec)
        return basis

    def column_basis(self):
        """A canonical basis of the column space, as a rows x rank matrix."""
        reduced, pivots = self.transpose().rref()
        kept = Matrix(len(pivots), self.rows, reduced.data[:len(pivots)])
        return kept.transpose()


def hstack_all(mats, rows):
    """Concatenate matrices side by side; `rows` disambiguates the empty case."""
    mats = list(mats)
    if any(m.rows != rows for m in mats):
        raise ShapeMismatch("hstack needs equal row counts")
    return Matrix(rows, sum(m.cols for m in mats), tuple(
        tuple(chain.from_iterable(m.data[i] for m in mats))
        for i in range(rows)))
