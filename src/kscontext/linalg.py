"""Exact linear algebra over the rationals.

Every predicate in this module (equality of subspaces, membership of a
vector, idempotence of a projector, orthogonality) is decided exactly,
with zero tolerance.  Vectors and matrices, the API edge, carry
`fractions.Fraction` entries.  Below that edge the arithmetic is on
integers: a subspace of Q^d is stored as the reduced row-echelon basis of
its spanning set, each row scaled to coprime integers with a positive
pivot, and one fraction-free Gauss-Jordan elimination (`_echelon`)
computes it for every lattice operation.  Fractions reappear only in
`Subspace.basis` and `rref`, which divide by the pivots.  A projector's
range basis is those integer rows, so orthogonality of two projectors,
and the weight and truth value of a projector at a state, come down to
integer dot products.

The row form is unique, so two `Subspace` values compare equal iff they
describe the same set of vectors, and hashing is structural.

The lattice operations follow the usual subspace lattice:

>>> a = Subspace.from_span([Vector([0, 0, 0, 1])])
>>> orthocomplement(a).rank
3
>>> meet(a, orthocomplement(a)).rank
0
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[Fraction, int]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Vector:
    """Immutable vector with exact rational entries."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[Rational]):
        self._entries = tuple(_frac(e) for e in entries)
        if not self._entries:
            raise ValueError("a vector needs at least one entry")

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return self._entries

    @property
    def dim(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self._entries)

    def dot(self, other: "Vector") -> Fraction:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return sum((a * b for a, b in zip(self._entries, other._entries)), Fraction(0))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, i: int) -> Fraction:
        return self._entries[i]

    def __add__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Vector(a + b for a, b in zip(self._entries, other._entries))

    def __sub__(self, other: "Vector") -> "Vector":
        return self + (-other)

    def __neg__(self) -> "Vector":
        return Vector(-e for e in self._entries)

    def __mul__(self, scalar: Rational) -> "Vector":
        s = _frac(scalar)
        return Vector(s * e for e in self._entries)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return "Vector((%s))" % ", ".join(str(e) for e in self._entries)


class Matrix:
    """Immutable matrix with exact rational entries.

    Most matrices here are square operators on Q^d, but rectangular shapes
    are allowed: row reduction of stacked bases needs them.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Rational]]):
        self._rows = tuple(tuple(_frac(e) for e in row) for row in rows)
        if not self._rows or not self._rows[0]:
            raise ValueError("a matrix needs at least one row and one column")
        width = len(self._rows[0])
        if any(len(r) != width for r in self._rows):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int, m: int | None = None) -> "Matrix":
        return cls([[0] * (m or n) for _ in range(n)])

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(e == 0 for row in self._rows for e in row)

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def is_idempotent(self) -> bool:
        return self.is_square() and self @ self == self

    def column(self, j: int) -> Vector:
        return Vector(r[j] for r in self._rows)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self._rows))

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace needs a square matrix")
        return sum((self._rows[i][i] for i in range(self.nrows)), Fraction(0))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._rows[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            (a + b for a, b in zip(ra, rb)) for ra, rb in zip(self._rows, other._rows)
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            (a - b for a, b in zip(ra, rb)) for ra, rb in zip(self._rows, other._rows)
        )

    def __mul__(self, scalar: Rational) -> "Matrix":
        s = _frac(scalar)
        return Matrix((s * e for e in row) for row in self._rows)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Vector):
            if self.ncols != other.dim:
                raise ValueError(f"dimension mismatch: {self.ncols} vs {other.dim}")
            return Vector(
                sum((a * b for a, b in zip(row, other.entries)), Fraction(0))
                for row in self._rows
            )
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(f"dimension mismatch: {self.ncols} vs {other.nrows}")
            cols = other.transpose()._rows
            return Matrix(
                [
                    sum((a * b for a, b in zip(row, col)), Fraction(0))
                    for col in cols
                ]
                for row in self._rows
            )
        return NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self._rows)
        return f"Matrix([{body}])"


def primitive_integers(entries: Iterable[Rational]) -> tuple[int, ...]:
    """A rational vector scaled by a positive factor to coprime integers:
    the same direction, with no denominators left.  A zero vector is
    returned as it is, with integer entries."""
    entries = tuple(entries)
    scale = math.lcm(*(e.denominator for e in entries))
    ints = [e.numerator * (scale // e.denominator) for e in entries]
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


def _echelon(rows: Iterable[Iterable[Rational]], ncols: int):
    """Fraction-free Gauss-Jordan elimination of a row list.

    Each row is first scaled to primitive integers.  Clearing column c
    takes row <- lead[c]*row - row[c]*lead, as in Bareiss (Math. Comp. 22
    (1968) 565), but then divides the row by its gcd instead of by the
    previous pivot, so every row stays primitive.  Returns (nonzero
    reduced rows, pivot column per row): the reduced row-echelon rows,
    each scaled to coprime integers with a positive pivot.  Pivot columns
    are strictly increasing and cleared in every other row, so the output
    is as unique for a given row space as the RREF.
    """
    work = [primitive_integers(r) for r in rows]
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        hit = next((i for i in range(top, len(work)) if work[i][col]), None)
        if hit is None:
            continue
        lead = work[hit]
        if lead[col] < 0:
            lead = tuple(-x for x in lead)
        work[hit], work[top] = work[top], lead
        p = lead[col]
        for i, row in enumerate(work):
            f = row[col]
            if f and i != top:
                work[i] = primitive_integers(
                    [p * a - f * b for a, b in zip(row, lead)])
        pivots.append(col)
        if len(pivots) == len(work):
            break
    return work[: len(pivots)], pivots


def rref(m: Matrix) -> Matrix:
    """Unique reduced row-echelon form of `m`, same shape, exact over Q."""
    reduced, pivots = _echelon(m.rows, m.ncols)
    rows = [[Fraction(x, r[p]) for x in r] for r, p in zip(reduced, pivots)]
    return Matrix(rows + [[0] * m.ncols] * (m.nrows - len(rows)))


class Subspace:
    """Closed subspace of Q^d held as its canonical reduced-row-echelon rows,
    each scaled to coprime integers with a positive pivot.

    Construct through `from_span`, `zero`, or `full`; any spanning set is
    canonicalized on entry, so structural equality coincides with equality
    of the spanned sets.  `basis` gives the same rows as Fraction vectors
    with pivot 1.
    """

    __slots__ = ("_rows", "_ambient", "_pivots")

    def __init__(self, rows, dim_ambient: int, pivots):
        self._rows = tuple(rows)
        self._ambient = dim_ambient
        self._pivots = tuple(pivots)

    @classmethod
    def from_span(cls, vectors: Iterable[Vector | Sequence[Rational]],
                  dim_ambient: int | None = None) -> "Subspace":
        vecs = [v if isinstance(v, Vector) else Vector(v) for v in vectors]
        if not vecs:
            if dim_ambient is None:
                raise ValueError("empty span needs an explicit ambient dimension")
            return cls.zero(dim_ambient)
        d = vecs[0].dim
        if dim_ambient is not None and dim_ambient != d:
            raise ValueError(f"dimension mismatch: {dim_ambient} vs {d}")
        if any(v.dim != d for v in vecs):
            raise ValueError("spanning vectors have mixed dimensions")
        return _span(vecs, d)

    @classmethod
    def zero(cls, dim_ambient: int) -> "Subspace":
        return cls((), dim_ambient, ())

    @classmethod
    def full(cls, dim_ambient: int) -> "Subspace":
        return orthocomplement(cls.zero(dim_ambient))

    @property
    def basis(self) -> tuple[Vector, ...]:
        return tuple(Vector(Fraction(x, r[p]) for x in r)
                     for r, p in zip(self._rows, self._pivots))

    @property
    def dim_ambient(self) -> int:
        return self._ambient

    @property
    def rank(self) -> int:
        return len(self._rows)

    def is_zero(self) -> bool:
        return not self._rows

    def is_full(self) -> bool:
        return len(self._rows) == self._ambient

    def __contains__(self, v: Vector) -> bool:
        return member(v, self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self._ambient == other._ambient
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self._ambient, self._rows))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"Subspace.zero({self._ambient})"
        rows = ", ".join(repr(list(map(str, v.entries))) for v in self.basis)
        return f"Subspace<rank {self.rank} of Q^{self._ambient}: {rows}>"


def _span(rows: Iterable[Iterable[Rational]], d: int) -> Subspace:
    """The subspace of Q^d spanned by rational rows of length d."""
    reduced, pivots = _echelon(rows, d)
    return Subspace(reduced, d, pivots)


def _orthogonalized(rows: tuple[tuple[int, ...], ...]
                    ) -> tuple[tuple[int, ...], ...]:
    """Fraction-free Gram-Schmidt on linearly independent integer rows.

    Each row u loses its component along every earlier result w as
    u <- (w.w) u - (u.w) w, which keeps u integral and makes it orthogonal
    to w; it is reduced to primitive integers after each step.  The
    results span what the rows span and are mutually orthogonal.
    """
    ortho: list[tuple[int, ...]] = []
    for u in rows:
        for w in ortho:
            uw = sum(map(operator.mul, u, w))
            if uw:
                ww = sum(map(operator.mul, w, w))
                u = primitive_integers([ww * a - uw * b for a, b in zip(u, w)])
        ortho.append(u)
    return tuple(ortho)


class Projector:
    """Idempotent symmetric rational matrix, optionally labeled.

    Over Q idempotence plus symmetry already pin the eigenvalues to
    exactly 0 and 1, so construction only has those two checks.

    Each projector also owns the canonical rows of its range, primitive
    integer rows (`range_basis`), derived once and shared by relabeled
    copies; orthogonality, rank, `range` and `kernel` are read from them.
    An orthogonal integer basis of the range (`orthogonal_basis`) is
    derived from them on first use; the state valuations are read from
    that one.
    """

    __slots__ = ("_matrix", "_label", "_dim", "_basis", "_ortho")

    def __init__(self, matrix: Matrix, label: str | None = None):
        if not matrix.is_square():
            raise ValueError("projector matrix must be square")
        if not matrix.is_symmetric():
            raise ValueError("projector matrix must be symmetric")
        if not matrix.is_idempotent():
            raise ValueError("projector matrix must be idempotent")
        self._matrix = matrix
        self._label = label
        self._dim = matrix.nrows
        self._basis: tuple[tuple[int, ...], ...] | None = None
        self._ortho: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def zero(cls, dim: int, label: str | None = None) -> "Projector":
        return cls(Matrix.zero(dim), label)

    @classmethod
    def identity(cls, dim: int, label: str | None = None) -> "Projector":
        return cls(Matrix.identity(dim), label)

    @property
    def matrix(self) -> Matrix:
        return self._matrix

    @property
    def label(self) -> str | None:
        return self._label

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def range_basis(self) -> tuple[tuple[int, ...], ...]:
        """The canonical rows of the range: its reduced row-echelon basis,
        each row scaled to primitive integers; computed on first use."""
        if self._basis is None:
            self._basis = column_space(self._matrix)._rows
        return self._basis

    @property
    def orthogonal_basis(self) -> tuple[tuple[int, ...], ...]:
        """A basis of the range as mutually orthogonal primitive integer
        rows: `range_basis` itself up to rank 1, its fraction-free
        Gram-Schmidt above; computed on first use."""
        if self._ortho is None:
            basis = self.range_basis
            self._ortho = basis if len(basis) < 2 else _orthogonalized(basis)
        return self._ortho

    @property
    def rank(self) -> int:
        return len(self.range_basis)

    @property
    def range(self) -> Subspace:
        # each canonical row's pivot is its first nonzero entry
        basis = self.range_basis
        pivots = [next(j for j, x in enumerate(r) if x) for r in basis]
        return Subspace(basis, self._dim, pivots)

    @property
    def kernel(self) -> Subspace:
        return orthocomplement(self.range)

    def relabel(self, label: str | None) -> "Projector":
        """The same operator under another label.  The copy shares the
        already verified matrix and both range bases; nothing is rechecked."""
        twin = object.__new__(Projector)
        twin._matrix, twin._label, twin._dim = self._matrix, label, self._dim
        twin._basis, twin._ortho = self._basis, self._ortho
        return twin

    def __eq__(self, other) -> bool:
        # labels are metadata; identity of the operator is the matrix
        return isinstance(other, Projector) and self._matrix == other._matrix

    def __hash__(self) -> int:
        return hash(self._matrix)

    def __repr__(self) -> str:
        tag = f" {self._label!r}" if self._label else ""
        return f"Projector<{tag} rank {self.rank} on Q^{self.dim}>"


def column_space(m: Matrix) -> Subspace:
    """Canonical subspace spanned by the columns of `m`."""
    return _span(zip(*m.rows), m.nrows)


def null_space(m: Matrix) -> Subspace:
    """Canonical subspace of all v with m @ v = 0: the orthocomplement of
    the row space of `m`."""
    return orthocomplement(_span(m.rows, m.ncols))


def member(v: Vector, s: Subspace) -> bool:
    """Exact membership of `v` in `s`: adding it leaves the rank as it is."""
    if v.dim != s.dim_ambient:
        raise ValueError(f"dimension mismatch: {v.dim} vs {s.dim_ambient}")
    return len(_echelon([*s._rows, v], s.dim_ambient)[0]) == s.rank


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subset of a."""
    return join(a, b).rank == a.rank


def join(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both: the span of the union of rows."""
    if a.dim_ambient != b.dim_ambient:
        raise ValueError("dimension mismatch")
    return _span(a._rows + b._rows, a.dim_ambient)


def orthocomplement(a: Subspace) -> Subspace:
    """All vectors orthogonal to every vector of `a` (w.r.t. the dot product).

    Read off the canonical rows: each non-pivot column f gives the vector
    with f-th entry 1 whose pivot entries cancel every row's entry at f,
    scaled by the pivots' least common multiple to stay integral.
    """
    d, rows, pivots = a.dim_ambient, a._rows, a._pivots
    scale = math.lcm(*(r[p] for r, p in zip(rows, pivots)))
    basis = []
    for f in range(d):
        if f not in pivots:
            v = [0] * d
            v[f] = scale
            for r, p in zip(rows, pivots):
                v[p] = -r[f] * (scale // r[p])
            basis.append(v)
    return _span(basis, d)


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Set intersection of two subspaces.

    Solved as one stacked linear system: x lies in a subspace iff the
    basis of the subspace's orthocomplement annihilates it, so the
    intersection is the kernel of the two stacked annihilator bases,
    the orthocomplement of their join.
    (The product-of-projectors shortcut is NOT used here; it is only
    valid for commuting projectors and is kept as a test oracle.)
    """
    if a.dim_ambient != b.dim_ambient:
        raise ValueError("dimension mismatch")
    return orthocomplement(join(orthocomplement(a), orthocomplement(b)))


def projector_from_span(vectors: Sequence[Vector | Sequence[Rational]],
                        label: str | None = None) -> Projector:
    """Orthogonal projector onto span{vectors}.

    Linearly dependent spanning sets are reduced, not rejected.  The
    matrix is assembled as sum_w (w w^T) / (w . w) over the fraction-free
    Gram-Schmidt basis w of the span, which seeds both range bases.
    """
    vecs = [v if isinstance(v, Vector) else Vector(v) for v in vectors]
    if not vecs:
        raise ValueError("projector_from_span needs at least one vector")
    span = Subspace.from_span(vecs)
    basis = span._rows
    ortho = basis if len(basis) < 2 else _orthogonalized(basis)
    result = Matrix.zero(span.dim_ambient)
    for w in ortho:
        ww = sum(map(operator.mul, w, w))
        result = result + Matrix([[Fraction(a * b, ww) for b in w] for a in w])
    p = Projector(result, label)
    p._basis, p._ortho = basis, ortho
    return p


def complement(p: Projector) -> Projector:
    """Negation 1 - p, projecting onto the orthocomplement of ran(p)."""
    label = f"¬{p.label}" if p.label else None
    return Projector(Matrix.identity(p.dim) - p.matrix, label)


def is_orthogonal(p: Projector, q: Projector) -> bool:
    """True iff pq vanishes exactly; so does qp = (pq)^T, as both are symmetric.

    pq = 0 means ran(q) lies in ker(p), which for a symmetric p is the
    orthocomplement of ran(p); so it is decided by integer dot products
    between the two range bases, every one of which must be 0.
    """
    dp, dq = p._dim, q._dim
    if dp != dq:
        raise ValueError(f"dimension mismatch: {dp} vs {dq}")
    q_basis = q.range_basis
    for u in p.range_basis:
        for v in q_basis:
            if sum(map(operator.mul, u, v)):
                return False
    return True
