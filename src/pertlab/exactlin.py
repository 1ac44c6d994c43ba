"""Exact integer linear algebra: matrices, Smith normal form, homology.

Everything here is dense arithmetic over Python's unbounded integers.  No
floating point is ever introduced; intermediate entries during a Smith
reduction can exceed any fixed-width type even for small inputs, which is
why the matrix type refuses anything that is not an ``int``.

The three workhorses:

``smith_normal_form``
    U * A * V = S with U, V unimodular and S diagonal, entries nonnegative,
    each dividing the next, zeros trailing.  The pivot policy is fixed
    (smallest nonzero absolute value, ties by smallest (row, col)), so the
    decomposition is deterministic and reproducible.

``solve_integer``
    canonical integer solution of A x = b, or None when no integer solution
    exists.  Absence of a solution is an ordinary return value.

``homology_at``
    invariant factors of ker(d_out) / im(d_in) for one degree of a chain
    complex, as free rank plus torsion in divisor-chain order.

>>> A = IntMatrix.from_rows([[2, 4], [6, 8]])
>>> smith_normal_form(A).diagonal()
(2, 4)
>>> solve_integer(IntMatrix.from_rows([[1, 2], [2, 4]]), (3, 6))
(3, 0)
>>> solve_integer(IntMatrix.from_rows([[2]]), (1,)) is None
True
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """Immutable dense integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        for e in self.entries:
            if type(e) is not int:
                raise TypeError(f"matrix entry {e!r} is not an int")

    @classmethod
    def from_rows(cls, rows: list[list[int]] | tuple) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[int] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in row)
        return cls(r, c, tuple(flat))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        flat = [0] * (n * n)
        for i in range(n):
            flat[i * n + i] = 1
        return cls(n, n, tuple(flat))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(k * a for a in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, m, p = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        flat = [0] * (n * p)
        for i in range(n):
            arow = a[i * m : (i + 1) * m]
            base = i * p
            for k in range(m):
                aik = arow[k]
                if aik:
                    brow = b[k * p : (k + 1) * p]
                    for j in range(p):
                        if brow[j]:
                            flat[base + j] += aik * brow[j]
        return IntMatrix(n, p, tuple(flat))

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = []
        for i in range(self.rows):
            row = self.row(i)
            out.append(sum(r * v for r, v in zip(row, vec) if r and v))
        return tuple(out)

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


@dataclass(frozen=True, slots=True)
class SmithDecomposition:
    """U * A * V = S with U, V unimodular, S in Smith normal form."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    rank: int

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.S.rows, self.S.cols)
        return tuple(self.S.entry(i, i) for i in range(n))


@dataclass(frozen=True, slots=True)
class AbelianGroupInvariants:
    """A finitely generated abelian group: Z^free_rank + sum Z/t, t|t'."""

    free_rank: int
    torsion: tuple[int, ...]

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _pivot(s: list[list[int]], t: int, rows: int, cols: int) -> tuple[int, int] | None:
    # smallest nonzero |entry| in the trailing submatrix; ties by (row, col)
    best: tuple[int, int, int] | None = None
    for i in range(t, rows):
        srow = s[i]
        for j in range(t, cols):
            v = srow[j]
            if v:
                a = -v if v < 0 else v
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return (i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Deterministic Smith normal form with both transforms.

    >>> dec = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> dec.diagonal(), dec.rank
    ((2, 4), 2)
    >>> dec.U @ IntMatrix.from_rows([[2, 4], [6, 8]]) @ dec.V == dec.S
    True
    """
    return _smith_cached(a)


@lru_cache(maxsize=4096)
def _smith_cached(a: IntMatrix) -> SmithDecomposition:
    rows, cols = a.rows, a.cols
    s = a.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()

    def swap_rows(i: int, k: int) -> None:
        s[i], s[k] = s[k], s[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j: int, k: int) -> None:
        for r in s:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    def add_row(dst: int, src: int, q: int) -> None:
        # row_dst += q * row_src
        sd, ss = s[dst], s[src]
        for j in range(cols):
            sd[j] += q * ss[j]
        ud, us = u[dst], u[src]
        for j in range(rows):
            ud[j] += q * us[j]

    def add_col(dst: int, src: int, q: int) -> None:
        for r in s:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def negate_row(i: int) -> None:
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = _pivot(s, t, rows, cols)
        if pos is None:
            break
        i, j = pos
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        while True:
            p = s[t][t]
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t]:
                    q = s[i][t] // p
                    if q:
                        add_row(i, t, -q)
                    if s[i][t]:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            # clear row t right of the pivot
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = s[t][j] // p
                    if q:
                        add_col(j, t, -q)
                    if s[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # make the pivot divide the whole trailing submatrix
            stuck = None
            for i in range(t + 1, rows):
                srow = s[i]
                for j in range(t + 1, cols):
                    if srow[j] % p:
                        stuck = i
                        break
                if stuck is not None:
                    break
            if stuck is None:
                break
            add_row(t, stuck, 1)
        if s[t][t] < 0:
            negate_row(t)
        t += 1

    rank = 0
    for i in range(limit):
        if s[i][i]:
            rank += 1
    dec = SmithDecomposition(
        IntMatrix(rows, rows, tuple(x for r in u for x in r)),
        IntMatrix(rows, cols, tuple(x for r in s for x in r)),
        IntMatrix(cols, cols, tuple(x for r in v for x in r)),
        rank,
    )
    return dec


def solve_integer(a: IntMatrix, b: tuple[int, ...]) -> tuple[int, ...] | None:
    """Canonical integer solution of a x = b, or None.

    The canonical solution sets every free parameter of the general solution
    to zero in Smith coordinates, so equal inputs always produce the same
    output.  None is an ordinary value meaning "no integer solution".
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    dec = smith_normal_form(a)
    c = dec.U.apply(tuple(int(x) for x in b))
    y = [0] * a.cols
    n = min(a.rows, a.cols)
    for i in range(a.rows):
        si = dec.S.entry(i, i) if i < n else 0
        if si:
            if c[i] % si:
                return None
            y[i] = c[i] // si
        elif c[i]:
            return None
    return dec.V.apply(tuple(y))


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns form an integer basis of ker(a); the basis is saturated."""
    dec = smith_normal_form(a)
    ker_cols = range(dec.rank, a.cols)
    flat: list[int] = []
    for i in range(a.cols):
        vrow = dec.V.row(i)
        flat.extend(vrow[j] for j in ker_cols)
    return IntMatrix(a.cols, a.cols - dec.rank, tuple(flat))


def cokernel_invariants(a: IntMatrix) -> AbelianGroupInvariants:
    """Invariant factors of Z^rows / column span of a."""
    dec = smith_normal_form(a)
    torsion = tuple(d for d in dec.diagonal() if d >= 2)
    return AbelianGroupInvariants(a.rows - dec.rank, torsion)


def homology_at(d_in: IntMatrix, d_out: IntMatrix) -> AbelianGroupInvariants:
    """ker(d_out) / im(d_in) as abelian-group invariants.

    d_out consumes the middle degree, d_in feeds it:
    shapes are d_out: (lower x middle), d_in: (middle x upper).

    >>> middle_only = homology_at(IntMatrix.zeros(1, 0), IntMatrix.zeros(0, 1))
    >>> str(middle_only)
    'Z'
    >>> str(homology_at(IntMatrix.from_rows([[2]]), IntMatrix.zeros(0, 1)))
    'Z/2'
    """
    if d_in.rows != d_out.cols:
        raise ValueError("middle-degree rank mismatch between d_in and d_out")
    if d_out.rows and d_in.cols and not (d_out @ d_in).is_zero():
        raise ValueError("d_out composed with d_in is nonzero")
    k = kernel_basis(d_out)
    if k.cols == 0:
        return AbelianGroupInvariants(0, ())
    if d_in.cols == 0:
        return AbelianGroupInvariants(k.cols, ())
    # coordinates of im(d_in) in the kernel basis; solvable because the
    # kernel basis is saturated and the image lies inside the kernel
    coords: list[list[int]] = [[0] * d_in.cols for _ in range(k.cols)]
    for col in range(d_in.cols):
        x = solve_integer(k, tuple(d_in.entry(i, col) for i in range(d_in.rows)))
        if x is None:
            raise ValueError("image vector escapes the kernel lattice")
        for i in range(k.cols):
            coords[i][col] = x[i]
    return cokernel_invariants(IntMatrix.from_rows(coords))
