"""Exact integer linear algebra: matrices, Smith normal form, homology.

Everything here is dense arithmetic over Python's unbounded integers.  No
floating point is ever introduced; intermediate entries during a Smith
reduction can exceed any fixed-width type even for small inputs, which is
why the matrix type refuses anything that is not an ``int``.

One cached elimination serves every entry point.  Its pivot policy is
fixed (smallest nonzero absolute value, ties by smallest (row, col)), so
it is deterministic and reproducible.  It keeps the transforms as logs of
the row and column operations it made, not as matrices: solves replay the
logs on vectors, cokernels read the diagonal alone, and only
``smith_normal_form`` builds matrices from the logs.

``smith_normal_form``
    U * A * V = S with U, V unimodular and S diagonal, entries nonnegative,
    each dividing the next, zeros trailing.

``solve_integer``
    canonical integer solution of A x = b (free parameters zero in Smith
    coordinates), or None when no integer solution exists.  Absence of a
    solution is an ordinary return value.

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
from operator import add, neg, sub


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """Immutable dense integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_shape(self.rows, self.cols)
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
            flat.extend(row)
        return cls(r, c, tuple(flat))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        _check_shape(rows, cols)
        return _closed(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _check_shape(n, n)
        flat = [0] * (n * n)
        for i in range(n):
            flat[i * n + i] = 1
        return _closed(n, n, tuple(flat))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return _closed(self.rows, self.cols, tuple(map(add, self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return _closed(self.rows, self.cols, tuple(map(sub, self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return _closed(self.rows, self.cols, tuple(map(neg, self.entries)))

    def scale(self, k: int) -> "IntMatrix":
        if not isinstance(k, int):
            raise TypeError(f"scale factor {k!r} is not an int")
        return _closed(self.rows, self.cols, tuple([k * a for a in self.entries]))

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
        return _closed(n, p, tuple(flat))

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


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError("negative matrix dimension")


def _closed(rows: int, cols: int, entries: tuple[int, ...]) -> IntMatrix:
    """The result of a closed operation on checked matrices: its shape and
    integer entries hold by construction, so the per-entry check is skipped."""
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "entries", entries)
    return m


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


@lru_cache(maxsize=4096)
def _eliminate(a: IntMatrix) -> tuple[tuple[int, ...], tuple[tuple, ...], tuple[tuple, ...]]:
    """The Smith elimination of ``a``: (diagonal, row log, column log).

    The diagonal holds the nonzero invariant factors, so its length is the
    rank.  Log entries, in the order made: ``("swap", i, k)``, ``("add",
    dst, src, q)`` for line dst += q * line src, and, for rows only,
    ``("neg", i)``.  Each step touches only the trailing submatrix: the
    rows and columns before it are already cleared.
    """
    rows, cols = a.rows, a.cols
    s = a.to_rows()
    row_log: list[tuple] = []
    col_log: list[tuple] = []

    def swap_rows(i: int, k: int) -> None:
        s[i], s[k] = s[k], s[i]
        row_log.append(("swap", i, k))

    def swap_cols(j: int, k: int) -> None:
        for r in range(t, rows):
            sr = s[r]
            sr[j], sr[k] = sr[k], sr[j]
        col_log.append(("swap", j, k))

    def add_row(dst: int, src: int, q: int) -> None:
        sd, ss = s[dst], s[src]
        for j in range(t, cols):
            if ss[j]:
                sd[j] += q * ss[j]
        row_log.append(("add", dst, src, q))

    def add_col(dst: int, src: int, q: int) -> None:
        for r in range(t, rows):
            sr = s[r]
            if sr[src]:
                sr[dst] += q * sr[src]
        col_log.append(("add", dst, src, q))

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
            # make the pivot divide the whole trailing submatrix (a unit does)
            if p == 1 or p == -1:
                break
            stuck = next((i for i in range(t + 1, rows) if any(x % p for x in s[i][t + 1:])), None)
            if stuck is None:
                break
            add_row(t, stuck, 1)
        if s[t][t] < 0:
            s[t][t] = -s[t][t]
            row_log.append(("neg", t))
        t += 1
    return tuple(s[i][i] for i in range(t)), tuple(row_log), tuple(col_log)


def _apply_row_log(log: tuple[tuple, ...], vec: list[int]) -> list[int]:
    """U * vec, in place: the row operations in order."""
    for op in log:
        if op[0] == "add":
            vec[op[1]] += op[3] * vec[op[2]]
        elif op[0] == "swap":
            vec[op[1]], vec[op[2]] = vec[op[2]], vec[op[1]]
        else:
            vec[op[1]] = -vec[op[1]]
    return vec


def _apply_col_log(log: tuple[tuple, ...], vec: list[int]) -> list[int]:
    """V * vec, in place.  V is the product of the column operations in
    the order made, so they act on a vector last to first, and adding q
    times column src to column dst acts as vec[src] += q * vec[dst]."""
    for op in reversed(log):
        if op[0] == "add":
            vec[op[2]] += op[3] * vec[op[1]]
        else:
            vec[op[1]], vec[op[2]] = vec[op[2]], vec[op[1]]
    return vec


def _replayed_columns(apply, log: tuple[tuple, ...], n: int) -> IntMatrix:
    """The n x n matrix whose columns are apply(log, e_j)."""
    columns = [apply(log, [int(i == j) for i in range(n)]) for j in range(n)]
    return IntMatrix(n, n, tuple(c[i] for i in range(n) for c in columns))


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Deterministic Smith normal form with both transforms.

    The cached elimination keeps U and V as operation logs; only this
    function builds matrices from them.

    >>> dec = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> dec.diagonal(), dec.rank
    ((2, 4), 2)
    >>> dec.U @ IntMatrix.from_rows([[2, 4], [6, 8]]) @ dec.V == dec.S
    True
    """
    diagonal, row_log, col_log = _eliminate(a)
    rows, cols = a.rows, a.cols
    s = [0] * (rows * cols)
    for i, d in enumerate(diagonal):
        s[i * cols + i] = d
    return SmithDecomposition(
        _replayed_columns(_apply_row_log, row_log, rows),
        IntMatrix(rows, cols, tuple(s)),
        _replayed_columns(_apply_col_log, col_log, cols),
        len(diagonal),
    )


def solve_integer(a: IntMatrix, b: tuple[int, ...]) -> tuple[int, ...] | None:
    """Canonical integer solution of a x = b, or None.

    The canonical solution sets every free parameter of the general solution
    to zero in Smith coordinates, so equal inputs always produce the same
    output.  None is an ordinary value meaning "no integer solution".  No
    transform is built: the row log turns b into c = U b, the diagonal
    gives y = c / S, and the column log, replayed backwards, gives V y.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    diagonal, row_log, col_log = _eliminate(a)
    c = _apply_row_log(row_log, [int(x) for x in b])
    y = [0] * a.cols
    for i, ci in enumerate(c):
        if i < len(diagonal):
            if ci % diagonal[i]:
                return None
            y[i] = ci // diagonal[i]
        elif ci:
            return None
    return tuple(_apply_col_log(col_log, y))


def cokernel_invariants(a: IntMatrix) -> AbelianGroupInvariants:
    """Invariant factors of Z^rows / column span of a, from the diagonal."""
    diagonal = _eliminate(a)[0]
    return AbelianGroupInvariants(a.rows - len(diagonal), tuple(d for d in diagonal if d >= 2))


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
    # ker(d_out) is saturated and holds im(d_in), so coker(d_in) splits as
    # H plus the free module Z^middle / ker(d_out), of rank rank(d_out)
    coker = cokernel_invariants(d_in)
    return AbelianGroupInvariants(coker.free_rank - len(_eliminate(d_out)[0]), coker.torsion)
