"""Exact integer linear algebra: matrices, Smith normal form, homology.

Everything here is dense arithmetic over Python's unbounded integers.  No
floating point is ever introduced; intermediate entries during a Smith
reduction can exceed any fixed-width type even for small inputs, which is
why the matrix type and ``solve_integer`` refuse anything not an ``int``.
Storage is dense, but products are driven by nonzeros.  Every product of
matrices goes through one multiply-accumulate kernel, ``_addmul(acc, a, b,
c)``, which adds c * (a @ b) into a row-major entry list (Gustavson's
row-wise sparse product): each nonzero a[i][k] adds its multiple of row k of
b into row i of the result, over that row's nonzeros only.  Its one
arithmetic step is a multiply-add of two nonzeros.  It reads the nonzeros of
each row of a matrix from ``_nonzero_rows``, which builds them once, on
first use, and keeps them on the matrix, so a matrix multiplied many times,
on either side, is scanned once.

One cached elimination serves every entry point.  Its pivot policy is
fixed (smallest nonzero absolute value, ties by smallest (row, col)), so
it is deterministic and reproducible.  Its scans skip zeros, and since a
zero row stays zero for the rest of the elimination, on a matrix that
starts with one they skip zero rows too (``_eliminate``).  It keeps the
transforms as logs of the row and column operations it made, not as
matrices: solves replay the logs on vectors, cokernels read the diagonal
alone, and only ``smith_normal_form`` builds matrices from them.

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

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from operator import add, itemgetter, neg, sub


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """Immutable dense integer matrix, row-major entries.

    ``_nz`` holds the nonzeros of each row once ``_nonzero_rows`` has built
    them, and None before.  It is derived from ``entries`` and is not part
    of the value: it is not compared, hashed or shown in the repr.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]
    _nz: tuple[tuple[tuple[int, int], ...], ...] | None = field(
        default=None, init=False, compare=False, repr=False)

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
        flat = [0] * (self.rows * other.cols)
        _addmul(flat, self, other, 1)
        return _closed(self.rows, other.cols, tuple(flat))

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
    object.__setattr__(m, "_nz", None)
    return m


# The one tuple of each (column, value) pair in a cached row, so that the
# matrices' caches share their pairs: entries are mostly small, and the
# pairs would otherwise take most of a cache's memory.  Cleared when full.
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}
_PAIRS_MAX = 1 << 14


def _nonzero_rows(m: IntMatrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzeros of each row of m, as (column, value) pairs in column
    order; a zero row is the empty tuple.  Built on first use and kept on m."""
    nz = m._nz
    if nz is None:
        if len(_PAIRS) > _PAIRS_MAX:
            _PAIRS.clear()
        e, c, share = m.entries, m.cols, _PAIRS.setdefault
        rows: list[tuple[tuple[int, int], ...]] = [()] * m.rows
        i, row = 0, []
        for p in compress(range(len(e)), e):
            if p // c != i:
                rows[i] = tuple(row)
                i, row = p // c, []
            q = (p % c, e[p])
            row.append(share(q, q))
        if row:
            rows[i] = tuple(row)
        nz = tuple(rows)
        object.__setattr__(m, "_nz", nz)
    return nz


def _addmul(acc: list[int], a: IntMatrix, b: IntMatrix, c: int) -> None:
    """acc += c * (a @ b), where acc is the row-major entry list of an
    a.rows x b.cols matrix and a.cols == b.rows (the caller checks)."""
    b_rows, p = _nonzero_rows(b), b.cols
    for i, a_row in enumerate(_nonzero_rows(a)):
        base = i * p
        for k, v in a_row:
            cv = c * v
            for j, w in b_rows[k]:
                acc[base + j] += cv * w


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

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _pivot(s: list[list[int]], live: list[bool] | None, t: int) -> tuple[int, int] | None:
    # smallest nonzero |entry| in the trailing submatrix; ties by (row, col);
    # a live row found zero is marked dead
    best: tuple[int, int, int] | None = None
    for i in range(t, len(s)) if live is None else compress(range(t, len(s)), live[t:]):
        seg = s[i][t:]
        if any(seg):
            mags = list(map(abs, seg))
            a = min(filter(None, mags))
            if best is None or a < best[0]:
                best = (a, i, t + mags.index(a))
                if a == 1:
                    break
        elif live is not None:
            live[i] = False
    return None if best is None else best[1:]


@lru_cache(maxsize=4096)
def _eliminate(a: IntMatrix) -> tuple[tuple[int, ...], tuple[tuple, ...], tuple[tuple, ...]]:
    """The Smith elimination of ``a``: (diagonal, row log, column log).

    The diagonal holds the nonzero invariant factors, so its length is the
    rank.  Log entries, in the order made: ``("swap", i, k)``, ``("add",
    dst, src, q)`` for line dst += q * line src, and, for rows only,
    ``("neg", i)``.  Each step touches only the trailing submatrix: the
    rows and columns before it are already cleared.

    The scans skip zeros.  A zero row stays zero: a row operation adds to
    row i only when s[i][t] is nonzero, and a column operation changes only
    the rows that are nonzero in the columns it reads.  So when the matrix
    starts with a zero row, a flag ``live[i]``, false only when the row at
    position i is zero, moves with its row; the pivot search clears it on
    each row it finds zero, and the pivot search, the clearing of column t,
    the divisibility scan and the column swaps walk the live rows alone.
    A matrix that starts without one seldom gains one, and there the
    flags cost more than they skip, so ``live`` is None and every walk
    reads every trailing row.  The pivot search reads each row at C speed,
    and a row operation touches only the pivot row's nonzeros.  Row t is
    cleared after column t, when the pivot is column t's only nonzero, so
    adding q times column t to column j changes s[t][j] only.
    """
    rows, cols = a.rows, a.cols
    s = a.to_rows()
    live: list[bool] | None = list(map(any, s))
    if all(live):
        live = None
    row_log: list[tuple] = []
    col_log: list[tuple] = []

    def swap_rows(i: int, k: int) -> None:
        s[i], s[k] = s[k], s[i]
        if live is not None:
            live[i], live[k] = live[k], live[i]
        row_log.append(("swap", i, k))

    def swap_cols(j: int, k: int) -> None:
        for r in range(t, rows) if live is None else compress(range(t, rows), live[t:]):
            sr = s[r]
            sr[j], sr[k] = sr[k], sr[j]
        col_log.append(("swap", j, k))

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = _pivot(s, live, t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        while True:
            row = s[t]
            p = row[t]
            # the pivot row's nonzeros, (t, p) first: columns before t are clear
            support = list(filter(itemgetter(1), enumerate(row)))
            # clear column t below the pivot
            dirty = False
            below = range(t + 1, rows) if live is None else compress(range(t + 1, rows), live[t + 1:])
            for i in below:
                r = s[i]
                if r[t]:
                    q = r[t] // p
                    if q:
                        for j, v in support:
                            r[j] -= q * v
                        row_log.append(("add", i, t, -q))
                    if r[t]:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            # clear row t right of the pivot
            for j, v in support[1:]:
                q = v // p
                if q:
                    row[j] = v - q * p
                    col_log.append(("add", j, t, -q))
                if row[j]:
                    swap_cols(t, j)
                    dirty = True
                    break
            if dirty:
                continue
            # make the pivot divide the whole trailing submatrix (a unit does)
            if p == 1 or p == -1:
                break
            below = range(t + 1, rows) if live is None else compress(range(t + 1, rows), live[t + 1:])
            stuck = next((i for i in below if any(x % p for x in s[i][t + 1:])), None)
            if stuck is None:
                break
            s[t] = list(map(add, row, s[stuck]))
            row_log.append(("add", t, stuck, 1))
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
    for x in b:
        if type(x) is not int:
            raise TypeError(f"right-hand side entry {x!r} is not an int")
    diagonal, row_log, col_log = _eliminate(a)
    c = _apply_row_log(row_log, list(b))
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
