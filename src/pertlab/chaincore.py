"""Filtered chain complexes of finitely generated free Z-modules.

Grading is homological: the differential has degree -1, homotopies have
degree +1.  Each basis element carries a filtration weight w >= 0; the
submodule spanned by basis elements of weight >= p is the p-th filtration
stage, and a complex stores the finite length ``max_weight`` past which the
filtration is zero.  A graded map f has ``filtration_shift(f) = q`` when it
moves every stage p into stage p + q; the shift of a composite is at least
the sum of the shifts, and a map of shift >= 1 composed with itself more
than ``max_weight`` times vanishes, which is what makes all the series in
this package finite sums.

Sign convention, fixed once for the whole package: the differential on the
complex of graded maps f: M -> N of degree k is

    D(f) = d_N o f - (-1)^k f o d_M.

D's two parts and their signs are stated once, in ``_d_parts``, and read
there by ``hom_differential`` (on maps), ``hom_complex`` (as a matrix) and
``she_obstruction._joint_system``.  Every matrix in ``hom_basis``
coordinates is placed by one routine, ``_place_composites``, and every
product of graded maps accumulates through ``_compose_into``.

A complex keeps the nonzero blocks of its differential, as (degree, matrix)
pairs, in the private field ``_dblocks``: built on the first call of
``differential_map``, which every D reads through ``_d_parts``, and kept, as
a matrix keeps its cached rows.  The field is derived and not part of the
value: it is not compared, hashed, shown in the repr or passed on by
``dataclasses.replace``.  It holds the pairs and never the ``GradedMap``
itself, whose source and target are the complex: a map stored on its own
complex would make a cycle for anything that walks the fields of a
dataclass recursively.

Consequences used everywhere downstream (and asserted by the test suite):
a degree-0 chain map satisfies D(f) = 0; a degree-1 homotopy h between
chain maps p and q satisfies D(h) = p - q written as d h + h d = p - q;
D o D = 0.  No other sign convention appears anywhere else; modules above
this one speak only in terms of D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from .exactlin import IntMatrix, _addmul, _closed, _nonzero_rows


@dataclass(frozen=True, slots=True)
class ChainComplex:
    """A bounded complex with per-basis filtration weights.

    ``ranks[t]`` is the rank in degree ``degree_lo + t``; ``weights[t]`` the
    weights of that degree's basis; ``diffs[t]`` the matrix of the
    differential out of degree ``degree_lo + t + 1`` (shape
    ranks[t] x ranks[t+1]).  Degrees outside the window have rank zero.

    ``_dblocks`` holds the nonzero blocks of ``differential_map`` once it
    has been called, and None before; it is derived from ``diffs`` and is
    not part of the value.
    """

    degree_lo: int
    degree_hi: int
    ranks: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]
    diffs: tuple[IntMatrix, ...]
    max_weight: int
    _dblocks: tuple[tuple[int, IntMatrix], ...] | None = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        width = self.degree_hi - self.degree_lo + 1
        if width < 1:
            raise ValueError("empty degree window")
        if len(self.ranks) != width or len(self.weights) != width:
            raise ValueError("ranks/weights do not span the degree window")
        if len(self.diffs) != width - 1:
            raise ValueError("need one differential block per adjacent degree pair")
        if self.max_weight < 0:
            raise ValueError("max_weight must be nonnegative")
        for t, r in enumerate(self.ranks):
            if r < 0:
                raise ValueError("negative rank")
            if len(self.weights[t]) != r:
                raise ValueError(f"weight list at degree {self.degree_lo + t} has wrong length")
        for t, m in enumerate(self.diffs):
            if (m.rows, m.cols) != (self.ranks[t], self.ranks[t + 1]):
                raise ValueError(f"differential block {t} has shape {m.rows}x{m.cols}")

    def degrees(self) -> range:
        return range(self.degree_lo, self.degree_hi + 1)

    def rank_at(self, n: int) -> int:
        if self.degree_lo <= n <= self.degree_hi:
            return self.ranks[n - self.degree_lo]
        return 0

    def weight_at(self, n: int, i: int) -> int:
        return self.weights[n - self.degree_lo][i]

    def d_block(self, n: int) -> IntMatrix:
        """Matrix of d out of degree n (shape rank(n-1) x rank(n))."""
        t = n - self.degree_lo
        if 1 <= t <= len(self.diffs):
            return self.diffs[t - 1]
        return IntMatrix.zeros(self.rank_at(n - 1), self.rank_at(n))

    def differential_map(self) -> "GradedMap":
        blocks = self._dblocks
        if blocks is None:
            blocks = tuple((n, d) for n, d in enumerate(self.diffs, self.degree_lo + 1) if any(_nonzero_rows(d)))
            object.__setattr__(self, "_dblocks", blocks)
        return GradedMap(self, self, -1, blocks)

    def total_rank(self) -> int:
        return sum(self.ranks)


def complex_with_differential(c: ChainComplex, d: GradedMap) -> ChainComplex:
    """Same underlying graded filtered module, new differential."""
    if d.degree != -1 or d.source != c or d.target != c:
        raise ValueError("replacement differential must be a degree -1 self-map of the complex")
    diffs = tuple(d.block_at(n) for n in range(c.degree_lo + 1, c.degree_hi + 1))
    return ChainComplex(c.degree_lo, c.degree_hi, c.ranks, c.weights, diffs, c.max_weight)


def validate_complex(c: ChainComplex) -> list[str]:
    """Every violated invariant, with the first offending entry of each.

    A degree's weights are read one by one only when their minimum or
    maximum is out of range; leaks are looked for over each block's cached
    nonzero rows, in row-major order; d o d is accumulated by ``_addmul``
    into an entry list, with no matrix built."""
    problems: list[str] = []
    for t, row in enumerate(c.weights):
        if row and not (0 <= min(row) and max(row) <= c.max_weight):
            n = c.degree_lo + t
            problems.extend(f"weight out of range at degree {n}, index {i}: {w}"
                            for i, w in enumerate(row) if not (0 <= w <= c.max_weight))
    for t, m in enumerate(c.diffs):
        # the first leak of d out of degree n in row-major order is reported
        n, w_to, w_from = c.degree_lo + t + 1, c.weights[t], c.weights[t + 1]
        leak = next(((i, j) for i, row in enumerate(_nonzero_rows(m)) for j, _ in row if w_to[i] < w_from[j]), None)
        if leak is not None:
            i, j = leak
            problems.append(f"filtration leak in d at degree {n}, entry ({i}, {j}): weight {w_from[j]} -> {w_to[i]}")
    for t in range(len(c.diffs) - 1):
        # d out of degree n - 1 after d out of degree n, n = degree_lo + t + 2
        a, b = c.diffs[t], c.diffs[t + 1]
        sq = [0] * (a.rows * b.cols)
        _addmul(sq, a, b, 1)
        if any(sq):
            where = divmod(next(p for p, v in enumerate(sq) if v), b.cols)
            problems.append(f"d^2 != 0 out of degree {c.degree_lo + t + 2}, first entry {where}")
    return problems


@dataclass(frozen=True, slots=True)
class GradedMap:
    """A degree-homogeneous map between complexes, stored blockwise.

    ``blocks`` holds (source degree n, matrix) pairs, matrix shape
    target.rank(n + degree) x source.rank(n); all-zero and degenerate
    blocks are dropped, so structural equality is semantic equality.
    """

    source: ChainComplex
    target: ChainComplex
    degree: int
    blocks: tuple[tuple[int, IntMatrix], ...]

    @classmethod
    def from_blocks(
        cls,
        source: ChainComplex,
        target: ChainComplex,
        degree: int,
        blocks: dict[int, IntMatrix],
    ) -> "GradedMap":
        kept: list[tuple[int, IntMatrix]] = []
        for n in sorted(blocks):
            m = blocks[n]
            want = (target.rank_at(n + degree), source.rank_at(n))
            if (m.rows, m.cols) != want:
                raise ValueError(
                    f"block at degree {n} has shape {m.rows}x{m.cols}, expected {want[0]}x{want[1]}"
                )
            if m.rows and m.cols and not m.is_zero():
                kept.append((n, m))
        return cls(source, target, degree, tuple(kept))

    @classmethod
    def zero(cls, source: ChainComplex, target: ChainComplex, degree: int) -> "GradedMap":
        return cls(source, target, degree, ())

    @classmethod
    def identity(cls, c: ChainComplex) -> "GradedMap":
        return cls.from_blocks(c, c, 0, {n: IntMatrix.identity(c.rank_at(n)) for n in c.degrees()})

    def block_at(self, n: int) -> IntMatrix:
        for m, mat in self.blocks:
            if m == n:
                return mat
        return IntMatrix.zeros(self.target.rank_at(n + self.degree), self.source.rank_at(n))

    def is_zero(self) -> bool:
        return not self.blocks

    def __add__(self, other: "GradedMap") -> "GradedMap":
        _same_hom(self, other)
        degrees = {n for n, _ in self.blocks} | {n for n, _ in other.blocks}
        return GradedMap.from_blocks(
            self.source, self.target, self.degree,
            {n: self.block_at(n) + other.block_at(n) for n in degrees},
        )

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        return self + (-other)

    def __neg__(self) -> "GradedMap":
        return GradedMap(self.source, self.target, self.degree, tuple((n, -m) for n, m in self.blocks))

    def scale(self, k: int) -> "GradedMap":
        if k == 0:
            return GradedMap.zero(self.source, self.target, self.degree)
        return GradedMap(self.source, self.target, self.degree, tuple((n, m.scale(k)) for n, m in self.blocks))


def _same_hom(f: GradedMap, g: GradedMap) -> None:
    if f.degree != g.degree or f.source != g.source or f.target != g.target:
        raise ValueError("maps live in different hom groups")


def compose(f: GradedMap, g: GradedMap) -> GradedMap:
    """f o g, defined when g lands where f starts: the blocks' products are
    accumulated by ``_compose_into``, one entry list per source degree."""
    _check_composable(f, g)
    sums: dict[int, list[int]] = {}
    _compose_into(sums, f, g, 1)
    return _from_sums(g.source, f.target, f.degree + g.degree, sums)


def _check_composable(f: GradedMap, g: GradedMap) -> None:
    if f.source is not g.target and f.source != g.target:
        raise ValueError("composition mismatch: source of the left map differs from target of the right")


def _compose_into(sums: dict[int, list[int]], f: GradedMap, g: GradedMap, c: int) -> None:
    """Add c times f o g into ``sums``, one row-major entry list per source
    degree, block by block through ``_addmul``; g must land where f starts.
    A degree where f or g has no block adds nothing."""
    fblocks = dict(f.blocks)
    for n, gmat in g.blocks:
        fmat = fblocks.get(n + g.degree)
        if fmat is not None:
            _addmul(_entry_list(sums, n, fmat.rows * gmat.cols), fmat, gmat, c)


def rebase(f: GradedMap, src: ChainComplex, tgt: ChainComplex) -> GradedMap:
    """Same block matrices, new source and target complexes."""
    return GradedMap.from_blocks(src, tgt, f.degree, dict(f.blocks))


def filtration_shift(f: GradedMap) -> int:
    """Largest q with f(stage p) inside stage p+q for all p.

    One pass over the nonzeros of each block, read from its cached rows
    (``_nonzero_rows``): a nonzero at (i, j) of the block at source
    degree n bounds q by the weight of target basis element i in degree
    n + deg(f) minus that of source basis element j in degree n.  The
    zero map reports one more than the filtration length, the neutral
    element for min.
    """
    best: int | None = None
    src, tgt = f.source, f.target
    for n, mat in f.blocks:
        tw = tgt.weights[n + f.degree - tgt.degree_lo]
        sw = src.weights[n - src.degree_lo]
        for ti, row in zip(tw, _nonzero_rows(mat)):
            for j, _ in row:
                s = ti - sw[j]
                if best is None or s < best:
                    best = s
    if best is None:
        return max(src.max_weight, tgt.max_weight) + 1
    return best


def hom_differential(f: GradedMap) -> GradedMap:
    """D(f) = d o f - (-1)^deg(f) f o d; the package-wide convention, on the
    parts that ``_d_parts`` states, each accumulated by ``_compose_into``."""
    if f.is_zero():
        return GradedMap.zero(f.source, f.target, f.degree - 1)
    left, right = _d_parts(f.source, f.target, f.degree)
    sums: dict[int, list[int]] = {}
    for c, a in left:
        _compose_into(sums, a, f, c)
    for c, b in right:
        _compose_into(sums, f, b, c)
    return _from_sums(f.source, f.target, f.degree - 1, sums)


def _entry_list(sums: dict[int, list[int]], n: int, size: int) -> list[int]:
    """The entry list of degree n in ``sums``, a new zero one of this size
    if there is none yet."""
    acc = sums.get(n)
    if acc is None:
        acc = sums[n] = [0] * size
    return acc


def _from_sums(source: ChainComplex, target: ChainComplex, degree: int,
               sums: dict[int, list[int]]) -> GradedMap:
    """The graded map whose block at source degree n has the entries
    ``sums[n]``, sized from the ranks by the caller: blocks in increasing
    degree, an all-zero entry list dropped before any matrix is built."""
    return GradedMap(source, target, degree, tuple(
        (n, _closed(target.rank_at(n + degree), source.rank_at(n), tuple(flat)))
        for n, flat in sorted(sums.items()) if any(flat)))


def hom_basis(m: ChainComplex, n: ChainComplex, k: int) -> tuple[tuple[int, int, int], ...]:
    """Basis of the degree-k maps m -> n: elementary matrices, enumerated
    lexicographically in (source degree, source index, target index)."""
    out: list[tuple[int, int, int]] = []
    for deg in m.degrees():
        r_src = m.rank_at(deg)
        r_tgt = n.rank_at(deg + k)
        for i in range(r_src):
            for j in range(r_tgt):
                out.append((deg, i, j))
    return tuple(out)


def map_to_vec(f: GradedMap, basis: tuple[tuple[int, int, int], ...]) -> tuple[int, ...]:
    blocks = dict(f.blocks)
    return tuple(m.entries[j * m.cols + i] if (m := blocks.get(deg)) is not None else 0 for deg, i, j in basis)


def vec_to_map(
    m: ChainComplex, n: ChainComplex, k: int,
    basis: tuple[tuple[int, int, int], ...], vec: tuple[int, ...],
) -> GradedMap:
    if len(vec) != len(basis):
        raise ValueError("vector length does not match basis size")
    blocks: dict[int, list[list[int]]] = {}
    for (deg, i, j), v in zip(basis, vec):
        if v:
            mat = blocks.setdefault(
                deg, [[0] * m.rank_at(deg) for _ in range(n.rank_at(deg + k))]
            )
            mat[j][i] = v
    return GradedMap.from_blocks(
        m, n, k, {deg: IntMatrix.from_rows(rows) for deg, rows in blocks.items()}
    )


@dataclass(frozen=True, slots=True)
class HomComplexSlice:
    """One degree of the hom complex between two fixed complexes.

    ``differential_matrix`` sends coordinates in ``basis`` (degree k) to
    coordinates in the full degree k-1 ``hom_basis`` enumeration.
    """

    basis: tuple[tuple[int, int, int], ...]
    differential_matrix: IntMatrix


def hom_complex(m: ChainComplex, n: ChainComplex, k: int,
                basis: tuple[tuple[int, int, int], ...] | None = None) -> HomComplexSlice:
    """D on Hom_k(m, n), one column per map in ``basis``, a sub-enumeration
    of ``hom_basis(m, n, k)`` such as the maps that keep a filtration (None:
    all of it); the rows are the full degree-(k-1) enumeration."""
    if basis is None:
        basis = hom_basis(m, n, k)
    rows, cols = len(hom_basis(m, n, k - 1)), len(basis)
    flat = [0] * (rows * cols)
    _place_composites(flat, cols, 0, 0, m, n, k, basis, *_d_parts(m, n, k))
    return HomComplexSlice(basis, _closed(rows, cols, tuple(flat)))


def _d_parts(m: ChainComplex, n: ChainComplex, k: int):
    """D on Hom_k(m, n) as the parts of ``_place_composites``: d_n o e with
    coefficient 1 and e o d_m with -(-1)^k."""
    return ((1, n.differential_map()),), ((1 if k % 2 else -1, m.differential_map()),)


def _place_composites(flat: list[int], width: int, r0: int, c0: int, src: ChainComplex, tgt: ChainComplex,
                      k: int, basis: tuple[tuple[int, int, int], ...], left: tuple = (), right: tuple = ()) -> None:
    """Add to ``flat`` (row-major, ``width`` columns), at row r0 and column
    c0, the matrix of e -> sum c (a o e) + sum c (e o b), (c, a) in ``left``
    and (c, b) in ``right``, on the degree-k maps src -> tgt in ``basis``,
    in the ``hom_basis`` rows of the maps they land in.  For e = (deg, i, j),
    a o e is column j of a's block at deg + k in the rows (deg, i, .), and
    e o b is row i of b's block into deg in the rows (deg - deg(b), ., j)."""
    first = (left or right)[0][1]
    rs, rt = (src, first.target) if left else (first.source, tgt)
    sizes = [rs.rank_at(deg) * rt.rank_at(deg + k + first.degree) for deg in rs.degrees()]
    lo = dict(zip(rs.degrees(), accumulate(sizes, initial=r0)))
    lefts = [(c, dict(a.blocks)) for c, a in left]
    rights = [(c, b.degree, dict(b.blocks)) for c, b in right]
    at = None
    for col, (deg, i, j) in enumerate(basis, c0):
        if deg != at:
            # this degree's factor nonzeros, a's by column and b's by row
            at, downs, acrosses = deg, [], []
            for c, blocks in lefts:
                if (a := blocks.get(deg + k)) is not None:
                    down: list[list[tuple[int, int]]] = [[] for _ in range(a.cols)]
                    for x, row in enumerate(_nonzero_rows(a)):
                        for y, v in row:
                            down[y].append((x, c * v))
                    downs.append((lo[deg], a.rows, down))
            for c, db, blocks in rights:
                if (b := blocks.get(deg - db)) is not None:
                    across = [[(y, c * v) for y, v in row] for row in _nonzero_rows(b)]
                    acrosses.append((lo[deg - db], tgt.rank_at(deg + k), across))
        for start, stride, down in downs:
            base = start + i * stride
            for x, v in down[j]:
                flat[(base + x) * width + col] += v
        for start, stride, across in acrosses:
            for y, v in across[i]:
                flat[(start + y * stride + j) * width + col] += v
