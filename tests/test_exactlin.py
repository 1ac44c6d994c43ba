import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertlab import cli_io, exactlin
from pertlab.exactlin import (
    AbelianGroupInvariants,
    IntMatrix,
    cokernel_invariants,
    homology_at,
    smith_normal_form,
    solve_integer,
)
from pertlab.fixtures import cone_retract_sdr, he_fixture
from pertlab.she_obstruction import (_filtered_differential, extend_to_she, modify_homotopy_h, tower_assignment,
                                     validate_she)


def matrices(max_dim=6, max_entry=9):
    return st.integers(0, max_dim).flatmap(
        lambda r: st.integers(0, max_dim).flatmap(
            lambda c: st.tuples(
                st.just(r),
                st.just(c),
                st.tuples(*([st.integers(-max_entry, max_entry)] * (r * c))),
            )
        )
    ).map(lambda t: IntMatrix(t[0], t[1], t[2]))


def matrices_of(rows, cols, max_entry=9):
    return st.tuples(*([st.integers(-max_entry, max_entry)] * (rows * cols))).map(
        lambda t: IntMatrix(rows, cols, t))


def test_smith_frozen_example():
    dec = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert dec.diagonal() == (2, 4)
    assert dec.rank == 2


@pytest.mark.parametrize("rows", [[[2.7, 3]], [[1, "3"]], [[True, -1]], [[0], [2.0]]])
def test_from_rows_refuses_entries_that_are_not_ints(rows):
    with pytest.raises(TypeError, match="is not an int"):
        IntMatrix.from_rows(rows)


def test_smith_identity_and_zero():
    dec = smith_normal_form(IntMatrix.identity(3))
    assert dec.diagonal() == (1, 1, 1)
    dec = smith_normal_form(IntMatrix.zeros(2, 3))
    assert dec.diagonal() == (0, 0)
    assert dec.rank == 0


def test_smith_is_deterministic():
    a = IntMatrix.from_rows([[3, 1, -4], [2, -3, 1], [-2, 0, 5]])
    d1 = smith_normal_form(a)
    d2 = smith_normal_form(IntMatrix.from_rows([[3, 1, -4], [2, -3, 1], [-2, 0, 5]]))
    assert (d1.U, d1.S, d1.V) == (d2.U, d2.S, d2.V)


@settings(max_examples=200)
@given(matrices())
def test_smith_transform_identity(a):
    dec = smith_normal_form(a)
    assert dec.U @ a @ dec.V == dec.S


@settings(max_examples=200)
@given(matrices())
def test_smith_shape_invariants(a):
    dec = smith_normal_form(a)
    diag = dec.diagonal()
    # off-diagonal zero
    for i in range(dec.S.rows):
        for j in range(dec.S.cols):
            if i != j:
                assert dec.S.entry(i, j) == 0
    # nonnegative, divisor chain, zeros trailing
    for i, d in enumerate(diag):
        assert d >= 0
        if i + 1 < len(diag) and diag[i + 1]:
            assert d != 0 and diag[i + 1] % d == 0
    nonzero_positions = [i for i, d in enumerate(diag) if d]
    assert nonzero_positions == list(range(len(nonzero_positions)))
    assert dec.rank == len(nonzero_positions)


def test_solve_frozen_example():
    x = solve_integer(IntMatrix.from_rows([[1, 2], [2, 4]]), (3, 6))
    assert x == (3, 0)
    assert IntMatrix.from_rows([[1, 2], [2, 4]]).apply(x) == (3, 6)


def test_solve_absent_is_a_value():
    assert solve_integer(IntMatrix.from_rows([[2]]), (1,)) is None


@pytest.mark.parametrize("b", [(2.7, 1), ("4", 1), (True, 1), (2, 1.0), (Fraction(2), 1)])
def test_solve_refuses_right_hand_sides_that_are_not_ints(b):
    # an int() cast would answer another system: (2.7, 1) as (2, 1), "4" as 4
    with pytest.raises(TypeError, match="is not an int"):
        solve_integer(IntMatrix.from_rows([[2, 0], [0, 1]]), b)


@settings(max_examples=200)
@given(matrices(max_dim=4, max_entry=5), st.data())
def test_solve_verifies(a, data):
    b = tuple(data.draw(st.integers(-9, 9)) for _ in range(a.rows))
    x = solve_integer(a, b)
    if x is not None:
        assert a.apply(x) == b


@settings(max_examples=150)
@given(matrices(max_dim=3, max_entry=3), st.data())
def test_solve_absence_confirmed_by_brute_force(a, data):
    b = tuple(data.draw(st.integers(-4, 4)) for _ in range(a.rows))
    x = solve_integer(a, b)
    if x is None:
        for cand in itertools.product(range(-9, 10), repeat=a.cols):
            assert a.apply(cand) != b


def test_homology_frozen_examples():
    # middle Z with zero maps on both sides
    assert homology_at(IntMatrix.zeros(1, 0), IntMatrix.zeros(0, 1)) == AbelianGroupInvariants(1, ())
    # incoming multiplication by 2 leaves Z/2
    assert homology_at(IntMatrix.from_rows([[2]]), IntMatrix.zeros(0, 1)) == AbelianGroupInvariants(0, (2,))
    # interval: Z -> Z by identity has trivial homology at both spots
    assert homology_at(IntMatrix.from_rows([[1]]), IntMatrix.zeros(0, 1)).is_trivial()
    assert homology_at(IntMatrix.zeros(1, 0), IntMatrix.from_rows([[1]])).is_trivial()


def test_homology_rejects_noncomplex():
    with pytest.raises(ValueError):
        homology_at(IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]))


def test_homology_transpose_duality_spot():
    # free part is invariant under transposing the complex; torsion moves a
    # degree but these fixed examples pin the values down
    d_in = IntMatrix.from_rows([[2, 0], [0, 3]])
    h = homology_at(d_in, IntMatrix.zeros(0, 2))
    assert h == AbelianGroupInvariants(0, (2, 3)) or h == AbelianGroupInvariants(0, (6,)) or h == AbelianGroupInvariants(0, (1, 6))
    # Smith of diag(2,3) is diag(1,6)
    assert h == AbelianGroupInvariants(0, (6,))


def test_cokernel_invariants():
    assert cokernel_invariants(IntMatrix.from_rows([[2, 0], [0, 1]])) == AbelianGroupInvariants(0, (2,))
    assert cokernel_invariants(IntMatrix.zeros(2, 0)) == AbelianGroupInvariants(2, ())


def test_matrix_rejects_non_int():
    with pytest.raises(TypeError):
        IntMatrix(1, 1, (1.5,))


@pytest.mark.parametrize("k", [2.0, Fraction(1, 2), "2"])
def test_scale_rejects_non_int_factors(k):
    for a in (IntMatrix.from_rows([[1, 2], [3, 4]]), IntMatrix.zeros(0, 3)):
        with pytest.raises(TypeError, match="not an int"):
            a.scale(k)


def test_shape_mismatches_are_refused():
    a = IntMatrix.from_rows([[1, 2]])
    refusals = [
        (lambda: IntMatrix(2, 2, (1, 2, 3)), "entry count does not match shape"),
        (lambda: IntMatrix.from_rows([[1, 2], [3]]), "ragged rows"),
        (lambda: a @ a, "cannot multiply 1x2 by 1x2"),
        (lambda: a.apply((1,)), "vector length does not match column count"),
        (lambda: a + IntMatrix.zeros(2, 1), "shape mismatch"),
        (lambda: a - IntMatrix.zeros(1, 3), "shape mismatch"),
        (lambda: solve_integer(a, (1, 2)), "right-hand side length does not match row count"),
        (lambda: homology_at(IntMatrix.zeros(2, 1), IntMatrix.zeros(1, 3)),
         "middle-degree rank mismatch between d_in and d_out"),
    ]
    for refused, message in refusals:
        with pytest.raises(ValueError) as caught:
            refused()
        assert str(caught.value) == message


def test_shape_constructors_reject_negative_dimensions():
    with pytest.raises(ValueError, match="negative matrix dimension"):
        IntMatrix.zeros(-1, 2)
    with pytest.raises(ValueError, match="negative matrix dimension"):
        IntMatrix.identity(-1)


@settings(max_examples=200)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    matrices_of(n, n), matrices_of(n, n), st.integers(-5, 5))))
def test_closed_operations_equal_the_checked_construction(case):
    a, b, k = case

    def checked(m):
        # the unchecked result must be what the checked constructor builds
        assert all(type(e) is int for e in m.entries)
        return IntMatrix(m.rows, m.cols, m.entries)

    n = a.rows
    assert checked(a + b) == IntMatrix(n, n, tuple(x + y for x, y in zip(a.entries, b.entries)))
    assert checked(a - b) == IntMatrix(n, n, tuple(x - y for x, y in zip(a.entries, b.entries)))
    assert checked(-a) == IntMatrix(n, n, tuple(-x for x in a.entries))
    assert checked(a.scale(k)) == IntMatrix(n, n, tuple(k * x for x in a.entries))
    assert checked(a @ b) == IntMatrix.from_rows(
        [[sum(a.entry(i, t) * b.entry(t, j) for t in range(n)) for j in range(n)] for i in range(n)])
    assert checked(IntMatrix.identity(n)) == IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])
    assert checked(IntMatrix.zeros(n, n + 1)).is_zero()
    assert a.is_zero() == all(x == 0 for x in a.entries)


def triple_loop_product(a, b):
    """The textbook product, every (i, k, j) visited, zeros included."""
    flat = [0] * (a.rows * b.cols)
    for i in range(a.rows):
        for k in range(a.cols):
            for j in range(b.cols):
                flat[i * b.cols + j] += a.entry(i, k) * b.entry(k, j)
    return IntMatrix(a.rows, b.cols, tuple(flat))


def sparse_huge_matrices_of(rows, cols):
    """Entries zero or up to 2**70 in size, each with even odds."""
    return st.tuples(*([st.just(0) | st.integers(-2**70, 2**70)] * (rows * cols))).map(
        lambda t: IntMatrix(rows, cols, t))


@settings(max_examples=300)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda n: st.tuples(sparse_huge_matrices_of(n[0], n[1]), sparse_huge_matrices_of(n[1], n[2]))))
def test_product_equals_the_triple_loop_on_rectangular_shapes(pair):
    # shapes include 0 rows, 0 columns and an empty inner dimension
    a, b = pair
    product = a @ b
    assert all(type(e) is int for e in product.entries)
    assert product == triple_loop_product(a, b)


NONZERO_HUGE = st.integers(1, 2**70) | st.integers(-2**70, -1)


@settings(max_examples=300)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda n: st.tuples(
        sparse_huge_matrices_of(n[0], n[1]), sparse_huge_matrices_of(n[1], n[2]),
        st.lists(NONZERO_HUGE, min_size=n[0] * n[2], max_size=n[0] * n[2]),
        st.sampled_from([-2, -1, 0, 1, 3]))))
def test_addmul_adds_c_times_the_triple_loop_product(case):
    # shapes include 0 rows, 0 columns and an empty inner dimension
    a, b, acc, c = case
    want = [x + c * y for x, y in zip(acc, triple_loop_product(a, b).entries)]
    exactlin._addmul(acc, a, b, c)
    assert acc == want
    assert all(type(e) is int for e in acc)


@settings(max_examples=200)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda n: st.tuples(sparse_huge_matrices_of(n[0], n[1]), sparse_huge_matrices_of(n[1], n[0]))))
def test_cached_rows_serve_either_side_of_a_product(pair):
    # a is the left factor first and then the right one, b the other way
    # round; every product equals the one of fresh, uncached copies
    a, b = pair

    def fresh(m):
        return IntMatrix(m.rows, m.cols, m.entries)

    ab, ba = a @ b, b @ a
    assert ab == triple_loop_product(fresh(a), fresh(b)) == fresh(a) @ fresh(b)
    assert ba == triple_loop_product(fresh(b), fresh(a)) == fresh(b) @ fresh(a)
    assert a @ b == ab and b @ a == ba


def test_shared_pairs_are_cleared_when_the_table_is_full(monkeypatch):
    monkeypatch.setattr(exactlin, "_PAIRS", {})
    monkeypatch.setattr(exactlin, "_PAIRS_MAX", 3)
    a = IntMatrix.from_rows([[1, 0, 2], [0, -3, 0]])
    b = IntMatrix.from_rows([[4, 0], [0, 5], [6, -7]])
    for m in (a, b, IntMatrix(a.rows, a.cols, a.entries)):
        exactlin._nonzero_rows(m)
    # a and b filled the table past 3, so the copy of a found it cleared
    assert len(exactlin._PAIRS) == 3
    assert a @ b == triple_loop_product(a, b)
    assert exactlin._nonzero_rows(a) == (((0, 1), (2, 2)), ((1, -3),))


def test_row_cache_is_not_part_of_the_value():
    m = IntMatrix.from_rows([[0, 2, 0], [-1, 0, 3]])
    twin = IntMatrix.from_rows([[0, 2, 0], [-1, 0, 3]])
    before = (repr(m), hash(m), str(m))
    m @ IntMatrix.identity(3)
    assert m._nz is not None and twin._nz is None
    assert m == twin and (repr(m), hash(m), str(m)) == before == (repr(twin), hash(twin), str(twin))


def test_row_caches_leave_a_serialized_tower_unchanged():
    she = extend_to_she(modify_homotopy_h(he_fixture(7)), 2)
    text = cli_io.serialize_document(she)
    # a parsed tower holds fresh matrices with no rows cached
    parsed = cli_io.parse_document(text)
    mats = [m for f in tower_assignment(parsed).values() for _, m in f.blocks]
    mats += [*parsed.M.diffs, *parsed.N.diffs]
    assert all(m._nz is None for m in mats)
    assert cli_io.serialize_document(parsed) == text
    assert validate_she(parsed) == []
    assert any(m._nz is not None for m in mats)
    assert cli_io.serialize_document(parsed) == text


def test_huge_entries_survive():
    n = 10**40
    a = IntMatrix.from_rows([[n, 1], [1, n]])
    dec = smith_normal_form(a)
    assert dec.U @ a @ dec.V == dec.S
    assert dec.diagonal()[0] == 1


@st.composite
def complexes_with_torsion(draw):
    """(d_in, d_out) with d_out d_in = 0, at most 8x8: the split pair
    d_out = [X | 0], d_in = [0 ; T Y] (T a diagonal of small factors, so
    torsion is common) conjugated by a random unimodular change of the
    middle basis."""
    lower, a, b, upper = (draw(st.integers(0, 4)) for _ in range(4))
    mid = a + b
    entries = st.integers(-3, 3)
    x = [[draw(entries) for _ in range(a)] for _ in range(lower)]
    t = [draw(st.sampled_from([1, 2, 3, 4])) for _ in range(b)]
    y = [[t[i] * draw(entries) for _ in range(upper)] for i in range(b)]
    d_out = IntMatrix(lower, mid, tuple(v for row in x for v in row + [0] * b))
    d_in = IntMatrix(mid, upper, tuple(v for row in [[0] * upper] * a + y for v in row))
    # U = product of elementary row operations, U^-1 = inverses in reverse
    u, u_inv = IntMatrix.identity(mid), IntMatrix.identity(mid)
    for _ in range(draw(st.integers(0, 6)) if mid >= 2 else 0):
        i, j = draw(st.lists(st.integers(0, mid - 1), min_size=2, max_size=2, unique=True))
        q = draw(st.integers(-2, 2))
        e = [[int(r == c) for c in range(mid)] for r in range(mid)]
        e[i][j] = q
        e_inv = [row[:] for row in e]
        e_inv[i][j] = -q
        u = IntMatrix.from_rows(e) @ u
        u_inv = u_inv @ IntMatrix.from_rows(e_inv)
    return u @ d_in, d_out @ u_inv


@settings(max_examples=120, deadline=None)
@given(complexes_with_torsion())
def test_homology_matches_sympy(pair):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    d_in, d_out = pair
    assert (d_out @ d_in).is_zero()
    h = homology_at(d_in, d_out)

    def rank(m):
        return sympy.Matrix(m.rows, m.cols, list(m.entries)).rank() if m.rows and m.cols else 0

    assert h.free_rank == d_out.cols - rank(d_out) - rank(d_in)
    if d_in.rows and d_in.cols:
        snf = sympy_snf(sympy.Matrix(d_in.rows, d_in.cols, list(d_in.entries)), domain=sympy.ZZ)
        torsion = sorted(abs(int(snf[i, i])) for i in range(min(snf.shape)) if abs(snf[i, i]) >= 2)
    else:
        torsion = []
    assert sorted(h.torsion) == torsion


@settings(max_examples=150, deadline=None)
@given(matrices(max_dim=8, max_entry=9))
def test_smith_diagonal_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    dec = smith_normal_form(a)
    assert dec.U @ a @ dec.V == dec.S
    snf = sympy_snf(sympy.Matrix(a.rows, a.cols, list(a.entries)), domain=sympy.ZZ)
    assert dec.diagonal() == tuple(abs(int(snf[i, i])) for i in range(min(snf.shape)))


# The dense elimination that builds both transforms as it goes, kept as the
# reference for the elimination log: the same operations, applied to U and V
# directly, so every result must agree field by field.  It scans for pivots
# on its own, every cell of the trailing submatrix, so it checks the pivot
# policy as well as the logs and their replay.


def reference_pivot(s, t, rows, cols):
    """The smallest nonzero |entry| of the trailing submatrix, ties by
    (row, col): the first such cell in row-major order."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            if s[i][j] and (best is None or abs(s[i][j]) < best[0]):
                best = (abs(s[i][j]), i, j)
    return None if best is None else best[1:]


def reference_smith(a):
    rows, cols = a.rows, a.cols
    s = a.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()

    def swap_rows(i, k):
        s[i], s[k] = s[k], s[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for r in s:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    def add_row(dst, src, q):
        sd, ss = s[dst], s[src]
        for j in range(cols):
            sd[j] += q * ss[j]
        ud, us = u[dst], u[src]
        for j in range(rows):
            ud[j] += q * us[j]

    def add_col(dst, src, q):
        for r in s:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = reference_pivot(s, t, rows, cols)
        if pos is None:
            break
        i, j = pos
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        while True:
            p = s[t][t]
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

    def matrix(m, n_cols):
        return IntMatrix(len(m), n_cols, tuple(x for r in m for x in r))

    rank = sum(1 for i in range(limit) if s[i][i])
    return matrix(u, rows), matrix(s, cols), matrix(v, cols), rank


def reference_solve(ref, b):
    u, s, v, _ = ref
    c = u.apply(b)
    y = [0] * s.cols
    for i in range(s.rows):
        si = s.entry(i, i) if i < min(s.rows, s.cols) else 0
        if si:
            if c[i] % si:
                return None
            y[i] = c[i] // si
        elif c[i]:
            return None
    return v.apply(tuple(y))


def reference_cokernel(ref):
    _, s, _, rank = ref
    diag = tuple(s.entry(i, i) for i in range(min(s.rows, s.cols)))
    return AbelianGroupInvariants(s.rows - rank, tuple(d for d in diag if d >= 2))


def assert_matches_reference(a, x):
    """Every entry point on ``a`` against the reference: the transforms,
    the cokernel, and solves of a consistent right-hand side
    a x and, when the column span is not all of Z^rows, an inconsistent
    one a x + e_k (some unit vector e_k lies outside the span then)."""
    ref = reference_smith(a)
    dec = smith_normal_form(a)
    assert (dec.U, dec.S, dec.V, dec.rank) == ref
    assert cokernel_invariants(a) == reference_cokernel(ref)
    b = a.apply(x)
    x0 = solve_integer(a, b)
    assert x0 is not None and x0 == reference_solve(ref, b)
    units = [tuple(int(i == k) for i in range(a.rows)) for k in range(a.rows)]
    outside = [e for e in units if reference_solve(ref, e) is None]
    assert bool(outside) == (cokernel_invariants(a) != AbelianGroupInvariants(0, ()))
    if outside:
        b = tuple(p + q for p, q in zip(b, outside[0]))
        assert solve_integer(a, b) is None and reference_solve(ref, b) is None


@st.composite
def elimination_inputs(draw):
    """(a, x): small, tall (up to 40x6) or wide matrices, dense or sparse,
    with some rows and columns zeroed (at least half the rows, as in the
    hom-complex matrices, in about half the draws), and a vector x to
    multiply."""
    shape = draw(st.sampled_from(("small", "tall", "wide")))
    if shape == "small":
        rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    elif shape == "tall":
        rows, cols = draw(st.integers(9, 40)), draw(st.integers(0, 6))
    else:
        rows, cols = draw(st.integers(0, 6)), draw(st.integers(9, 40))
    entry = st.integers(-9, 9) if draw(st.booleans()) else st.sampled_from((0, 0, 0, 1, -1, 2))
    if not rows:
        zero_rows = set()
    elif draw(st.booleans()):
        zero_rows = draw(st.sets(st.integers(0, rows - 1), min_size=(rows + 1) // 2))
    else:
        zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2)) if cols else set()
    flat = tuple(0 if i in zero_rows or j in zero_cols else draw(entry)
                 for i in range(rows) for j in range(cols))
    x = tuple(draw(st.integers(-3, 3)) for _ in range(cols))
    return IntMatrix(rows, cols, flat), x


@settings(max_examples=300, deadline=None)
@given(elimination_inputs())
def test_elimination_log_matches_the_dense_reference(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize("seed", [0, 5])
def test_elimination_matches_the_dense_reference_at_hom_complex_scale(seed):
    """The shapes the tower lifts eliminate, which the strategy above never
    draws: the filtered differentials of degree k = 2, 3 between the sides
    of a core-rank-12 retract (three degrees at seed 0, four at seed 5),
    up to 143x15, tall, a few percent nonzero, with many empty rows."""
    s = cone_retract_sdr(seed, 12, 6, 4)
    shapes = []
    for (src, tgt), k in itertools.product(itertools.product((s.M, s.N), repeat=2), (2, 3)):
        a = _filtered_differential(src, tgt, k)[1]
        assert_matches_reference(a, tuple(j % 7 - 3 for j in range(a.cols)))
        empty_rows = sum(1 for i in range(a.rows) if not any(a.row(i)))
        shapes.append((a.rows, a.cols, empty_rows, sum(map(bool, a.entries))))
    assert any(r >= 4 * c > 0 and e >= r // 3 and 25 * nz < r * c for r, c, e, nz in shapes)


def test_elimination_log_fixed_cases_run_every_branch():
    def logs(rows):
        a = IntMatrix.from_rows(rows)
        assert_matches_reference(a, (1,) * a.cols)
        return exactlin._eliminate(a)

    # the pivot is found in another column; the trailing submatrix runs out of pivots early
    assert logs([[0, 3], [0, 6]]) == ((3,), (("add", 1, 0, -2),), (("swap", 0, 1),))
    # the pivot 2 does not divide 3: row 1 is added to row 0, and (2, 3) -> (1, 6)
    diag, row_log, _ = logs([[2, 0], [0, 3]])
    assert diag == (1, 6) and ("add", 0, 1, 1) in row_log
    # clearing leaves a remainder below (row swap) or right of (column swap) the pivot
    assert logs([[2], [3]])[1] == (("add", 1, 0, -1), ("swap", 0, 1), ("add", 1, 0, -2))
    assert logs([[2, 3]])[2] == (("add", 1, 0, -1), ("swap", 0, 1), ("add", 1, 0, -2))
    # a negative pivot is negated at the end of its step
    assert logs([[-2]])[:2] == ((2,), (("neg", 0),))
    # a unit pivot skips the divisibility scan and still yields the same result
    assert logs([[-1, 4, 7], [6, 8, 9], [5, 3, 2]])[0] == (1, 1, 11)
    # zero rows stay zero, and on a matrix that starts with one the walks skip them:
    # row 1 dies under the first row operation and moves, dead, to position 2
    assert logs([[1, 2, 0], [2, 4, 0], [0, 0, 3], [0, 5, 0], [0, 0, 0]])[1][:2] == (("add", 1, 0, -2), ("swap", 1, 2))
    # a zero row in the pivot position is swapped out, twice
    assert logs([[0, 0], [0, 1], [3, 0]]) == ((1, 3), (("swap", 0, 1), ("swap", 1, 2)), (("swap", 0, 1),))
    # the divisibility scan passes the zero rows 1 and 2 and adds row 3 to the pivot row
    diag, row_log, _ = logs([[2, 0], [0, 0], [0, 0], [0, 3]])
    assert diag == (1, 6) and row_log[0] == ("add", 0, 3, 1)
    # an all-zero matrix: no pivot, empty logs
    assert logs([[0, 0, 0, 0]] * 3) == ((), (), ())
    # no columns: nothing to eliminate, and every nonzero b is inconsistent
    a = IntMatrix.zeros(3, 0)
    assert_matches_reference(a, ())
    assert solve_integer(a, (0, 0, 0)) == ()
    assert solve_integer(a, (0, 1, 0)) is None
    assert cokernel_invariants(a) == AbelianGroupInvariants(3, ())


# --- homology from two Smith diagonals against the kernel-lattice construction

def kernel_basis(a):
    """A saturated integer basis of ker(a): the columns of V past the rank."""
    dec = smith_normal_form(a)
    v, rank = dec.V, dec.rank
    return IntMatrix(v.rows, v.cols - rank, tuple(v.entry(i, j) for i in range(v.rows) for j in range(rank, v.cols)))


@settings(max_examples=150)
@given(matrices(max_dim=4, max_entry=5))
def test_kernel_basis_annihilates(a):
    k = kernel_basis(a)
    assert (a @ k).is_zero()


def ref_homology_at(d_in, d_out):
    """The earlier construction: coordinates of im(d_in) in a saturated
    basis of ker(d_out), then the cokernel of that coordinate matrix."""
    k = kernel_basis(d_out)
    if k.cols == 0:
        return AbelianGroupInvariants(0, ())
    if d_in.cols == 0:
        return AbelianGroupInvariants(k.cols, ())
    coords = [[0] * d_in.cols for _ in range(k.cols)]
    for col in range(d_in.cols):
        x = solve_integer(k, tuple(d_in.entry(i, col) for i in range(d_in.rows)))
        assert x is not None
        for i in range(k.cols):
            coords[i][col] = x[i]
    return cokernel_invariants(IntMatrix.from_rows(coords))


def transpose(m):
    return IntMatrix(m.cols, m.rows, tuple(m.entry(i, j) for j in range(m.cols) for i in range(m.rows)))


@st.composite
def chain_pairs_from_left_kernels(draw):
    """(d_in, d_out) with d_in random (entries in -3..3, so torsion is
    common) and the rows of d_out random combinations of a basis of the
    left kernel of d_in."""
    lower, mid, upper = draw(st.integers(0, 4)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    d_in = draw(matrices_of(mid, upper, max_entry=3))
    left = kernel_basis(transpose(d_in))
    d_out = draw(matrices_of(lower, left.cols, max_entry=3)) @ transpose(left)
    return d_in, d_out


@settings(max_examples=300, deadline=None)
@given(chain_pairs_from_left_kernels())
def test_homology_equals_the_kernel_lattice_construction(pair):
    d_in, d_out = pair
    assert homology_at(d_in, d_out) == ref_homology_at(d_in, d_out)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_homology_of_fixture_complexes_equals_the_kernel_lattice_construction(seed):
    s, he = cone_retract_sdr(seed), he_fixture(seed)
    for c in (s.M, s.N, he.M, he.N):
        for n in c.degrees():
            d_in, d_out = c.d_block(n + 1), c.d_block(n)
            assert homology_at(d_in, d_out) == ref_homology_at(d_in, d_out)
