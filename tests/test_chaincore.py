import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertlab.chaincore import (
    ChainComplex,
    GradedMap,
    compose,
    complex_with_differential,
    filtration_shift,
    hom_basis,
    hom_complex,
    hom_differential,
    map_to_vec,
    validate_complex,
    vec_to_map,
)
from pertlab.exactlin import IntMatrix
from pertlab.fixtures import _random_core, build_complex, he_fixture, interval_complex, sdr_fixture, zero_complex


def two_step():
    # Z <- Z^2 <- Z in degrees 0..2, d(b_i) = a_i, d(c) = 0 so that d^2 = 0
    return build_complex(
        0, (1, 2, 1), ((0,), (0, 1), (1,)),
        {1: [[1, 0]], 2: [[0], [0]]}, max_weight=1,
    )


def maps_between(src, tgt, degree, data, lo=-4, hi=4):
    blocks = {}
    for n in src.degrees():
        r = tgt.rank_at(n + degree)
        c = src.rank_at(n)
        if r and c:
            entries = tuple(data.draw(st.integers(lo, hi)) for _ in range(r * c))
            blocks[n] = IntMatrix(r, c, entries)
    return GradedMap.from_blocks(src, tgt, degree, blocks)


def test_constructor_rejections():
    with pytest.raises(ValueError, match="empty degree window"):
        ChainComplex(1, 0, (), (), (), 0)
    with pytest.raises(ValueError, match="one differential block"):
        ChainComplex(0, 1, (1, 1), ((0,), (0,)), (), 0)
    with pytest.raises(ValueError, match="wrong length"):
        ChainComplex(0, 1, (1, 1), ((0, 0), (0,)), (IntMatrix.zeros(1, 1),), 0)
    with pytest.raises(ValueError, match="^negative rank$"):
        ChainComplex(0, 0, (-1,), ((),), (), 0)
    with pytest.raises(ValueError, match="^differential block 0 has shape 2x1$"):
        ChainComplex(0, 1, (1, 1), ((0,), (0,)), (IntMatrix.zeros(2, 1),), 0)


def test_validate_flags_filtration_leak():
    c = build_complex(0, (1, 1), ((0,), (1,)), {1: [[1]]}, max_weight=1)
    assert validate_complex(c) == [
        "filtration leak in d at degree 1, entry (0, 0): weight 1 -> 0"
    ]


def test_validate_reports_the_first_leak_of_a_degree_in_row_major_order():
    # two leaks in degree 1, at (0, 1) and (1, 0): the row-major first is reported, once
    c = ChainComplex(0, 1, (2, 2), ((0, 0), (1, 2)), (IntMatrix.from_rows([[0, 1], [1, 0]]),), 2)
    assert validate_complex(c) == [
        "filtration leak in d at degree 1, entry (0, 1): weight 2 -> 0"
    ]


def test_validate_flags_weight_range_and_square():
    c = ChainComplex(0, 0, (2,), ((0, 5),), (), 1)
    assert validate_complex(c) == ["weight out of range at degree 0, index 1: 5"]
    bad = ChainComplex(
        0, 2, (1, 1, 1), ((0,), (0,), (0,)),
        (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])), 0,
    )
    assert validate_complex(bad) == ["d^2 != 0 out of degree 2, first entry (0, 0)"]


def test_validate_clean_examples():
    assert validate_complex(zero_complex()) == []
    assert validate_complex(interval_complex()) == []
    assert validate_complex(two_step()) == []


def ref_validate_complex(c):
    """``validate_complex`` with no shortcut: every weight read one by one,
    every entry of each block scanned for a leak, and d o d built as a
    matrix product and scanned entry by entry."""
    problems = []
    for t, row in enumerate(c.weights):
        n = c.degree_lo + t
        for i, w in enumerate(row):
            if not (0 <= w <= c.max_weight):
                problems.append(f"weight out of range at degree {n}, index {i}: {w}")
    for t, m in enumerate(c.diffs):
        n, w_to, w_from = c.degree_lo + t + 1, c.weights[t], c.weights[t + 1]
        for p in range(len(m.entries)):
            i, j = divmod(p, m.cols)
            if m.entries[p] and w_to[i] < w_from[j]:
                problems.append(
                    f"filtration leak in d at degree {n}, entry ({i}, {j}): weight {w_from[j]} -> {w_to[i]}"
                )
                break
    for n in range(c.degree_lo + 2, c.degree_hi + 1):
        sq = c.d_block(n - 1) @ c.d_block(n)
        if not sq.is_zero():
            where = next(
                (i, j) for i in range(sq.rows) for j in range(sq.cols) if sq.entry(i, j)
            )
            problems.append(f"d^2 != 0 out of degree {n}, first entry {where}")
    return problems


@st.composite
def flawed_complexes(draw):
    """A random valid complex (``fixtures._random_core``) with flaws
    injected, each of a kind its validator must name: a weight out of
    range, a leak (a nonzero entry from a heavier to a lighter basis
    element) or d o d != 0 (entry (i, j) of d d made exactly 1), plus stray
    entries set to any value.  Returns the complex and the message prefix
    of each flaw injected, None for a stray entry."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    core = _random_core(rng, draw(st.integers(2, 9)), draw(st.integers(2, 4)), draw(st.integers(1, 3)))
    lo, top = draw(st.integers(-2, 2)), core.max_weight
    weights = [list(row) for row in core.weights]
    diffs = [[list(r) for r in m.to_rows()] for m in core.diffs]
    made = []
    for kind in draw(st.lists(st.sampled_from(("weight", "leak", "square", "stray")), min_size=1, max_size=3)):
        if kind == "weight":
            t = draw(st.sampled_from([t for t, row in enumerate(weights) if row]))
            i = draw(st.integers(0, len(weights[t]) - 1))
            weights[t][i] = draw(st.sampled_from((-2, -1, top + 1, top + 3)))
            made.append("weight out of range")
            continue
        blocks = [t for t, rows in enumerate(diffs) if rows and rows[0]]
        if kind == "square":
            blocks = [t for t in blocks if t + 1 in blocks]
        if not blocks:
            continue
        t = draw(st.sampled_from(blocks))
        i, j = draw(st.integers(0, len(diffs[t]) - 1)), draw(st.integers(0, len(diffs[t][0]) - 1))
        if kind == "leak":
            diffs[t][i][j] = draw(st.sampled_from((-2, -1, 1, 2)))
            weights[t][i], weights[t + 1][j] = top - 1, top
            made.append("filtration leak")
        elif kind == "square":
            # (d_t d_t+1)[i][q] = d_t[i][j] d_t+1[j][q] = 1, the other terms zeroed
            q = draw(st.integers(0, len(diffs[t + 1][0]) - 1))
            diffs[t][i] = [int(x == j) for x in range(len(diffs[t][i]))]
            for x, row in enumerate(diffs[t + 1]):
                row[q] = int(x == j)
            made.append("d^2 != 0")
        else:
            diffs[t][i][j] = draw(st.integers(-3, 3))
            made.append(None)
    c = ChainComplex(lo, lo + len(core.ranks) - 1, core.ranks, tuple(map(tuple, weights)),
                     tuple(IntMatrix(m.rows, m.cols, tuple(x for row in rows for x in row))
                           for m, rows in zip(core.diffs, diffs)), top)
    return c, made


@settings(max_examples=300, deadline=None)
@given(flawed_complexes())
def test_validate_complex_matches_the_entry_by_entry_reference(case):
    c, made = case
    got = validate_complex(c)
    assert got == ref_validate_complex(c)
    # a later flaw can undo an earlier one, so a flaw's message is
    # required when it is the only one injected
    if len(made) == 1 and made[0] is not None:
        assert any(p.startswith(made[0]) for p in got)


def test_filtration_shift_values():
    c = two_step()
    assert filtration_shift(GradedMap.identity(c)) == 0
    # the zero map gains the whole filtration and then some
    assert filtration_shift(GradedMap.zero(c, c, 0)) == c.max_weight + 1
    raise_one = GradedMap.from_blocks(c, c, 0, {0: IntMatrix.from_rows([[0]]), 2: IntMatrix.from_rows([[0]]),
                                                1: IntMatrix.from_rows([[0, 0], [1, 0]])})
    assert filtration_shift(raise_one) == 1
    # (1 + raise_one) - 1 strictly raises the filtration, raise_one - 1 does not
    assert filtration_shift(GradedMap.identity(c) + raise_one - GradedMap.identity(c)) >= 1
    assert filtration_shift(raise_one - GradedMap.identity(c)) < 1


def test_differential_is_chain_map_of_its_complex():
    c = two_step()
    d = c.differential_map()
    assert d.degree == -1
    assert hom_differential(d).is_zero()
    # the block map of d, with its zero block out of degree 2 dropped
    assert d == GradedMap.from_blocks(c, c, -1, {n: c.d_block(n) for n in c.degrees()})
    assert [n for n, _ in d.blocks] == [1]
    assert zero_complex().differential_map().is_zero()


@settings(max_examples=120)
@given(st.integers(0, 40), st.sampled_from([-2, -1, 0, 1, 2]), st.data())
def test_hom_differential_squares_to_zero(seed, degree, data):
    s, _ = sdr_fixture(seed % 8)
    f = maps_between(s.M, s.N, degree, data)
    assert hom_differential(hom_differential(f)).is_zero()


def test_hom_differential_sign_convention():
    # On an even-degree map D(f) = d f - f d, on odd degree D(f) = d f + f d.
    c = interval_complex()
    d = c.differential_map()
    f = GradedMap.from_blocks(c, c, 0, {0: IntMatrix.from_rows([[1]])})
    h = GradedMap.from_blocks(c, c, 1, {0: IntMatrix.from_rows([[1]])})
    assert hom_differential(f) == compose(d, f) - compose(f, d)
    assert hom_differential(h) == compose(d, h) + compose(h, d)


@settings(max_examples=80)
@given(st.integers(0, 20), st.data())
def test_compose_is_associative_and_unital(seed, data):
    s, _ = sdr_fixture(seed % 6)
    f = maps_between(s.M, s.N, 0, data)
    g = maps_between(s.N, s.M, 1, data)
    h = maps_between(s.M, s.N, -1, data)
    assert compose(f, compose(g, h)) == compose(compose(f, g), h)
    assert compose(f, GradedMap.identity(s.M)) == f
    assert compose(GradedMap.identity(s.N), f) == f


def test_graded_map_shape_check():
    c = two_step()
    with pytest.raises(ValueError, match="block at degree 1 has shape 1x1, expected 2x2"):
        GradedMap.from_blocks(c, c, 0, {1: IntMatrix.from_rows([[1]])})


@settings(max_examples=100)
@given(st.integers(0, 20), st.sampled_from([-1, 0, 1, 2]), st.data())
def test_vec_round_trip(seed, degree, data):
    s, _ = sdr_fixture(seed % 6)
    f = maps_between(s.M, s.N, degree, data)
    basis = hom_basis(s.M, s.N, degree)
    assert vec_to_map(s.M, s.N, degree, basis, map_to_vec(f, basis)) == f


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["sdr", "he"]), st.integers(0, 40))
def test_hom_complex_matrix_matches_hom_differential(kind, seed):
    x = sdr_fixture(seed)[0] if kind == "sdr" else he_fixture(seed)
    for m, n in ((x.M, x.N), (x.N, x.M), (x.M, x.M)):
        for k in range(-1, 4):
            sl = hom_complex(m, n, k)
            lower = hom_basis(m, n, k - 1)
            assert sl.basis == hom_basis(m, n, k)
            # check on every basis element, which spans the slice
            for idx in range(len(sl.basis)):
                vec = tuple(1 if t == idx else 0 for t in range(len(sl.basis)))
                e = vec_to_map(m, n, k, sl.basis, vec)
                assert sl.differential_matrix.apply(vec) == map_to_vec(hom_differential(e), lower)


# Reference kernels for hom_complex, hom_differential and filtration_shift,
# built by composing maps (one basis map per hom_complex column) rather
# than from the nonzeros of d.  The library must agree with them bit for bit.


def ref_hom_complex_matrix(m, n, k):
    """One column per basis map: its D composed with the differentials."""
    basis, lower = hom_basis(m, n, k), hom_basis(m, n, k - 1)
    units = [tuple(int(t == c) for t in range(len(basis))) for c in range(len(basis))]
    cols = [map_to_vec(ref_hom_differential(vec_to_map(m, n, k, basis, e)), lower) for e in units]
    return IntMatrix(len(lower), len(cols), tuple(col[r] for r in range(len(lower)) for col in cols))


def ref_hom_differential(f):
    left = compose(f.target.differential_map(), f)
    right = compose(f, f.source.differential_map())
    return left - right if f.degree % 2 == 0 else left + right


def ref_filtration_shift(f):
    best = None
    for n, mat in f.blocks:
        for i in range(mat.rows):
            for j in range(mat.cols):
                if mat.entry(i, j):
                    s = f.target.weight_at(n + f.degree, i) - f.source.weight_at(n, j)
                    if best is None or s < best:
                        best = s
    if best is None:
        return max(f.source.max_weight, f.target.max_weight) + 1
    return best


def fixture_pair(kind, seed, pair):
    x = sdr_fixture(seed)[0] if kind == "sdr" else he_fixture(seed)
    return {"MN": (x.M, x.N), "NM": (x.N, x.M), "MM": (x.M, x.M)}[pair]


def drawn_map(src, tgt, k, shape, data):
    """A random degree-k map: all blocks, none, or only the blocks whose
    source or target degree is at the edge of its window."""
    if shape == "zero":
        return GradedMap.zero(src, tgt, k)
    f = maps_between(src, tgt, k, data)
    if shape == "edges":
        edges = {src.degree_lo, src.degree_hi, tgt.degree_lo - k, tgt.degree_hi - k}
        return GradedMap.from_blocks(src, tgt, k, {n: m for n, m in f.blocks if n in edges})
    return f


KINDS = st.sampled_from(["sdr", "he"])
PAIRS = st.sampled_from(["MN", "NM", "MM"])
SHAPES = st.sampled_from(["full", "zero", "edges"])


@settings(max_examples=60, deadline=None)
@given(KINDS, st.integers(0, 40), PAIRS)
def test_hom_complex_matches_compose_reference(kind, seed, pair):
    m, n = fixture_pair(kind, seed, pair)
    for k in range(-1, 4):
        sl = hom_complex(m, n, k)
        want = ref_hom_complex_matrix(m, n, k)
        assert sl.basis == hom_basis(m, n, k)
        assert (sl.differential_matrix.rows, sl.differential_matrix.cols) == (want.rows, want.cols)
        assert sl.differential_matrix.entries == want.entries
        assert all(type(e) is int for e in sl.differential_matrix.entries)


@settings(max_examples=150, deadline=None)
@given(KINDS, st.integers(0, 40), PAIRS, st.integers(-1, 3), SHAPES, st.data())
def test_hom_differential_matches_compose_reference(kind, seed, pair, k, shape, data):
    m, n = fixture_pair(kind, seed, pair)
    f = drawn_map(m, n, k, shape, data)
    got = hom_differential(f)
    assert got == ref_hom_differential(f)
    assert all(type(e) is int for _, mat in got.blocks for e in mat.entries)
    # again with every block's rows cached, and on fresh copies of the blocks
    fresh = GradedMap.from_blocks(m, n, k, {d: IntMatrix(a.rows, a.cols, a.entries) for d, a in f.blocks})
    assert hom_differential(f) == got == hom_differential(fresh)


@settings(max_examples=150, deadline=None)
@given(KINDS, st.integers(0, 40), PAIRS, st.integers(-1, 3), SHAPES, st.data())
def test_filtration_shift_matches_cell_scan_reference(kind, seed, pair, k, shape, data):
    m, n = fixture_pair(kind, seed, pair)
    f = drawn_map(m, n, k, shape, data)
    assert filtration_shift(f) == ref_filtration_shift(f)


def test_hom_complex_squares_to_zero():
    s, _ = sdr_fixture(5)
    for k in (0, 1, 2):
        a = hom_complex(s.M, s.N, k)
        b = hom_complex(s.M, s.N, k - 1)
        assert (b.differential_matrix @ a.differential_matrix).is_zero()


def test_map_arithmetic_refuses_maps_of_different_degrees():
    c = two_step()
    with pytest.raises(ValueError, match="^maps live in different hom groups$"):
        GradedMap.zero(c, c, 0) + GradedMap.zero(c, c, 1)
    with pytest.raises(ValueError, match="^maps live in different hom groups$"):
        GradedMap.zero(c, c, 0) - GradedMap.zero(c, c, 1)


def test_vec_to_map_refuses_a_vector_of_the_wrong_length():
    c = two_step()
    basis = hom_basis(c, c, 0)
    with pytest.raises(ValueError, match="^vector length does not match basis size$"):
        vec_to_map(c, c, 0, basis, (0,) * (len(basis) + 1))


def test_complex_with_differential_swaps_d():
    c = two_step()
    z = GradedMap.zero(c, c, -1)
    c2 = complex_with_differential(c, z)
    assert c2.ranks == c.ranks and c2.weights == c.weights
    assert all(c2.d_block(n).is_zero() for n in range(1, 3))
    with pytest.raises(ValueError, match="degree -1 self-map"):
        complex_with_differential(c, GradedMap.zero(c, c, 0))
