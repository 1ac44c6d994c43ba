import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertlab.exactlin import (
    AbelianGroupInvariants,
    IntMatrix,
    cokernel_invariants,
    homology_at,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)


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


def test_smith_frozen_example():
    dec = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert dec.diagonal() == (2, 4)
    assert dec.rank == 2


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


@settings(max_examples=150)
@given(matrices(max_dim=4, max_entry=5))
def test_kernel_basis_annihilates(a):
    k = kernel_basis(a)
    assert (a @ k).is_zero()


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
