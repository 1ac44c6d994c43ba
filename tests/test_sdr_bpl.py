import dataclasses
import functools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pertlab import sdr_bpl
from pertlab.chaincore import (
    GradedMap,
    complex_with_differential,
    compose,
    filtration_shift,
    hom_differential,
    validate_complex,
)
from pertlab.exactlin import IntMatrix
from pertlab.fixtures import (
    build_complex,
    cone_retract_sdr,
    he_fixture,
    sdr_fixture,
    weight_raising_perturbation,
)
from pertlab.sdr_bpl import (
    InternalConsistencyError,
    Perturbation,
    SdrData,
    SideConditionError,
    bpl_transfer,
    check_side_conditions,
    evaluate_words,
    geometric_kernel,
    perturbed_complex,
    validate_perturbation,
    validate_sdr,
)
from pertlab.ipl_pipeline import solve_pp
from pertlab.operad_sym import gen, id_word, word
from pertlab.she_obstruction import extend_to_she, he_from_sdr, tower_assignment, validate_he, validate_she


def lazy_retract():
    """A valid retract that violates two of the three side conditions.

    Both complexes carry zero differential, so any degree 1 self-map is a
    valid contracting homotopy for the identity equivalence.
    """
    m = build_complex(0, (2, 1), ((1, 0), (0,)), {1: [[0], [0]]}, max_weight=1)
    ident = GradedMap.identity(m)
    h = GradedMap.from_blocks(m, m, 1, {0: IntMatrix.from_rows([[0, 1]])})
    return SdrData(m, m, ident, ident, h)


def lazy_perturbation():
    m = lazy_retract().M
    delta = GradedMap.from_blocks(m, m, -1, {1: IntMatrix.from_rows([[1], [0]])})
    return Perturbation(m, delta)


def test_cone_fixtures_are_valid_with_side_conditions():
    for seed in range(10):
        s = cone_retract_sdr(seed)
        assert validate_sdr(s) == []
        assert check_side_conditions(s).all


def test_validate_sdr_catches_broken_identity():
    s = cone_retract_sdr(1)
    bad = SdrData(s.M, s.N, s.F, s.G, s.H + s.H)
    assert "d H + H d != G F - 1 on M" in validate_sdr(bad)
    bad = SdrData(s.M, s.N, s.F, s.G, GradedMap.zero(s.M, s.M, 0))
    assert validate_sdr(bad) == ["H has degree 0, expected 1"]


def test_lazy_retract_is_valid_but_fails_side_conditions():
    s = lazy_retract()
    assert validate_sdr(s) == []
    side = check_side_conditions(s)
    assert side.hh_zero and not side.hg_zero and not side.fh_zero
    assert not side.all


def test_perturbation_validation():
    p = lazy_perturbation()
    assert validate_perturbation(p) == []
    flat = Perturbation(p.base, GradedMap.from_blocks(
        p.base, p.base, -1, {1: IntMatrix.from_rows([[0], [1]])}))
    assert validate_perturbation(flat) == [
        "delta has filtration shift 0, expected >= 1"
    ]
    other = build_complex(0, (1,), ((0,),), {}, 0)
    foreign = Perturbation(p.base, GradedMap.zero(other, other, -1))
    assert validate_perturbation(foreign) == ["delta is not a self-map of the base complex"]
    misgraded = Perturbation(p.base, GradedMap.zero(p.base, p.base, 0))
    assert validate_perturbation(misgraded) == ["delta has degree 0, expected -1"]


def test_perturbed_complex_carries_new_differential():
    p = lazy_perturbation()
    c = perturbed_complex(p)
    assert c.d_block(1) == IntMatrix.from_rows([[1], [0]])
    assert c.ranks == p.base.ranks and c.weights == p.base.weights


def test_geometric_kernel_self_consistency():
    for seed in range(8):
        s, p = sdr_fixture(seed)
        k = geometric_kernel(p, s.H)
        # K is the fixed point of the recursion K = delta + delta H K
        assert k == p.delta + compose(compose(p.delta, s.H), k)


def test_geometric_kernel_rejects_flat_delta():
    s = lazy_retract()
    flat = GradedMap.from_blocks(s.M, s.M, -1, {1: IntMatrix.from_rows([[0], [1]])})
    with pytest.raises(ValueError, match="geometric series would not terminate"):
        geometric_kernel(Perturbation(s.M, flat), s.H)


def test_geometric_kernel_refuses_a_non_nilpotent_series_within_a_second():
    # h lowers the filtration, so h delta is the identity of degree 1 and
    # every summand is delta; a bound read from the declared max_weight
    # looped 10^6 + 2 times
    c = build_complex(0, (1, 1), ((1,), (0,)), {}, 10**6)
    delta = GradedMap.from_blocks(c, c, -1, {1: IntMatrix.from_rows([[1]])})
    h = GradedMap.from_blocks(c, c, 1, {0: IntMatrix.from_rows([[1]])})
    start = time.perf_counter()
    with pytest.raises(InternalConsistencyError, match="^truncation leak: the kernel series of degree -1 "):
        geometric_kernel(Perturbation(c, delta), h)
    assert time.perf_counter() - start < 1


def bpl_by_hand(s: SdrData, p: Perturbation):
    """The basic perturbation lemma's four formulas, d_N + F K G, F + F K H,
    G + H K G and H + H K H, with K = delta + delta H delta + ... summed
    until a summand vanishes."""
    hd = compose(s.H, p.delta)
    k = term = p.delta
    while not term.is_zero():
        term = compose(term, hd)
        k = k + term
    fk, hk = compose(s.F, k), compose(s.H, k)
    return (s.N.differential_map() + compose(fk, s.G), s.F + compose(fk, s.H),
            s.G + compose(hk, s.G), s.H + compose(hk, s.H))


def test_bpl_transfer_matches_the_four_hand_formulas():
    # among sdr_fixture seeds 0-199, only 50, 63, 68 and 110 move d_N
    moved = moved_d_n = 0
    for seed in (*range(30), 50, 63, 68, 110):
        s, p = sdr_fixture(seed)
        out = bpl_transfer(s, p)
        d_n, f, g, h = bpl_by_hand(s, p)
        assert out.N.differential_map().blocks == d_n.blocks, seed
        assert (out.F.blocks, out.G.blocks, out.H.blocks) == (f.blocks, g.blocks, h.blocks), seed
        moved += (d_n, f, g, h) != (s.N.differential_map(), s.F, s.G, s.H)
        moved_d_n += d_n != s.N.differential_map()
    assert moved >= 5 and moved_d_n >= 1


def shift_of_difference(a: GradedMap, b: GradedMap) -> int:
    """Filtration shift of a - b, ignoring that they join different complexes."""
    src, tgt = a.source, a.target
    best = max(src.max_weight, tgt.max_weight) + 1
    for n in src.degrees():
        d = a.block_at(n) - b.block_at(n)
        for i in range(d.rows):
            for j in range(d.cols):
                if d.entry(i, j):
                    best = min(best, tgt.weight_at(n + a.degree, i) - src.weight_at(n, j))
    return best


def test_bpl_transfer_identities_and_perturbation_property():
    for seed in range(12):
        s, p = sdr_fixture(seed)
        out = bpl_transfer(s, p)
        assert validate_sdr(out) == []
        assert out.M == perturbed_complex(p)
        assert shift_of_difference(out.F, s.F) >= 1
        assert shift_of_difference(out.G, s.G) >= 1
        assert shift_of_difference(out.H, s.H) >= 1
        assert shift_of_difference(out.N.differential_map(),
                                   s.N.differential_map()) >= 1


def test_bpl_transfer_zero_delta_is_identity():
    s = cone_retract_sdr(2)
    p = Perturbation(s.M, GradedMap.zero(s.M, s.M, -1))
    out = bpl_transfer(s, p)
    assert (out.F, out.G, out.H) == (s.F, s.G, s.H)
    assert out.N.diffs == s.N.diffs


def test_bpl_transfer_requires_side_conditions():
    with pytest.raises(SideConditionError, match="HH=0 True, HG=0 False, FH=0 False"):
        bpl_transfer(lazy_retract(), lazy_perturbation())


def test_bpl_transfer_rejects_foreign_perturbation():
    s = cone_retract_sdr(0)
    with pytest.raises(ValueError, match="does not live on the retract's big complex"):
        bpl_transfer(s, lazy_perturbation())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
# seeds whose perturbation reaches past the first kernel term, so that a
# kernel series summed wrong fails the check on every run
@example(5)
@example(63)
def test_bpl_transfer_property_over_seeds(seed):
    s, p = sdr_fixture(seed)
    out = bpl_transfer(s, p)
    assert validate_sdr(out) == []
    assert check_side_conditions(s).all


def crude_perturb(he, p: Perturbation):
    """Perturb a plain homotopy equivalence, keeping only (d'_N, F', G').

    Runs the full equivalence-perturbation pipeline with its default
    homotopy repair strategy and discards the transferred homotopies.
    """
    sol = solve_pp(he, p, strategy="modify_h")
    return sol.d_n_tilde, sol.f_tilde, sol.g_tilde


def test_crude_perturb_matches_transfer_on_a_retract():
    s, p = sdr_fixture(4)
    he = he_from_sdr(s)
    assert validate_he(he) == []
    d_n, f, g = crude_perturb(he, p)
    full = bpl_transfer(s, p)
    assert d_n == full.N.differential_map()
    assert f == full.F and g == full.G


# --- validate_sdr against its hand-written form --------------------------------


def _expect_map_by_hand(problems, f, name, src, tgt, degree):
    if f.source != src or f.target != tgt:
        problems.append(f"{name} does not run between the stated complexes")
        return False
    if f.degree != degree:
        problems.append(f"{name} has degree {f.degree}, expected {degree}")
        return False
    if filtration_shift(f) < 0:
        problems.append(f"{name} does not preserve the filtration (shift {filtration_shift(f)})")
    return True


def validate_sdr_by_hand(s: SdrData) -> list[str]:
    """The retract identities and the ends of F, G and H written out, as
    validate_sdr stated them before it became the cap-0 tower check."""
    problems = [f"{name}: {p}" for name, c in (("M", s.M), ("N", s.N)) for p in validate_complex(c)]
    ok = _expect_map_by_hand(problems, s.F, "F", s.M, s.N, 0)
    ok &= _expect_map_by_hand(problems, s.G, "G", s.N, s.M, 0)
    ok &= _expect_map_by_hand(problems, s.H, "H", s.M, s.M, 1)
    if not ok or problems:
        return problems
    if not hom_differential(s.F).is_zero():
        problems.append("F is not a chain map")
    if not hom_differential(s.G).is_zero():
        problems.append("G is not a chain map")
    if compose(s.F, s.G) != GradedMap.identity(s.N):
        problems.append("F G != 1 on N")
    if hom_differential(s.H) != compose(s.G, s.F) - GradedMap.identity(s.M):
        problems.append("d H + H d != G F - 1 on M")
    return problems


def _bump_entry(rng: random.Random, f: GradedMap) -> GradedMap:
    """f with one entry of one nonempty block moved by a small nonzero amount."""
    degrees = [n for n in f.source.degrees()
               if f.source.rank_at(n) and f.target.rank_at(n + f.degree)]
    if not degrees:
        return f
    n = rng.choice(degrees)
    m = f.block_at(n)
    entries = list(m.entries)
    entries[rng.randrange(len(entries))] += rng.choice((-2, -1, 1, 2))
    blocks = dict(f.blocks)
    blocks[n] = IntMatrix(m.rows, m.cols, tuple(entries))
    return GradedMap.from_blocks(f.source, f.target, f.degree, blocks)


def _mutated_retract(rng: random.Random, s: SdrData) -> SdrData:
    """One or two random edits of a retract: a moved entry, a scaled map, a
    map of the wrong degree or between the wrong complexes, or a complex
    whose differential has a moved entry."""
    for _ in range(rng.randint(1, 2)):
        name = rng.choice("FGH")
        f = getattr(s, name)
        kind = rng.choice(("entry", "entry", "entry", "scale", "degree", "ends", "complex"))
        if kind == "entry":
            f = _bump_entry(rng, f)
        elif kind == "scale":
            f = f.scale(rng.choice((0, -1, 2)))
        elif kind == "degree":
            f = GradedMap.zero(f.source, f.target, f.degree + rng.choice((-1, 1)))
        elif kind == "ends":
            f = GradedMap.zero(f.target, f.source, f.degree)
        else:
            side = rng.choice("MN")
            c = getattr(s, side)
            c = complex_with_differential(c, _bump_entry(rng, c.differential_map()))
            s = dataclasses.replace(s, **{side: c})
            continue
        s = dataclasses.replace(s, **{name: f})
    return s


def test_a_word_sum_in_another_hom_group_fails_its_identity(monkeypatch):
    # f_2's row planted as words of degree 0: they land in (M, N, 0), not in
    # D(F_even[1])'s (M, N, 1).  f0 - f0 sums to zero there, as D of this
    # tower's zero F_even[1] does, so only the hom group tells them apart.
    tower = extend_to_she(he_fixture(0), 1)
    assert tower.F_even[1].is_zero()
    f0, f2, table = word(gen("f", 0)), gen("f", 2), sdr_bpl.generator_diff
    for row in (((f0, 1),), ((f0, 1), (f0, -1))):
        monkeypatch.setattr(sdr_bpl, "generator_diff", lambda z: row if z is f2 else table(z))
        assert validate_she(tower) == ["tower identity fails for F_even[1]"]


def test_validate_sdr_matches_the_hand_written_identities():
    rng = random.Random(0)
    bases = [sdr_fixture(seed)[0] for seed in range(8)] + [lazy_retract()]
    reports = []
    for _ in range(300):
        s = _mutated_retract(rng, rng.choice(bases))
        reports.append(validate_sdr_by_hand(s))
        assert validate_sdr(s) == reports[-1]
    assert sum(map(bool, reports)) >= 200
    lines = {p for report in reports for p in report}
    for text in ("M: ", "N: ", "F is not a chain map", "G is not a chain map", "F G != 1 on N",
                 "d H + H d != G F - 1 on M", "has degree", "does not run between",
                 "does not preserve the filtration"):
        assert any(text in p for p in lines), text


# --- evaluate_words against the term-by-term evaluation ----------------------


def evaluate_words_term_by_term(terms, assign, M, N):
    """Each term composed, scaled and added to the running sum on its own."""
    total = None
    for w, c in terms:
        if w.is_identity:
            img = GradedMap.identity(M if w.id_color == "B" else N)
        else:
            img = None
            for z in reversed(w.factors):
                if z not in assign:
                    raise ValueError(f"generator {z.token} is not assigned in this action")
                img = assign[z] if img is None else compose(assign[z], img)
        part = img.scale(c)
        total = part if total is None else total + part
    return total


@functools.lru_cache(maxsize=None)
def _cap_one_tower(seed):
    return tower_assignment(extend_to_she(he_fixture(seed), 1))


@functools.lru_cache(maxsize=None)
def _words_by_hom(gens):
    """Every composable word of one to three factors from ``gens``, and both
    identity words, grouped by (source colour, target colour, degree)."""
    words = frontier = [word(z) for z in gens]
    for _ in range(2):
        frontier = [word(*w.factors, z) for w in frontier for z in gens if w.src == z.dst]
        words = words + frontier
    groups = {}
    for w in words + [id_word("B"), id_word("W")]:
        groups.setdefault((w.src, w.dst, w.degree), []).append(w)
    return groups


def _unassigned(w, assigned):
    return any(z.index >= assigned for z in w.factors)


@st.composite
def term_lists(draw, assigned, unassigned=False):
    """(assignment, term list): the cap-1 tower of an ``he_fixture``, with
    only its generators of index < ``assigned`` kept, and terms of one hom
    group over all eight cap-1 generators.  Half the draws take a group of
    degree 0 or 1: the complexes span 3 or 4 degrees, so words of higher
    degree mostly evaluate to zero.  With ``unassigned``, the group is one
    with a word that has an unassigned factor, and one such word is always
    among the terms."""
    full = _cap_one_tower(draw(st.integers(0, 9)))
    assign = {z: f for z, f in full.items() if z.index < assigned}
    groups = _words_by_hom(tuple(full))
    keys = sorted(key for key, ws in groups.items()
                  if not unassigned or any(_unassigned(w, assigned) for w in ws))
    low = [key for key in keys if key[2] <= 1] or keys
    pool = groups[draw(st.one_of(st.sampled_from(low), st.sampled_from(keys)))]
    coefficients = st.sampled_from((1, 2, 3, -1, -2, -3))
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), coefficients), max_size=5))
    if unassigned:
        terms.append((draw(st.sampled_from([w for w in pool if _unassigned(w, assigned)])), draw(coefficients)))
    cancel = draw(st.sampled_from(("none", "first", "all")))
    if terms and cancel != "none":
        terms += [(w, -c) for w, c in (terms if cancel == "all" else terms[:1])]
    return assign, tuple(draw(st.permutations(terms)))


@settings(max_examples=150, deadline=None)
@given(term_lists(assigned=4))
def test_evaluate_words_matches_the_term_by_term_sum(case):
    assign, terms = case
    M, N = assign[gen("f", 0)].source, assign[gen("f", 0)].target
    got = evaluate_words(terms, assign, M, N)
    assert got == evaluate_words_term_by_term(terms, assign, M, N)
    assert (got is None) == (not terms)


def test_evaluate_words_draws_reach_every_case():
    # identity words, a zero sum of nonzero terms, a nonzero sum and the empty list
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(term_lists(assigned=4))
    def record(case):
        assign, terms = case
        M, N = assign[gen("f", 0)].source, assign[gen("f", 0)].target
        got = evaluate_words(terms, assign, M, N)
        if not terms:
            seen.add("empty")
        elif got.is_zero() and any(not evaluate_words(((w, 1),), assign, M, N).is_zero() for w, _ in terms):
            seen.add("cancelled")
        elif not got.is_zero():
            seen.add("nonzero")
        if any(w.is_identity for w, _ in terms):
            seen.add("identity")

    record()
    assert seen == {"empty", "cancelled", "nonzero", "identity"}


@settings(max_examples=100, deadline=None)
@given(term_lists(assigned=2, unassigned=True))
def test_unassigned_term_lists_always_hold_an_unassigned_factor(case):
    assign, terms = case
    assert any(z not in assign for w, _ in terms for z in w.factors)


@settings(max_examples=60, deadline=None)
@given(term_lists(assigned=2, unassigned=True))
def test_evaluate_words_refuses_an_unassigned_generator_as_the_term_by_term_sum(case):
    assign, terms = case
    M, N = assign[gen("f", 0)].source, assign[gen("f", 0)].target
    with pytest.raises(ValueError, match="is not assigned in this action") as want:
        evaluate_words_term_by_term(terms, assign, M, N)
    with pytest.raises(ValueError, match="is not assigned in this action") as got:
        evaluate_words(terms, assign, M, N)
    assert str(got.value) == str(want.value)


def test_evaluate_words_refuses_factors_that_do_not_compose_as_compose_does():
    # f_0 replaced by a self-map of M: g_0 f_0 no longer composes, in a word
    # of length 2 at its leftmost factor, and in words of length 3 at the
    # leftmost factor or inside the rest
    full = _cap_one_tower(0)
    f0, g0 = gen("f", 0), gen("g", 0)
    M, N = full[f0].source, full[f0].target
    bad = {**full, f0: GradedMap.zero(M, M, 0)}
    with pytest.raises(ValueError, match="composition mismatch") as want:
        compose(bad[g0], bad[f0])
    for w in (word(g0, f0), word(g0, f0, g0), word(f0, g0, f0)):
        for evaluate in (evaluate_words, evaluate_words_term_by_term):
            with pytest.raises(ValueError, match="composition mismatch") as got:
                evaluate(((w, 1),), bad, M, N)
            assert str(got.value) == str(want.value)
