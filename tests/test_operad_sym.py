import gc
import hashlib
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertlab import operad_sym
from pertlab.operad_sym import (
    TruncationCaps,
    Word,
    alpha_iso_eval,
    all_passed,
    bounded_boundary_search,
    default_caps,
    diff,
    element,
    enumerate_words,
    gen,
    generator_diff,
    id_word,
    iota,
    kernel_Z,
    multiply,
    parse_caps,
    parse_element,
    render_element,
    render_generator_diff,
    render_retraction_line,
    retraction_r,
    retraction_terms,
    single,
    theta,
    verify_identity_suite,
    word,
    word_mul,
)
from pertlab.operad_sym import (
    _ambient_generators,
    _identity_free_diff,
    _retraction_of_generator,
)

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def small_elements(ambient="riso_tilde", max_terms=3):
    caps = TruncationCaps(max_index=2, max_length=3, max_fweight=2, max_degree=5)
    pool = []
    for src in ("B", "W"):
        for dst in ("B", "W"):
            pool.extend(enumerate_words(ambient, src, dst, caps))
    # one hom-set at a time: elements must be color-homogeneous
    by_homset = {}
    for w in pool:
        by_homset.setdefault((w.src, w.dst, w.degree), []).append(w)
    homsets = [ws for ws in by_homset.values() if ws]
    return st.sampled_from(homsets).flatmap(
        lambda ws: st.lists(
            st.tuples(st.sampled_from(ws), st.integers(-4, 4)),
            min_size=1, max_size=max_terms,
        )
    ).map(lambda pairs: element(ambient, dict(pairs)))


_WORD_GENERATORS = [gen(fam, i) for fam in ("f", "g", "fb", "gb") for i in range(13)] + [
    gen("xb"), gen("yb")]


@st.composite
def composable_words(draw, max_length=6):
    factors = [draw(st.sampled_from(_WORD_GENERATORS))]
    for _ in range(draw(st.integers(0, max_length - 1))):
        # the rightmost factor acts first, so each new left factor must
        # start in the colour where the word so far ends
        after = [z for z in _WORD_GENERATORS if z.src == factors[0].dst]
        factors.insert(0, draw(st.sampled_from(after)))
    return word(*factors)


def random_elements():
    """Sums of random composable words and identities, with multi-digit
    indices and coefficients, beyond any enumeration window."""
    words = composable_words() | st.sampled_from([id_word("B"), id_word("W")])
    return st.lists(st.tuples(words, st.integers(-10**6, 10**6)), max_size=4).map(
        lambda pairs: element("riso_tilde", pairs))


# --- generators and words ---------------------------------------------------


def test_generator_grading():
    assert gen("f").degree == 0 and gen("f", 3).degree == 3
    assert gen("xb").degree == -1 and gen("yb").degree == -1
    assert gen("fb", 2).degree == 2 and gen("gb").degree == 0
    assert gen("f", 4).fweight == 0
    assert gen("xb").fweight == 1 and gen("fb", 3).fweight == 1


def test_generator_colors():
    # even f goes between the colors, odd f stays on the black side
    assert (gen("f").src, gen("f").dst) == ("B", "W")
    assert (gen("f", 1).src, gen("f", 1).dst) == ("B", "B")
    assert (gen("g").src, gen("g").dst) == ("W", "B")
    assert (gen("g", 1).src, gen("g", 1).dst) == ("W", "W")
    assert (gen("fb", 2).src, gen("fb", 2).dst) == ("B", "W")
    assert (gen("xb").src, gen("xb").dst) == ("B", "B")


def test_generator_rejections():
    with pytest.raises(ValueError, match="unknown generator family"):
        gen("q")
    with pytest.raises(ValueError, match="carries no index"):
        gen("xb", 1)


def test_word_composability():
    w = word(gen("f"), gen("f", 1))
    assert (w.src, w.dst, w.degree) == ("B", "W", 1)
    with pytest.raises(ValueError, match="not composable at position 0"):
        word(gen("f"), gen("f"))


def test_word_mul_is_path_algebra():
    a = word(gen("f"))
    b = word(gen("f", 1))
    assert word_mul(a, b).render() == "f0 f1"
    assert word_mul(b, a) is None
    assert word_mul(a, id_word("B")) == a
    assert word_mul(id_word("W"), a) == a


# Reference rules: each invariant as it was once evaluated on every access,
# and the nested sort key words were once ordered and compared by.  The
# precomputed invariants and the flat key must agree with them.
_REF_FAMILY_RANK = {"f": 0, "g": 1, "fb": 2, "gb": 3, "xb": 4, "yb": 5}


def ref_generator_invariants(z):
    degree = -1 if z.family in ("xb", "yb") else z.index
    fweight = 0 if z.family in ("f", "g") else 1
    if z.family in ("xb", "yb"):
        src = dst = "B" if z.family == "xb" else "W"
    else:
        even = z.index % 2 == 0
        src = "B" if z.family in ("f", "fb") else "W"
        if z.family in ("f", "fb"):
            dst = "W" if even else "B"
        else:
            dst = "B" if even else "W"
    return degree, fweight, src, dst


def ref_word_invariants(w):
    degree = sum(ref_generator_invariants(z)[0] for z in w.factors)
    fweight = sum(ref_generator_invariants(z)[1] for z in w.factors)
    key = (
        fweight,
        1 if w.is_identity else 0,
        tuple((z.index, _REF_FAMILY_RANK[z.family]) for z in w.factors),
        w.id_color or "",
    )
    return degree, fweight, key


def _all_fields(w):
    return (w.factors, w.id_color, w.degree, w.fweight, w.src, w.dst, w.sort_key(), hash(w))


_TILDE_WORDS = [
    w
    for src in ("B", "W")
    for dst in ("B", "W")
    for w in enumerate_words("riso_tilde", src, dst, TruncationCaps(3, 4, 2, 8), include_identity=False)
] + [id_word("B"), id_word("W")]


def test_generator_invariants_match_the_reference():
    for fam in ("f", "g", "fb", "gb"):
        for n in range(8):
            z = gen(fam, n)
            assert (z.degree, z.fweight, z.src, z.dst) == ref_generator_invariants(z)
            assert z.rank == 6 * n + _REF_FAMILY_RANK[fam]
    for z in (gen("xb"), gen("yb")):
        assert (z.degree, z.fweight, z.src, z.dst) == ref_generator_invariants(z)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_TILDE_WORDS), st.sampled_from(_TILDE_WORDS))
def test_word_key_orders_and_equates_like_the_reference(a, b):
    # a fresh copy, so equality is decided by the key and not by identity
    b = Word(b.factors, b.id_color)
    ref_a, ref_b = ref_word_invariants(a), ref_word_invariants(b)
    assert (a.degree, a.fweight) == ref_a[:2]
    assert (b.degree, b.fweight) == ref_b[:2]
    assert (a.sort_key() < b.sort_key()) == (ref_a[2] < ref_b[2])
    assert (a == b) == (ref_a[2] == ref_b[2]) == (a.sort_key() == b.sort_key())
    if a == b:
        assert hash(a) == hash(b)
    if a.src == b.dst:
        product = word_mul(a, b)
        if a.is_identity or b.is_identity:
            assert product is (b if a.is_identity else a)
        else:
            assert _all_fields(product) == _all_fields(Word(a.factors + b.factors))
    else:
        assert word_mul(a, b) is None


def _checked_product(a, b, max_fweight=None):
    acc = {}
    for wa, ca in a.terms:
        for wb, cb in b.terms:
            if wa.src != wb.dst:
                continue
            if wa.is_identity or wb.is_identity:
                w = wb if wa.is_identity else wa
            else:
                w = Word(wa.factors + wb.factors)
            if max_fweight is None or w.fweight <= max_fweight:
                acc[w] = acc.get(w, 0) + ca * cb
    return element(a.ambient, acc)


def _all_term_fields(e):
    return [(_all_fields(w), c) for w, c in e.terms]


@settings(max_examples=200, deadline=None)
@given(small_elements(), small_elements(), st.sampled_from([None, 1, 2]))
def test_products_and_sums_equal_the_checked_construction(a, b, max_fweight):
    got = multiply(a, b, max_fweight)
    assert _all_term_fields(got) == _all_term_fields(_checked_product(a, b, max_fweight))
    acc = dict(a.terms)
    for w, c in b.terms:
        acc[w] = acc.get(w, 0) + c
    assert _all_term_fields(a + b) == _all_term_fields(element(a.ambient, acc))


def test_enumerate_words_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        words = enumerate_words("dif_riso", "B", "W", TruncationCaps(3, 4, 2, 6))
        assert words
        del words
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_element_canonicalization():
    e = element("riso", {word(gen("f")): 2, word(gen("f")): 1})
    assert e.terms == ((word(gen("f")), 1),)
    z = element("riso", {word(gen("f")): 0})
    assert z.is_zero()


def test_rfake_index_cap():
    element("rfake", {word(gen("f", 1)): 1})
    with pytest.raises(ValueError, match="exceeds index cap"):
        element("rfake", {word(gen("f", 2)): 1})
    with pytest.raises(ValueError, match="not available in ambient"):
        element("riso", {word(gen("xb")): 1})


def test_multiply_truncates_fweight():
    x = single("dif_riso", word(gen("xb")))
    assert multiply(x, x, max_fweight=2).terms[0][0].render() == "xb xb"
    assert multiply(x, x, max_fweight=1).is_zero()


# --- differential -----------------------------------------------------------


def test_low_differentials_frozen():
    assert render_generator_diff(gen("f", 1)) == "d f1 = g0 f0 - 1B"
    assert render_generator_diff(gen("g", 1)) == "d g1 = f0 g0 - 1W"
    assert render_generator_diff(gen("f", 2)) == "d f2 = f0 f1 - g1 f0"
    assert render_element(diff(single("riso", word(gen("f"))))) == "0"


def test_differential_tables_match_goldens():
    plain = [render_generator_diff(gen(fam, i)) for i in (2, 3, 4) for fam in ("f", "g")]
    assert "\n".join(plain) + "\n" == (GOLDENS / "diff_riso.txt").read_text()
    zs = [gen("xb"), gen("yb")] + [gen(fam, i) for i in (0, 1, 2) for fam in ("fb", "gb")]
    extended = [render_generator_diff(z) for z in zs]
    assert "\n".join(extended) + "\n" == (GOLDENS / "diff_riso_tilde.txt").read_text()
    # the golden files stop at index 4; every row up to index 11 is pinned by digest
    zs = [gen("xb"), gen("yb")] + [gen(fam, i) for i in range(12) for fam in ("f", "g", "fb", "gb")]
    rows = "\n".join(render_generator_diff(z) for z in zs)
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "eeeb55c474a812eb3968237ddfcee61a31e44703997d0cd7b0e46ced85d05631")


@settings(max_examples=150, deadline=None)
@given(small_elements())
def test_diff_squares_to_zero(e):
    assert diff(diff(e)).is_zero()


@settings(max_examples=60, deadline=None)
@given(small_elements("riso"), small_elements("riso"))
def test_diff_is_a_derivation(a, b):
    ab = multiply(a, b)
    if ab is None or ab.is_zero():
        return
    # Koszul rule: d(ab) = (da)b + (-1)^|a| a(db)
    sign = -1 if a.terms[0][0].degree % 2 else 1
    rhs = multiply(diff(a), b) + multiply(a, diff(b)).scale(sign)
    assert diff(ab) == rhs


def test_powers_of_the_dot_generator():
    # odd powers are cycles of the next even power, even powers are cycles
    for k in range(1, 7):
        w = single("dif", word(*([gen("xb")] * k)))
        d = diff(w)
        if k % 2:
            assert d == single("dif", word(*([gen("xb")] * (k + 1)))).scale(-1)
        else:
            assert d.is_zero()


def test_identity_free_diff_frozen():
    e = single("riso", word(gen("f", 1), gen("f", 1)))
    plus = diff(e, _table=_identity_free_diff)
    assert render_element(plus) == "g0 f0 f1 - f1 g0 f0"
    # the identity parts of the two d(f1) factors cancel against each other
    assert plus == diff(e)


# --- contracting homotopy and quotients --------------------------------------


def test_theta_frozen_values():
    assert render_element(theta(parse_element("f0 f1", "riso"))) == "f2"
    assert render_element(theta(parse_element("g0 f2 f1", "riso"))) == "f3 f1"
    assert theta(parse_element("f1 f1", "riso")).is_zero()
    assert theta(parse_element("f0", "riso")).is_zero()


def test_theta_homotopy_identity_spot():
    e = parse_element("f0 f1", "riso")
    assert theta(diff(e)) + diff(theta(e)) == e


def test_alpha_frozen_values():
    a = alpha_iso_eval(parse_element("3 f0 g0 f0 - f0", "riso"))
    assert (a.coefficient, a.basis) == (2, "f")
    assert str(a) == "2 f"
    k = alpha_iso_eval(parse_element("f0 f1", "riso"))
    assert k.coefficient == 0
    assert str(alpha_iso_eval(parse_element("g0 f0", "riso"))) == "1B"


# --- kernel elements and the retraction --------------------------------------


def test_kernel_leading_terms():
    caps1 = TruncationCaps(max_index=6, max_length=9, max_fweight=1, max_degree=12)
    caps2 = TruncationCaps(max_index=6, max_length=9, max_fweight=2, max_degree=12)
    assert render_element(kernel_Z(-1, caps1)) == "xb"
    assert render_element(kernel_Z(-1, caps2)) == "xb + xb f1 xb"
    assert render_element(kernel_Z(1, caps2)) == "xb f3 xb"
    assert render_element(kernel_Z(3, caps2)) == "xb f5 xb"
    with pytest.raises(ValueError, match="odd integer >= -1"):
        kernel_Z(2, caps2)


def test_kernel_and_retraction_goldens():
    caps = TruncationCaps(max_index=4, max_length=5, max_fweight=4, max_degree=8)
    lines = [f"Z{r} = " + render_element(kernel_Z(r, caps)) for r in (-1, 1, 3)]
    assert "\n".join(lines) + "\n" == (GOLDENS / "kernels.txt").read_text()
    zs = [gen("yb")] + [gen(fam, i) for i in range(4) for fam in ("fb", "gb")]
    lines = [render_retraction_line(z) for z in zs]
    assert "\n".join(lines) + "\n" == (GOLDENS / "retraction.txt").read_text()


def test_retraction_splits_the_inclusion():
    caps = default_caps()
    for text in ("xb", "xb f1 xb", "f0 xb g0", "xb xb"):
        e = parse_element(text, "dif_riso")
        assert retraction_r(iota(e), caps) == e


def test_retraction_terms_reject_plain_generators():
    with pytest.raises(ValueError, match="no kernel terms"):
        retraction_terms(gen("f", 2))


# --- rendering and parsing ---------------------------------------------------


def test_render_parse_frozen():
    e = parse_element("- f0 + 3 f0 g0 f0", "riso")
    assert render_element(e) == "- f0 + 3 f0 g0 f0"
    assert parse_element("0", "riso").is_zero()
    with pytest.raises(ValueError, match="unrecognized token"):
        parse_element("f0 qq", "riso")
    # a coefficient is ASCII digits, as in parse_caps; str.isdigit also holds
    # for superscripts and the digits of other scripts
    for text, token in (("\u0663 f1", "\u0663"), ("\u00b2 f1", "\u00b2"),
                        ("f0 + \u0661\u0660 g0 f0", "\u0661\u0660")):
        with pytest.raises(ValueError, match=f"unrecognized token '{token}'"):
            parse_element(text, "riso")


@settings(max_examples=300, deadline=None)
@given(small_elements() | random_elements())
def test_render_parse_round_trip(e):
    text = render_element(e)
    assert parse_element(text, "riso_tilde") == e
    assert render_element(parse_element(text, "riso_tilde")) == text


# --- word enumeration and boundary search ------------------------------------


def test_enumerate_words_frozen():
    caps = TruncationCaps(2, 3, 0, 6)
    ws = enumerate_words("riso", "B", "W", caps, degree=2)
    assert [w.render() for w in ws] == [
        "f0 g0 f2", "f0 f1 f1", "f0 g2 f0", "g1 f0 f1", "g1 g1 f0", "f2", "f2 g0 f0",
    ]
    ws = enumerate_words("riso", "B", "B", caps, degree=0)
    assert [w.render() for w in ws] == ["g0 f0", "1B"]
    ws = enumerate_words("riso", "B", "B", caps, degree=0, include_identity=False)
    assert [w.render() for w in ws] == ["g0 f0"]


@settings(max_examples=40, deadline=None)
@given(small_elements("riso", max_terms=2))
def test_boundary_search_finds_planted_boundaries(e):
    c = diff(e)
    if c.is_zero():
        return
    caps = TruncationCaps(max_index=3, max_length=4, max_fweight=0, max_degree=6)
    found = bounded_boundary_search(c, caps)
    assert found is not None
    assert diff(found) == c


def test_boundary_search_requires_a_cycle():
    e = parse_element("f1", "riso")
    with pytest.raises(ValueError, match="target is not a cycle"):
        bounded_boundary_search(e, TruncationCaps(2, 3, 0, 6))


def test_boundary_search_negative_certificate():
    # a cycle that is a boundary in the full ambient but not under the
    # index cap: its usual preimage needs the next generator up
    c = parse_element("f0 f1 - g1 f0", "rfake")
    assert diff(c).is_zero()
    assert bounded_boundary_search(c, TruncationCaps(1, 4, 0, 8)) is None


# --- caps and the identity suite ---------------------------------------------


def test_caps_parsing():
    assert parse_caps("4,5,3,8") == TruncationCaps(4, 5, 3, 8)
    assert parse_caps(" 2, 3 ,1,6") == TruncationCaps(2, 3, 1, 6)
    with pytest.raises(ValueError, match="four comma-separated integers"):
        parse_caps("4,5,3")
    for text, message in [
        ("a,b,c,d", "caps: index must be a nonnegative integer, got 'a'"),
        ("4,1_0,3,8", "caps: length must be a nonnegative integer, got '1_0'"),
        ("4,5,\u0663,8", "caps: fweight must be a nonnegative integer, got '\u0663'"),
        ("4,5,3,-8", "caps: degree must be a nonnegative integer, got '-8'"),
        ("4,5,3,", "caps: degree must be a nonnegative integer, got ''"),
    ]:
        with pytest.raises(ValueError) as info:
            parse_caps(text)
        assert str(info.value) == message
    with pytest.raises(ValueError, match="must be nonnegative"):
        TruncationCaps(-1, 5, 3, 8)


def test_default_caps_env_override(monkeypatch):
    monkeypatch.delenv("PERTLAB_CAPS", raising=False)
    assert default_caps() == TruncationCaps(4, 5, 3, 8)
    monkeypatch.setenv("PERTLAB_CAPS", "2,3,1,6")
    assert default_caps() == TruncationCaps(2, 3, 1, 6)


def test_identity_suite_passes_at_small_caps():
    report = verify_identity_suite(TruncationCaps(2, 4, 2, 6))
    assert all_passed(report)
    assert [c.name for c in report] == [
        "square_zero_plain",
        "square_zero_extended",
        "contracting_homotopy",
        "retraction_chain_map",
        "retraction_splits_inclusion",
        "compact_square",
        "kernel_differential",
        "kernel_absorption",
        "chain_level_transfer_even",
        "chain_level_transfer_odd",
    ]


def test_identity_suite_catches_a_planted_sign_error():
    def corrupt(z):
        base = generator_diff(z)
        if z.family == "f" and z.index == 2:
            return tuple((w, -c) for w, c in base)
        return base

    report = verify_identity_suite(TruncationCaps(3, 3, 0, 6), _table=corrupt)
    # every family reports, in order, with its first failing case
    assert [(c.name, c.passed, c.detail) for c in report] == [
        ("square_zero_plain", False, "d d f3 != 0"),
        ("square_zero_extended", False, "d d f3 != 0"),
        ("contracting_homotopy", True, "ok"),
        ("retraction_chain_map", False, "r d != d r on f2"),
        ("retraction_splits_inclusion", True, "ok"),
        ("compact_square", False, "d(hh) != d(gf) in degree 2"),
        ("kernel_differential", True, "ok"),
        ("kernel_absorption", True, "ok"),
        ("chain_level_transfer_even", False, "even transfer witness fails at index 2"),
        ("chain_level_transfer_odd", False, "odd transfer witness fails at index 3"),
    ]


# --- unchecked hot paths against the checked construction ---------------------
# Each reference below is the earlier implementation, which built every word
# through the checked ``Word`` constructor and every intermediate product
# through ``multiply``; the hot paths must agree with it field by field,
# term order included.


def ref_retraction_r(e, caps):
    acc = {}
    for w, c in e.terms:
        if w.is_identity:
            terms = ((w, 1),)
        else:
            img = _retraction_of_generator(w.factors[0], caps)
            for z in w.factors[1:]:
                img = multiply(img, _retraction_of_generator(z, caps), caps.max_fweight)
            terms = img.terms
        for wi, ci in terms:
            acc[wi] = acc.get(wi, 0) + c * ci
    return element("dif_riso", acc)


def ref_diff(e, table):
    acc = {}
    for w, c in e.terms:
        if w.is_identity:
            continue
        prefix_degree = 0
        for i, z in enumerate(w.factors):
            sign = -1 if prefix_degree % 2 else 1
            for wz, cz in table(z):
                new_factors = w.factors[:i] + wz.factors + w.factors[i + 1:]
                nw = Word(new_factors) if new_factors else Word((), wz.id_color)
                acc[nw] = acc.get(nw, 0) + sign * c * cz
            prefix_degree += z.degree
    return element(e.ambient, acc)


def ref_theta(e):
    acc = {}
    for w, c in e.terms:
        if len(w.factors) < 2 or w.factors[0].index != 0:
            continue
        z1, z2 = w.factors[0], w.factors[1]
        rep = {("f", "f", 1): "f", ("g", "g", 1): "g", ("f", "g", 0): "g", ("g", "f", 0): "f"}.get(
            (z1.family, z2.family, z2.index % 2))
        if rep is not None:
            nw = Word((gen(rep, z2.index + 1),) + w.factors[2:])
            acc[nw] = acc.get(nw, 0) + c
    return element("riso", acc)


def ref_enumerate_words(ambient, src, dst, caps, degree=None, include_identity=True):
    gens = _ambient_generators(ambient, caps.max_index)
    found = []
    if include_identity and src == dst and (degree is None or degree == 0):
        found.append(Word((), src))
    stack = [(z,) for z in gens if z.src == src and z.fweight <= caps.max_fweight]
    while stack:
        rev = stack.pop()
        w = Word(rev[::-1])
        if w.dst == dst and (degree is None or w.degree == degree) and abs(w.degree) <= caps.max_degree:
            found.append(w)
        if len(rev) < caps.max_length:
            stack.extend(rev + (z,) for z in gens
                         if z.src == w.dst and w.fweight + z.fweight <= caps.max_fweight)
    return sorted(found, key=lambda w: w.sort_key())


_FIELD_CAPS = TruncationCaps(3, 4, 2, 8)


def tilde_elements(ambient="riso_tilde"):
    words = _TILDE_WORDS
    if ambient == "riso":
        words = [w for w in words if all(z.family in ("f", "g") for z in w.factors)]
    return st.lists(st.tuples(st.sampled_from(words), st.integers(-9, 9)), max_size=5).map(
        lambda pairs: element(ambient, pairs))


@settings(max_examples=300, deadline=None)
@given(tilde_elements(), st.integers(0, 3))
def test_retraction_equals_the_chain_of_products(e, max_fweight):
    # every band from 0 up, so the band cut drops products at each of them
    caps = TruncationCaps(3, 4, max_fweight, 8)
    got = retraction_r(e, caps)
    want = ref_retraction_r(e, caps)
    assert got.ambient == want.ambient == "dif_riso"
    assert _all_term_fields(got) == _all_term_fields(want)


def test_retraction_keeps_the_images_of_each_caps_apart():
    # the images are memoized per caps; alternating two caps in one process
    # must give each its own images, and the two bands give different ones
    low, high = TruncationCaps(3, 4, 1, 8), TruncationCaps(3, 4, 3, 8)
    barred = [gen(fam, n) for fam in ("fb", "gb") for n in range(4)] + [gen("yb")]
    for _ in range(2):
        for z in barred + [gen("xb"), gen("f", 2), gen("g", 3)]:
            e = single("riso_tilde", word(z))
            got = [retraction_r(e, caps) for caps in (low, high)]
            for caps, value in zip((low, high), got):
                assert _all_term_fields(value) == _all_term_fields(ref_retraction_r(e, caps))
            assert (got[0] != got[1]) == (z in barred)


@pytest.mark.parametrize("planted, expected", [
    (gen("fb", 2), [("retraction_chain_map", False, "r d != d r on fb2"),
                    ("retraction_splits_inclusion", True, "ok")]),
    (gen("f", 1), [("retraction_chain_map", False, "r d != d r on f1"),
                   # the first B -> B word with an f1 factor, in key order
                   ("retraction_splits_inclusion", False, "r(iota(g0 f0 f1)) != g0 f0 f1")]),
])
def test_identity_suite_reads_the_retraction_images_it_memoizes(monkeypatch, planted, expected):
    # a wrong image for one generator, planted where the memo is filled
    # from: the negated image of fb2, or 2 f1 for f1
    real = operad_sym._retraction_of_generator

    def planted_image(z, caps):
        image = real(z, caps)
        if z != planted:
            return image
        return -image if z.family == "fb" else image.scale(2)

    caps = TruncationCaps(2, 3, 1, 5)  # used by no other test
    monkeypatch.setattr(operad_sym, "_retraction_of_generator", planted_image)
    operad_sym._retraction_table.cache_clear()
    try:
        report = verify_identity_suite(caps)
    finally:
        operad_sym._retraction_table.cache_clear()
    # only the two retraction checks read r, and each names its first case
    failing = {name: (name, passed, detail) for name, passed, detail in expected}
    assert [(c.name, c.passed, c.detail) for c in report] == [
        failing.get(c.name, (c.name, True, "ok")) for c in report]


def test_retraction_table_refuses_an_image_with_the_wrong_colours(monkeypatch):
    # fb2 runs from B to W; a planted image f1 runs from B to B, so the
    # product g0 f1 in the image of g0 fb2 would not compose
    real = operad_sym._retraction_of_generator

    def planted_image(z, caps):
        return single("dif_riso", word(gen("f", 1))) if z == gen("fb", 2) else real(z, caps)

    monkeypatch.setattr(operad_sym, "_retraction_of_generator", planted_image)
    operad_sym._retraction_table.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="^retraction image of fb2 has a term f1 from B to B, not B to W$"):
            retraction_r(single("riso_tilde", word(gen("g", 0), gen("fb", 2))), TruncationCaps(2, 3, 1, 5))
    finally:
        operad_sym._retraction_table.cache_clear()


@pytest.mark.slow
def test_identity_suite_passes_at_high_caps():
    # the strongest check of the retraction_terms rule at high indices;
    # about 20 s, so it runs only under -m slow
    report = verify_identity_suite(TruncationCaps(6, 7, 4, 12))
    assert [c for c in report if not c.passed] == []


@settings(max_examples=200, deadline=None)
@given(tilde_elements() | tilde_elements("riso"))
def test_diff_and_theta_equal_the_checked_construction(e):
    tables = [generator_diff, _identity_free_diff]
    for got, want in [(diff(e), ref_diff(e, generator_diff))] + [
            (diff(e, _table=t), ref_diff(e, t)) for t in tables]:
        assert got.ambient == want.ambient
        assert _all_term_fields(got) == _all_term_fields(want)
    if e.ambient == "riso":
        assert _all_term_fields(theta(e)) == _all_term_fields(ref_theta(e))


def test_iota_reuses_the_canonical_terms():
    for w in _TILDE_WORDS:
        if any(z.family in ("fb", "gb", "yb") for z in w.factors):
            continue
        e = element("dif_riso", {w: 3})
        assert iota(e) == element("riso_tilde", {w: 3})


def test_enumerate_words_equals_the_checked_construction():
    for ambient in ("riso", "rfake", "dif", "dif_riso", "riso_tilde"):
        for src in ("B", "W"):
            for dst in ("B", "W"):
                for degree in (None, 0, 1, -2):
                    got = enumerate_words(ambient, src, dst, _FIELD_CAPS, degree=degree)
                    want = ref_enumerate_words(ambient, src, dst, _FIELD_CAPS, degree=degree)
                    assert [_all_fields(w) for w in got] == [_all_fields(w) for w in want]


def test_diff_refuses_a_table_row_with_the_wrong_colours():
    def wrong(z):
        # f1 runs B -> B, but f2 runs B -> W
        return ((word(gen("f", 1)), 1),) if z == gen("f", 2) else generator_diff(z)

    with pytest.raises(ValueError, match="not composable"):
        diff(parse_element("g0 f2", "riso"), _table=wrong)
    with pytest.raises(ValueError, match="not composable"):
        verify_identity_suite(TruncationCaps(2, 3, 0, 6), _table=wrong)

    def barred(z):
        # right colours, but fb2 is not in the plain ambient
        return ((word(gen("fb", 2)), 1),) if z == gen("f", 2) else generator_diff(z)

    with pytest.raises(ValueError, match="not available in ambient riso"):
        diff(parse_element("g0 f2", "riso"), _table=barred)


def test_identity_suite_builds_no_checked_words_on_its_hot_paths(monkeypatch):
    caps = TruncationCaps(3, 4, 2, 8)
    # the per-generator memos (retraction images, kernel terms, tables) are
    # built once with checked words; warm them so only the hot paths count
    verify_identity_suite(caps)
    watched = ("diff", "retraction_r", "enumerate_words", "theta")
    active = []
    calls = dict.fromkeys(watched, 0)
    built = dict.fromkeys(watched, 0)
    inside_retraction = {"multiply": 0, "_canonical": 0}
    identity_rows = 0
    real_post_init = Word.__post_init__

    def counted(self):
        if active:
            built[active[-1]] += 1
        real_post_init(self)

    def watch(name):
        real = getattr(operad_sym, name)

        def wrapped(*args, **kwargs):
            nonlocal identity_rows
            if name in calls:
                calls[name] += 1
            elif active and active[-1] == "retraction_r":
                inside_retraction[name] += 1
            if name == "diff" and kwargs.get("_table") is not _identity_free_diff:
                # d(f1) and d(g1) carry the only identity rows; splicing one
                # into a longer word is the only checked construction left
                identity_rows += sum(len(w.factors) > 1 and z in (gen("f", 1), gen("g", 1))
                                     for w, _ in args[0].terms for z in w.factors)
            active.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                active.pop()
        monkeypatch.setattr(operad_sym, name, wrapped)

    for name in watched + tuple(inside_retraction):
        watch(name)
    monkeypatch.setattr(Word, "__post_init__", counted)
    assert all_passed(verify_identity_suite(caps))
    assert all(calls.values()) and identity_rows > 0
    # the suite's cases: two retractions per generator in (c) and one per
    # enumerated word in (c'), two theta per word in (b), four enumerations
    # each in (b) and (c')
    assert {name: calls[name] for name in ("retraction_r", "theta", "enumerate_words")} == {
        "retraction_r": 1042, "theta": 320, "enumerate_words": 8}
    assert built == {"diff": identity_rows, "retraction_r": 0, "enumerate_words": 0, "theta": 0}
    # one canonicalization per retraction and no products along the way
    assert inside_retraction == {"multiply": 0, "_canonical": calls["retraction_r"]}
