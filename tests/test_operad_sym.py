import copy
import dataclasses
import gc
import hashlib
import inspect
import itertools
import pathlib
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pertlab import operad_sym
from pertlab.operad_sym import (
    XBAR,
    Generator,
    TruncationCaps,
    Word,
    all_passed,
    bounded_boundary_search,
    degree_of,
    diff,
    element,
    enumerate_words,
    gen,
    generator_diff,
    hom_colors,
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


def test_generators_are_interned():
    # one object per (family, index), however it is made, so equality and
    # hashing are object identity's, and an assignment keyed by one form is
    # read with every other
    f0 = gen("f")
    forms = [gen("f", 0), gen("f", index=0), Generator("f", 0), Generator("f"), Generator(family="f", index=0),
             pickle.loads(pickle.dumps(f0)), copy.copy(f0), copy.deepcopy(f0), dataclasses.replace(f0)]
    assert all(z is f0 for z in forms)
    assert dataclasses.replace(f0, index=3) is gen("f", 3)
    assign = {Generator("f", 0): "F"}
    assert [assign[z] for z in [f0, *forms]] == ["F"] * (len(forms) + 1)
    assert generator_diff(Generator("f", 2)) is generator_diff(gen("f", 2))
    assert Generator.__eq__ is object.__eq__ and Generator.__hash__ is object.__hash__
    assert gen("f") != gen("g") and gen("f") != gen("f", 1)
    assert repr(f0) == "Generator(family='f', index=0)"
    # a refused generator is not kept
    with pytest.raises(ValueError, match="carries no index"):
        Generator("xb", 1)
    assert ("xb", 1) not in operad_sym._INTERNED


@pytest.mark.parametrize("call, kind, message", [
    (lambda: gen("f", -1), ValueError, "generator index must be nonnegative"),
    (lambda: Word(()), ValueError, "empty word needs an identity color B or W"),
    (lambda: Word((gen("f"),), "B"), ValueError, "a word is either factors or an identity, not both"),
    (lambda: element("nosuch", []), ValueError, "unknown ambient 'nosuch'"),
    (lambda: element("riso", [(word(gen("f")), 1.0)]), TypeError, "coefficient 1.0 is not an int"),
    (lambda: hom_colors(element("riso", [])), ValueError, "zero element has no hom-set"),
    (lambda: hom_colors(parse_element("f0 + g0", "riso")), ValueError,
     "element is not color-homogeneous: [('B', 'W'), ('W', 'B')]"),
    (lambda: degree_of(parse_element("f0 + f1", "riso")), ValueError, "element is not degree-homogeneous"),
    (lambda: theta(parse_element("f0 f1", "dif_riso")), ValueError,
     "the contracting homotopy is defined on the plain ambient only"),
    (lambda: iota(parse_element("f0", "riso")), ValueError, "inclusion is defined on the dif_riso ambient"),
    (lambda: retraction_r(parse_element("f0", "riso"), TruncationCaps()), ValueError,
     "the retraction is defined on the riso_tilde ambient"),
])
def test_malformed_operad_inputs_are_refused_with_their_messages(call, kind, message):
    with pytest.raises(kind) as caught:
        call()
    assert str(caught.value) == message


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
    return (w.factors, w.id_color, w.degree, w.fweight, w.src, w.dst, w._key, hash(w))


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
    assert (a._key < b._key) == (ref_a[2] < ref_b[2])
    assert (a == b) == (ref_a[2] == ref_b[2]) == (a._key == b._key)
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


def identity_free_diff(z):
    # the lengthening part d+ of the table, read through the module global
    # so that a planted table reaches it
    return tuple((w, c) for w, c in operad_sym.generator_diff(z) if not w.is_identity)


def test_identity_free_diff_frozen():
    e = single("riso", word(gen("f", 1), gen("f", 1)))
    plus = ref_diff(e, identity_free_diff)
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


def ref_kernel_Z(r, max_fweight):
    # the chain enumeration: every xb f_2m1+1 xb ... xb with t < max_fweight
    # interior factors (fweight t + 1) whose m's add up to (r + 1) // 2
    s = (r + 1) // 2
    words = []
    for t in range(max_fweight):
        for ms in itertools.product(range(s + 1), repeat=t):
            if sum(ms) == s:
                words.append(Word((XBAR,) + tuple(z for m in ms for z in (gen("f", 2 * m + 1), XBAR))))
    return element("dif_riso", {w: 1 for w in words})


def test_kernel_series_equals_the_chain_enumeration():
    # the memo per band fills in whatever order the degrees are asked for
    operad_sym._BAND_KERNELS.clear()
    for max_fweight in range(6):
        caps = TruncationCaps(4, 5, max_fweight, 8)
        for r in (3, -1, 9, 1, 7, 5, 9, -1):
            want = ref_kernel_Z(r, max_fweight)
            assert _all_term_fields(kernel_Z(r, caps)) == _all_term_fields(want), (r, max_fweight)
            assert want.is_zero() == (max_fweight == 0 or (r > -1 and max_fweight == 1))


def test_kernel_and_retraction_goldens():
    caps = TruncationCaps(max_index=4, max_length=5, max_fweight=4, max_degree=8)
    lines = [f"Z{r} = " + render_element(kernel_Z(r, caps)) for r in (-1, 1, 3)]
    assert "\n".join(lines) + "\n" == (GOLDENS / "kernels.txt").read_text()
    zs = [gen("yb")] + [gen(fam, i) for i in range(4) for fam in ("fb", "gb")]
    lines = [render_retraction_line(z) for z in zs]
    assert "\n".join(lines) + "\n" == (GOLDENS / "retraction.txt").read_text()


def test_retraction_splits_the_inclusion():
    caps = TruncationCaps()
    for text in ("xb", "xb f1 xb", "f0 xb g0", "xb xb"):
        e = parse_element(text, "dif_riso")
        assert retraction_r(iota(e), caps) == e


def test_retraction_terms_reject_plain_generators():
    with pytest.raises(ValueError, match="no kernel terms"):
        retraction_terms(gen("f", 2))


# --- rendering and parsing ---------------------------------------------------


def test_parse_element_refuses_malformed_terms():
    for text, message in (("f0 1B", "identity token inside a factor word"),
                          ("1W f1", "identity token inside a factor word"),
                          # an identity token stands alone: none is dropped beside another
                          ("1B 1W", "identity token inside a factor word"),
                          ("1B 1B 1B", "identity token inside a factor word"),
                          ("f0 + 2 1W 1W", "identity token inside a factor word"),
                          ("f0 +", "empty term"), ("f0 g0 -", "empty term"),
                          ("f0 + 2", "empty term")):
        with pytest.raises(ValueError) as caught:
            parse_element(text, "riso")
        assert str(caught.value) == message


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


def test_identity_suite_catches_a_planted_sign_error(monkeypatch):
    def corrupt(z):
        base = generator_diff(z)
        if z.family == "f" and z.index == 2:
            return tuple((w, -c) for w, c in base)
        return base

    monkeypatch.setattr(operad_sym, "generator_diff", corrupt)
    report = verify_identity_suite(TruncationCaps(3, 3, 0, 6))
    # every family reports, in order, with its first failing case; every
    # check reads the one table, so both sides of (c) see the same fault
    # and agree, and (b) sees it in d+
    assert [(c.name, c.passed, c.detail) for c in report] == [
        ("square_zero_plain", False, "d d f3 != 0"),
        ("square_zero_extended", False, "d d f3 != 0"),
        ("contracting_homotopy", False, "homotopy identity fails on g0 f2"),
        ("retraction_chain_map", True, "ok"),
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
    return sorted(found, key=lambda w: w._key)


_FIELD_CAPS = TruncationCaps(3, 4, 2, 8)


def tilde_elements(ambient="riso_tilde"):
    words = _TILDE_WORDS
    if ambient == "riso":
        words = [w for w in words if all(z.family in ("f", "g") for z in w.factors)]
    return st.lists(st.tuples(st.sampled_from(words), st.integers(-9, 9)), max_size=5).map(
        lambda pairs: element(ambient, pairs))


@settings(max_examples=300, deadline=None)
@given(tilde_elements(), st.integers(0, 3))
# two products of one word land on one output word, merged in _fold_left
@example(parse_element("fb0 xb fb1", "riso_tilde"), 4)
# two input words land on one output word, merged in retraction_r
@example(parse_element("fb0 + f0 xb f1", "riso_tilde"), 1)
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
    (gen("xb"), [("retraction_chain_map", False, "r d != d r on fb0"),
                 ("retraction_splits_inclusion", False, "r(iota(g0 f0 xb)) != g0 f0 xb")]),
    (gen("g", 0), [("retraction_chain_map", False, "r d != d r on f1"),
                   ("retraction_splits_inclusion", False, "r(iota(g0 f0)) != g0 f0")]),
])
def test_identity_suite_reads_the_retraction_images_it_memoizes(monkeypatch, planted, expected):
    # a wrong image for one generator, planted where the memo is filled
    # from: the negated image of fb2, or twice the generator otherwise.
    # (c') names the first failing word in key order of the first failing
    # (src, dst) pair, in the order BB, BW, WB, WW.
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


def ref_contracting_homotopy(caps):
    # the per-word loop of check (b): enumerate, theta and d+ on one-term
    # elements, compare; every failing word is listed and the first reported
    theta_caps = TruncationCaps(caps.max_index, max(1, caps.max_length - 1), caps.max_fweight, caps.max_degree)
    fails = []
    for src in ("B", "W"):
        for dst in ("B", "W"):
            for w in ref_enumerate_words("riso", src, dst, theta_caps, include_identity=False):
                if w.degree <= 0:
                    continue
                e = single("riso", w)
                if theta(ref_diff(e, identity_free_diff)) + ref_diff(theta(e), identity_free_diff) != e:
                    fails.append(f"homotopy identity fails on {w.render()}")
    return ("contracting_homotopy", not fails, fails[0] if fails else "ok")


def _planted_row(z, how):
    # one wrong row of the table: its first term, which is not an identity,
    # dropped, negated or doubled
    row = generator_diff(z)
    (w, c), rest = row[0], row[1:]
    return {"drop": rest, "flip": ((w, -c),) + rest, "double": ((w, 2 * c),) + rest}[how]


def _theta_rule(rule):
    # a planted rewrite keeps the pair's colours (both pairs run from B to
    # W), so the reference's checked words take it
    real = operad_sym._theta_rep

    def planted(z1, z2):
        pair = (z1.token, z2.token)
        if rule == "f0 f1 -> f4" and pair == ("f0", "f1"):
            return gen("f", 4)
        if rule == "g0 f0 -> 0" and pair == ("g0", "f0"):
            return None
        if rule == "f0 f3 -> f2" and pair == ("f0", "f3"):
            return gen("f", 2)
        return real(z1, z2)
    return planted


_HOMOTOPY_FAULTS = [None] + [("row", z, how) for z in (gen("f", 2), gen("g", 3), gen("f", 1))
                             for how in ("drop", "flip", "double")] + [
    ("theta", rule) for rule in ("f0 f1 -> f4", "g0 f0 -> 0", "f0 f3 -> f2")]


def test_contracting_homotopy_matches_the_per_word_loop(monkeypatch):
    # check (b) walks each source colour once and sums by rank tuple; its
    # report must be the per-word loop's, byte for byte, on the true tables
    # and on planted faults in the table and in theta's rule; the true
    # tables pass, and every fault fails at the larger caps (f3 is past the
    # smaller ones)
    for fault in _HOMOTOPY_FAULTS:
        with monkeypatch.context() as m:
            if fault and fault[0] == "row":
                _, planted, how = fault
                m.setattr(operad_sym, "generator_diff",
                          lambda z, planted=planted, how=how:
                          _planted_row(z, how) if z == planted else generator_diff(z))
            elif fault:
                m.setattr(operad_sym, "_theta_rep", _theta_rule(fault[1]))
            for caps in (TruncationCaps(2, 3, 1, 5), TruncationCaps(3, 4, 2, 8)):
                got = [(c.name, c.passed, c.detail) for c in verify_identity_suite(caps)
                       if c.name == "contracting_homotopy"]
                assert got == [ref_contracting_homotopy(caps)], (fault, caps)
            assert got[0][1] == (fault is None), fault


def ref_homotopy_defect(factors, ranks, row):
    # the earlier check: every term of d+ w built in full through _splice,
    # then rewritten by theta
    acc = {ranks: -1}
    rep = operad_sym._theta_rep(factors[0], factors[1]) if len(factors) > 1 else None
    if rep is not None:
        for k, _, c in operad_sym._splice((rep,) + factors[2:], (rep.rank,) + ranks[2:], row):
            acc[k] = acc.get(k, 0) + c
    for k, nf, c in operad_sym._splice(factors, ranks, row):
        p = operad_sym._theta_rep(nf[0], nf[1]) if len(nf) > 1 else None
        if p is not None:
            k = (p.rank,) + k[2:]
            acc[k] = acc.get(k, 0) + c
    return any(acc.values())


def test_homotopy_defect_flags_the_words_the_full_splice_flags(monkeypatch):
    # on the true table no word is flagged; with one sign flipped in the
    # lengthening table, the leading-pair check flags exactly the words the
    # full splice flags, at the benchmark's caps
    caps = TruncationCaps(5, 5, 3, 10)
    theta_caps = TruncationCaps(caps.max_index, caps.max_length - 1, caps.max_fweight, caps.max_degree)
    for planted in (None, gen("f", 2), gen("g", 3), gen("f", 1)):
        with monkeypatch.context() as m:
            if planted:
                m.setattr(operad_sym, "generator_diff",
                          lambda z, planted=planted: _planted_row(z, "flip") if z == planted else generator_diff(z))
            row = operad_sym._rows(lengthening=True)
            flagged, words = [], 0
            for src in ("B", "W"):
                for factors, _, _, ranks in operad_sym._walk("riso", src, theta_caps, operad_sym._prepend_rank,
                                                             (1, caps.max_degree)):
                    words += 1
                    got = operad_sym._homotopy_defect(factors, ranks, row)
                    assert got == ref_homotopy_defect(factors, ranks, row), (planted, factors)
                    if got:
                        flagged.append(factors)
        assert words > 1000
        assert bool(flagged) == (planted is not None), planted


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
    # about 2 s, so it runs only under -m slow
    report = verify_identity_suite(TruncationCaps(6, 7, 4, 12))
    assert [c for c in report if not c.passed] == []


@settings(max_examples=200, deadline=None)
@given(tilde_elements() | tilde_elements("riso"))
def test_diff_and_theta_equal_the_checked_construction(e):
    got, want = diff(e), ref_diff(e, generator_diff)
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
    # the reference grows every word within the caps; the walk does not grow
    # a word whose longer words cannot reach the degree window, which at
    # the second caps cuts words of high index as well as long ones, and
    # degrees 5 and -5 lie outside its max_degree, so they get no words
    for caps in (_FIELD_CAPS, TruncationCaps(4, 5, 2, 3)):
        for ambient in operad_sym._AMBIENTS:
            for src in ("B", "W"):
                for dst in ("B", "W"):
                    every = ref_enumerate_words(ambient, src, dst, caps)
                    for degree in (None, 0, 1, 3, -2, 5, -5):
                        got = enumerate_words(ambient, src, dst, caps, degree=degree)
                        want = [w for w in every if degree in (None, w.degree)]
                        assert [_all_fields(w) for w in got] == [_all_fields(w) for w in want]


def test_walk_does_not_grow_words_that_cannot_reach_the_degree_window():
    # each window's nodes are the full window's nodes of its degrees, once
    # clipped to max_degree; a node's step runs only when it is pushed, so
    # the steps count the words visited
    caps = TruncationCaps(4, 5, 2, 8)
    degrees, steps = {}, {}
    for window in (None, (-8, 8), (3, 3), (-3, -1), (7, 12), (100, 100)):
        steps[window] = 0

        def step(z, value, window=window):
            steps[window] += 1
            return (z.rank,) + (value or ())
        nodes = list(operad_sym._walk("dif_riso", "B", caps, step, window))
        assert all(value == tuple(z.rank for z in factors) for factors, _, _, value in nodes)
        degrees[window] = sorted((deg, value) for _, _, deg, value in nodes)
    lo_hi = {None: (-8, 8), (7, 12): (7, 8)}
    for window, got in degrees.items():
        lo, hi = lo_hi.get(window, window)
        assert got == [node for node in degrees[None] if lo <= node[0] <= hi]
    assert degrees[None] == degrees[(-8, 8)] and degrees[(3, 3)]
    # no word reaches degree 100, past max_degree: none is visited
    assert degrees[(100, 100)] == [] and steps[(100, 100)] == 0
    # the narrow window visits fewer words than the full one
    assert steps[(3, 3)] < len(degrees[None]) <= steps[None]


def test_identity_suite_builds_no_checked_words_on_its_hot_paths(monkeypatch):
    caps = TruncationCaps(3, 4, 2, 8)
    # the per-generator memos (retraction images, kernel series, tables) are
    # built once with checked words; warm them so only the hot paths count
    verify_identity_suite(caps)
    watched = ("diff", "retraction_r", "enumerate_words", "theta", "_walk", "_fold_left", "_homotopy_defect")
    active = []
    calls = dict.fromkeys(watched, 0)
    built = dict.fromkeys(watched, 0)
    inside_retraction = {"multiply": 0, "_canonical": 0}
    real_post_init = Word.__post_init__

    def counted(self):
        if active:
            built[active[-1]] += 1
        real_post_init(self)

    def watch(name):
        real = getattr(operad_sym, name)

        def wrapped(*args, **kwargs):
            if name in calls:
                calls[name] += 1
            elif active and active[-1] == "retraction_r":
                inside_retraction[name] += 1
            active.append(name)
            try:
                result = real(*args, **kwargs)
            finally:
                active.pop()
            return stepped(name, result) if inspect.isgenerator(result) else result
        monkeypatch.setattr(operad_sym, name, wrapped)

    def stepped(name, nodes):
        # a generator's own work runs at each next(), not at the call
        while True:
            active.append(name)
            try:
                node = next(nodes, None)
            finally:
                active.pop()
            if node is None:
                return
            yield node

    for name in watched + tuple(inside_retraction):
        watch(name)
    monkeypatch.setattr(Word, "__post_init__", counted)
    assert all_passed(verify_identity_suite(caps))
    # the suite's cases: two retractions per generator in (c) and one per
    # identity in (c'), one walk per source colour in each of (b) and (c'),
    # and one homotopy sum per positive-degree word in (b); no element of
    # theta and no enumeration
    assert {name: calls[name] for name in watched if name not in ("diff", "_fold_left")} == {
        "retraction_r": 38, "theta": 0, "enumerate_words": 0, "_walk": 4, "_homotopy_defect": 160}
    assert calls["diff"] and calls["_fold_left"]
    assert built == dict.fromkeys(watched, 0)
    # one canonicalization per retraction and no products along the way
    assert inside_retraction == {"multiply": 0, "_canonical": calls["retraction_r"]}
