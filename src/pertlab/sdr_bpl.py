"""Strong deformation retracts and the basic perturbation lemma.

A strong deformation retract (SDR) is a pair of complexes M, N with chain
maps F: M -> N, G: N -> M and a degree +1 homotopy H on M satisfying

    F G = 1_N,        D(H) = G F - 1_M   (written d H + H d = G F - 1),

plus, when we say the side conditions hold,

    H H = 0,   H G = 0,   F H = 0.

Given a perturbation delta of d_M (degree -1, strictly filtration-raising,
with (d_M + delta)^2 = 0), the perturbation lemma transfers delta across
the retract, and across any tower of ``she_obstruction``, by one rule on
concrete maps (``_transfer``): each component moves by the retraction
image of its barred copy, and d_N by that of yb, both summed by
``operad_sym._retraction_value`` on the kernels of ``_kernel_series``.
The kernels Z_r are sums of chains delta f_odd delta ... delta; Z_-1 =
delta + delta H delta + ... is the geometric series K of the basic
perturbation lemma, which is this rule at cap 0.  Each series is finite
because each summand raises filtration one more step.
The side conditions are required on input; whether they survive transfer
is reported, never assumed.

A retract is the cap-0 tower of ``she_obstruction`` with L = 0 (g_1's
identity D(0) = F G - 1 says F G = 1), so the tower check lives here:
``_check_components`` takes every identity from ``operad_sym``'s generator
table and every component's ends from its colours, for ``validate_sdr``,
``validate_he``, ``validate_she`` and ``ipl_pipeline.OperadAction``.  It
checks an identity D(f) = (word sum) as one defect (``_identity_holds``):
minus the word sum and D(f) (``chaincore._add_d``) are accumulated into
one entry list per degree, and every list must be zero; a right-hand side
supplied already evaluated is the same defect (``chaincore._d_equals``).
Each report that becomes an exception goes through ``_refuse``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chaincore import (
    ChainComplex,
    GradedMap,
    _add_d,
    _check_composable,
    _compose_into,
    _d_equals,
    _from_sums,
    complex_with_differential,
    compose,
    filtration_shift,
    rebase,
    validate_complex,
)
from .operad_sym import (XBAR, YBAR, Generator, Word, _kernel_series, _retraction_value, gen, generator_diff,
                         retraction_terms)


class SideConditionError(ValueError):
    """An operation that requires the side conditions got data without them."""


class InternalConsistencyError(RuntimeError):
    """A conclusion guaranteed by a theorem failed on actual data."""


@dataclass(frozen=True, slots=True)
class SdrData:
    M: ChainComplex
    N: ChainComplex
    F: GradedMap
    G: GradedMap
    H: GradedMap


@dataclass(frozen=True, slots=True)
class SideConditions:
    hh_zero: bool
    hg_zero: bool
    fh_zero: bool

    @property
    def all(self) -> bool:
        return self.hh_zero and self.hg_zero and self.fh_zero


@dataclass(frozen=True, slots=True)
class Perturbation:
    """A strictly filtration-raising degree -1 square-zero correction."""

    base: ChainComplex
    delta: GradedMap


def _refuse(problems: list[str], prefix: str = "", error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming every problem after ``prefix``, if there is one."""
    if problems:
        raise error(prefix + "; ".join(problems))


def _complex_problems(M: ChainComplex, N: ChainComplex) -> list[str]:
    """``validate_complex`` of both ends, each line prefixed by its name."""
    return [f"{name}: {p}" for name, c in (("M", M), ("N", N)) for p in validate_complex(c)]


def tower_generators(index_cap: int) -> tuple[Generator, ...]:
    """The generators a tower of this cap assigns, index by index:
    f_0, g_0, f_1, g_1, ..., f_2c+1, g_2c+1."""
    return tuple(gen(fam, n) for n in range(2 * index_cap + 2) for fam in ("f", "g"))


def _hom_space(z: Generator, M: ChainComplex, N: ChainComplex) -> tuple[ChainComplex, ChainComplex]:
    """Source and target of z's component: colour B is M, colour W is N."""
    return (M if z.src == "B" else N), (M if z.dst == "B" else N)


def evaluate_words(
    terms: tuple[tuple[Word, int], ...], assign: dict[Generator, GradedMap],
    M: ChainComplex, N: ChainComplex,
) -> GradedMap | None:
    """Z-linear evaluation of (word, coefficient) pairs: a word becomes the
    composite of its factor images (rightmost applied first), an identity
    word the identity map of its color's complex (B on M, W on N).  Every
    term is added into one entry list per degree by ``_add_words``.

    None when there are no terms; unassigned generators are an error.
    """
    sums: dict[int, list[int]] = {}
    hom = _add_words(sums, terms, assign, M, N, 1)
    return None if hom is None else _from_sums(*hom, sums)


def _add_words(sums: dict[int, list[int]], terms: tuple[tuple[Word, int], ...],
               assign: dict[Generator, GradedMap], M: ChainComplex, N: ChainComplex, sign: int):
    """Add ``sign`` times the word sum of ``terms`` into ``sums``, one
    row-major entry list per degree, and return the hom group (source,
    target, degree) that the words land in, None when there are none.

    Only the factors right of the leftmost are composed into a map; the
    leftmost factor's blocks times that composite are accumulated into the
    sums by ``_compose_into``, with the coefficient, so a word of length 2
    builds no map of its own.  The checks are compose's, in its order:
    factors are looked up right to left, and a leftmost factor that does
    not start where the rest lands is a composition mismatch.
    """
    hom = None
    for w, c in terms:
        c *= sign
        if w.is_identity:
            cx = M if w.id_color == "B" else N
            here = (cx, cx, 0)
        else:
            right = None
            for z in reversed(w.factors[1:]):
                right = _image(z, assign) if right is None else compose(_image(z, assign), right)
            left = _image(w.factors[0], assign)
            if right is None:
                here = (left.source, left.target, left.degree)
            else:
                _check_composable(left, right)
                here = (right.source, left.target, left.degree + right.degree)
        hom = hom or here
        if here != hom:
            raise ValueError("maps live in different hom groups")
        if w.is_identity:  # c on the diagonal of every degree
            for n, r in zip(cx.degrees(), cx.ranks):
                acc = sums.setdefault(n, [0] * (r * r))
                acc[::r + 1] = [a + c for a in acc[::r + 1]]
        elif right is None:
            for n, m in left.blocks:
                acc = sums.get(n)
                sums[n] = [c * v for v in m.entries] if acc is None else [a + c * v for a, v in zip(acc, m.entries)]
        else:
            _compose_into(sums, left, right, c)
    return hom


def _image(z: Generator, assign: dict[Generator, GradedMap]) -> GradedMap:
    try:
        return assign[z]
    except KeyError:
        raise ValueError(f"generator {z.token} is not assigned in this action") from None


def _tower_rhs(z: Generator, assign: dict[Generator, GradedMap],
               M: ChainComplex, N: ChainComplex) -> GradedMap:
    """Required D-value of the component assigned to z: the generator's
    differential table from operad_sym, evaluated under the assignment."""
    value = evaluate_words(generator_diff(z), assign, M, N)
    if value is None:
        return GradedMap.zero(*_hom_space(z, M, N), z.degree - 1)
    return value


def _check_components(problems: list[str], assign: dict[Generator, GradedMap],
                      M: ChainComplex, N: ChainComplex, name, failure, check=None, rhs=None) -> None:
    """Report each component of the generators ``check`` (by default every
    assigned one) that runs between the wrong complexes, has the wrong
    degree or lowers the filtration (under ``name(z)``); if none does,
    report each that fails its tower identity (as ``failure(z)``).  The
    right-hand sides read the whole assignment; ``rhs`` may supply some of
    them already evaluated on it, and those are not evaluated again but
    checked as the same one defect (``chaincore._d_equals``)."""
    check = tuple(assign) if check is None else check
    ok = True
    for z in check:
        f = assign[z]
        src, tgt = _hom_space(z, M, N)
        if (f.source is not src and f.source != src) or (f.target is not tgt and f.target != tgt):
            problems.append(f"{name(z)} does not run between the stated complexes")
            ok = False
        elif f.degree != z.degree:
            problems.append(f"{name(z)} has degree {f.degree}, expected {z.degree}")
            ok = False
        elif filtration_shift(f) < 0:
            problems.append(f"{name(z)} does not preserve the filtration (shift {filtration_shift(f)})")
    if not ok or problems:
        return
    for z in check:
        if not (_d_equals(assign[z], rhs[z]) if rhs and z in rhs else _identity_holds(z, assign, M, N)):
            problems.append(failure(z))


def _identity_holds(z: Generator, assign: dict[Generator, GradedMap], M: ChainComplex, N: ChainComplex) -> bool:
    """Whether z's component f meets its tower identity D(f) = (the word sum
    of z's differential), checked as one defect: minus the word sum
    (``_add_words``) and D(f) (``chaincore._add_d``) are accumulated into
    one entry list per degree, and every list must be zero, no map built.

    f's ends and degree are checked before this is called, so D(f) lies in
    (src, tgt, z.degree - 1), and so do the words once the components they
    read are checked too.  Words that land elsewhere fail the identity, as
    an unequal map would.  A zero f has D(f) = 0 and adds nothing."""
    f, sums = assign[z], {}
    hom = _add_words(sums, generator_diff(z), assign, M, N, -1)
    return hom in (None, (f.source, f.target, f.degree - 1)) and not any(map(any, _add_d(sums, f).values()))


# A retract and an equivalence are towers of cap 0: F, G, H, L are f_0,
# g_0, f_1, g_1, and a retract is the one with L = 0, whose identity
# D(0) = F G - 1 says F G = 1.
_HE_NAMES = dict(zip(tower_generators(0), "FGHL"))
_SDR_FAILURES = dict(zip(tower_generators(0), (
    "F is not a chain map", "G is not a chain map",
    "d H + H d != G F - 1 on M", "F G != 1 on N",
)))
_HE_FAILURES = {**_SDR_FAILURES, gen("g", 1): "d L + L d != F G - 1 on N"}


def validate_sdr(s: SdrData) -> list[str]:
    """Report of every violated retract identity (empty means valid)."""
    problems = _complex_problems(s.M, s.N)
    f0, g0, f1, g1 = tower_generators(0)
    assign = {f0: s.F, g0: s.G, g1: GradedMap.zero(s.N, s.N, 1), f1: s.H}
    _check_components(problems, assign, s.M, s.N, _HE_NAMES.get, _SDR_FAILURES.get)
    return problems


def check_side_conditions(s: SdrData) -> SideConditions:
    return SideConditions(
        hh_zero=compose(s.H, s.H).is_zero(),
        hg_zero=compose(s.H, s.G).is_zero(),
        fh_zero=compose(s.F, s.H).is_zero(),
    )


def validate_perturbation(p: Perturbation) -> list[str]:
    problems = [f"base: {msg}" for msg in validate_complex(p.base)]
    if p.delta.source != p.base or p.delta.target != p.base:
        problems.append("delta is not a self-map of the base complex")
        return problems
    if p.delta.degree != -1:
        problems.append(f"delta has degree {p.delta.degree}, expected -1")
        return problems
    if filtration_shift(p.delta) < 1:
        problems.append(f"delta has filtration shift {filtration_shift(p.delta)}, expected >= 1")
    d_new = p.base.differential_map() + p.delta
    if not compose(d_new, d_new).is_zero():
        problems.append("(d + delta)^2 != 0")
    return problems


def perturbed_complex(p: Perturbation) -> ChainComplex:
    return complex_with_differential(p.base, p.base.differential_map() + p.delta)


def _kernels(assign: dict[Generator, GradedMap], top: int) -> list[GradedMap]:
    """``_kernel_series`` Z_-1 ... Z_top on the maps of ``assign``; its t-th
    summand raises the filtration by t + 1 or more, so one still nonzero at
    t = the spread of the weights of delta's complex is a truncation leak."""
    delta = assign[XBAR]
    weights = [w for row in delta.source.weights for w in row]
    steps = max(weights, default=0) - min(weights, default=0) + 1
    out = _kernel_series(delta, lambda i: assign[gen("f", i)], compose, top, steps)
    if len(out) <= (top + 1) // 2:
        raise InternalConsistencyError(f"truncation leak: the kernel series of degree {2 * len(out) - 1} "
                                       "does not vanish past the filtration length")
    return out


def geometric_kernel(p: Perturbation, h: GradedMap) -> GradedMap:
    """The finite sum delta + delta(H delta) + delta(H delta)^2 + ...: the
    kernel series Z_-1 of ``_kernels`` with f_1 = h, so a summand still
    nonzero at the spread of the base's weights raises its leak error."""
    if filtration_shift(p.delta) < 1:
        raise ValueError("delta must raise the filtration: the geometric series would not terminate")
    return _kernels({XBAR: p.delta, gen("f", 1): h}, -1)[0]


def _transfer(assign: dict[Generator, GradedMap], gens: tuple[Generator, ...],
              N: ChainComplex) -> tuple[ChainComplex, ChainComplex, dict[Generator, GradedMap]]:
    """The transfer of delta = assign[xb], one rule for both lemmas: each
    component of ``gens`` plus left Z_r right for each triple (left, r,
    right) that ``retraction_terms`` lists for its barred copy, and d_N plus
    the same sum for yb, with only the kernels those triples need.  Returns
    the perturbed M and N and the components rebased onto them, unchecked."""
    bars = {z: gen(z.family + "b", z.index) for z in gens}
    kernels = _kernels(assign, max(r for z in (*bars.values(), YBAR) for _, r, _ in retraction_terms(z)))

    def moved(bar: Generator, base: GradedMap) -> GradedMap:
        return base + _retraction_value(bar, lambda r: kernels[(r + 1) // 2], assign.__getitem__, compose)

    m_new = perturbed_complex(Perturbation(assign[XBAR].source, assign[XBAR]))
    n_new = complex_with_differential(N, moved(YBAR, N.differential_map()))
    return m_new, n_new, {z: rebase(moved(bars[z], assign[z]), *_hom_space(z, m_new, n_new)) for z in gens}


def bpl_transfer(s: SdrData, p: Perturbation) -> SdrData:
    """Transfer a perturbation across a side-condition retract, the cap-0
    data (f_0, g_0, f_1) = (F, G, H) of ``_transfer``.  The output is a new
    SdrData between the perturbed complexes; its four defining identities
    are re-verified exactly before returning."""
    _refuse(validate_sdr(s), "invalid retract: ")
    _refuse([] if p.base == s.M else ["perturbation does not live on the retract's big complex"])
    _refuse(validate_perturbation(p), "invalid perturbation: ")
    side = check_side_conditions(s)
    if not side.all:
        raise SideConditionError(
            f"side conditions required: HH=0 {side.hh_zero}, HG=0 {side.hg_zero}, FH=0 {side.fh_zero}"
        )

    f0, g0, f1, _ = tower_generators(0)
    m_new, n_new, out = _transfer({XBAR: p.delta, f0: s.F, g0: s.G, f1: s.H}, (f0, g0, f1), s.N)
    out = SdrData(M=m_new, N=n_new, F=out[f0], G=out[g0], H=out[f1])
    _refuse(validate_sdr(out), "transferred retract fails its identities: ", InternalConsistencyError)
    return out
