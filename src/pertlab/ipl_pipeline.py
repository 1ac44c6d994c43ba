"""Perturbation of homotopy-equivalence towers through the symbolic retraction.

The bridge between the two halves of the package: a tower of transfer data
(``SheData``) plus a filtration-raising perturbation of the big complex
defines an action of the operad with the extra degree -1 generator, and
pushing the barred generators through the retraction and then through the
action produces the perturbed tower.  Truncation is exact here: a word of
fweight k evaluates to a composite of filtration shift >= k, and every
map of shift above the filtration length is zero, so the finite band
max_fweight = filtration length computes the full series.  The module
still evaluates one band past the length and insists it vanishes, since
a cheap certificate beats an argument.

The transfer specialization at tower index 0 (``solve_pp``) repairs the
input homotopies first when their obstruction classes force it, extends
by one index, perturbs, and projects back down.

Identities are checked where ``she_obstruction`` says: ``OperadAction``
checks its assignment, ``action_from_she`` and ``ipl_perturb`` check their
tower and perturbation, and the perturbed tower is checked as it is built.
``solve_pp`` checks the equivalence and the perturbation before building
anything and then runs the private cores (``_extend``, ``_perturb``), so
the cap-1 tower and the cap-0 output are each checked once, by their
constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chaincore import (
    ChainComplex,
    GradedMap,
    complex_with_differential,
    filtration_shift,
    rebase,
)
from .operad_sym import (
    OperadElement,
    TruncationCaps,
    Generator,
    XBAR,
    YBAR,
    gen,
    retraction_r,
    single,
    truncate_fweight,
    word,
)
from .sdr_bpl import InternalConsistencyError, Perturbation, validate_perturbation
from .she_obstruction import (
    HeData,
    SheData,
    _check_components,
    _checked,
    _extend,
    _obstruction_cycles,
    _require_vanishing,
    _zero_padded,
    component_name,
    evaluate_words,
    he_from_she,
    modify_homotopy_h,
    modify_homotopy_l,
    she_from_assignment,
    tower_assignment,
    tower_generators,
    validate_he,
    validate_she,
)


@dataclass(frozen=True)
class OperadAction:
    """An assignment of graded maps to generators, checked to be an action.

    Color B is realized by ``M``, color W by ``N``; each assigned generator
    must get a filtration-preserving map between the right complexes of the
    generator's degree, and the assignment must intertwine the symbolic
    differential with the hom differential: evaluate(d z) = D(assign[z])
    for every assigned z.  That one equation is the tower identity of z,
    checked by ``she_obstruction``'s tower check; for the degree -1
    generator it says that the perturbed differential squares to zero.
    """

    M: ChainComplex
    N: ChainComplex
    assign: dict[Generator, GradedMap]

    def __post_init__(self) -> None:
        problems: list[str] = []
        _check_components(problems, self.assign, self.M, self.N,
                          lambda z: f"assignment of {z.token}",
                          lambda z: f"assignment of {z.token} does not intertwine the differentials")
        if problems:
            raise ValueError("; ".join(problems))


def evaluate(e: OperadElement, act: OperadAction) -> GradedMap:
    """Z-linear evaluation: a word becomes the composite of its factor
    images (rightmost applied first), an identity word the identity map.

    The element must be color- and degree-homogeneous so the result lives
    in one hom group; unassigned generators are an error.
    """
    if e.is_zero():
        raise ValueError("cannot evaluate the zero element: its hom group is ambiguous")
    return evaluate_words(e.terms, act.assign, act.M, act.N)


def _require_perturbable(problems: list[str], M: ChainComplex, p: Perturbation) -> None:
    """Raise on the problems of a tower or an equivalence with big side M,
    together with those of a perturbation p, which must live on M."""
    problems = problems + validate_perturbation(p)
    if p.base != M:
        problems.append("perturbation lives on a different complex than the tower")
    if problems:
        raise ValueError("; ".join(problems))


def action_from_she(she: SheData, p: Perturbation) -> OperadAction:
    """The action realizing a tower and a perturbation of its big side.
    Their two checks cover every identity of the action (xb's is (d +
    delta)^2 = 0), so the action is built without checking them again."""
    _require_perturbable(validate_she(she), she.M, p)
    act = object.__new__(OperadAction)
    act.__dict__.update(M=she.M, N=she.N, assign={XBAR: p.delta, **tower_assignment(she)})
    return act


@dataclass(frozen=True)
class PerturbedShe:
    """Result of pushing a perturbation through a tower.

    ``she`` lives over the perturbed complexes and has index cap one less
    than the input's; ``d_n_tilde`` is the perturbed differential of the
    small side; ``provenance`` records the truncation window used."""

    d_n_tilde: GradedMap
    she: SheData
    provenance: TruncationCaps


def ipl_perturb(she: SheData, p: Perturbation, caps: TruncationCaps | None = None) -> PerturbedShe:
    """Perturb a tower of index cap m >= 1 into one of cap m - 1.

    The top input index is consumed: the output's highest odd component
    uses the input's even and odd components one index higher, which is
    why the cap drops by one and why cap-0 input is rejected.
    """
    if she.index_cap < 1:
        raise ValueError(
            "a tower of index cap 0 cannot absorb a perturbation; extend it to cap 1 first"
        )
    _require_perturbable(validate_she(she), she.M, p)
    return _perturb(she, p, caps)


def _perturb(she: SheData, p: Perturbation, caps: TruncationCaps | None) -> PerturbedShe:
    """``ipl_perturb`` on a tower of cap >= 1 and a perturbation of its big
    side that are already checked; checks only its output."""
    assign = {XBAR: p.delta, **tower_assignment(she)}
    band = she.M.max_weight
    if caps is None:
        caps = TruncationCaps(
            max_index=2 * she.index_cap + 1,
            max_length=2 * (band + 1) + 3,
            max_fweight=band + 1,
            max_degree=2 * she.index_cap + 2,
        )
    if caps.max_fweight <= band:
        raise ValueError("caps insufficient: the fweight window must clear the filtration length")

    def series(z: Generator, label: str) -> GradedMap | None:
        """The retraction of z evaluated band by band: the part within the
        filtration length is the value, the first band beyond it must
        evaluate to zero."""
        e = retraction_r(single("riso_tilde", word(z)), caps)
        lo = truncate_fweight(e, band)
        value = evaluate_words(lo.terms, assign, she.M, she.N)
        leak = evaluate_words((e - lo).terms, assign, she.M, she.N)
        if leak is not None and not leak.is_zero():
            raise InternalConsistencyError(
                f"truncation leak: the band past the filtration length contributes to {label}"
            )
        return value

    d_n_corr = series(YBAR, "the perturbed differential")
    d_n = she.N.differential_map()
    d_n_tilde = d_n + d_n_corr if d_n_corr is not None else d_n
    m_tilde = complex_with_differential(she.M, she.M.differential_map() + p.delta)
    n_tilde = complex_with_differential(she.N, d_n_tilde)

    cap_out = she.index_cap - 1
    over = {"B": m_tilde, "W": n_tilde}
    components: dict[Generator, GradedMap] = {}
    for z in tower_generators(cap_out):
        corr = series(gen(z.family + "b", z.index), f"the {component_name(z)} correction")
        base = assign[z]
        components[z] = rebase(base + corr if corr else base, over[z.src], over[z.dst])
    out = _checked(she_from_assignment(m_tilde, n_tilde, cap_out, components), "perturbed tower")
    return PerturbedShe(rebase(d_n_tilde, n_tilde, n_tilde), out, caps)


@dataclass(frozen=True)
class PpSolution:
    """Perturbed homotopy-equivalence quadruple plus its provenance.

    ``reference`` is the unperturbed quadruple actually perturbed (after
    any homotopy repair), so each component differs from its reference
    counterpart by a filtration-raising map; ``shifts`` reports those
    filtration shifts by component name."""

    d_n_tilde: GradedMap
    f_tilde: GradedMap
    g_tilde: GradedMap
    h_tilde: GradedMap
    l_tilde: GradedMap
    m_perturbed: ChainComplex
    n_perturbed: ChainComplex
    reference: HeData
    shifts: dict[str, int] = field(default_factory=dict)


_REPAIRS = {"modify_h": modify_homotopy_h, "modify_l": modify_homotopy_l, "as_is": lambda he: he}
_STRATEGIES = tuple(_REPAIRS)


def solve_pp(he: HeData, p: Perturbation, strategy: str = "modify_h") -> PpSolution:
    """Transfer a perturbation across a homotopy equivalence.

    The homotopies are repaired first under the modify strategies (always,
    so the output perturbs the repaired quadruple); under ``as_is`` the
    obstruction classes must already vanish, otherwise the one-step tower
    extension is impossible and the error says so.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose one of {_STRATEGIES}")
    _require_perturbable(validate_he(he), he.M, p)
    he2 = _REPAIRS[strategy](he)
    # trivial_extension, keeping the cycles for the extension if it fails
    o_m, o_n = _obstruction_cycles(he2)
    she = _zero_padded(he2, 1) if o_m.is_zero() and o_n.is_zero() else None
    if she is None:
        # only as_is can be refused: after either repair both classes vanish
        she = _extend(he2, 1, _require_vanishing(he2, o_m, o_n, "use a homotopy-repair strategy"))
    perturbed = _perturb(she, p, None)
    # the cap-0 tower's identities are exactly those of the output quadruple
    out = perturbed.she
    quad = he_from_she(out)
    shifts = {k: filtration_shift(_forget(getattr(quad, k)) - _forget(getattr(he2, k)))
              for k in "FGHL"}
    return PpSolution(
        d_n_tilde=perturbed.d_n_tilde,
        f_tilde=quad.F,
        g_tilde=quad.G,
        h_tilde=quad.H,
        l_tilde=quad.L,
        m_perturbed=out.M,
        n_perturbed=out.N,
        reference=he2,
        shifts=shifts,
    )


def _forget(f: GradedMap) -> GradedMap:
    """The same blocks over the unperturbed-differential complexes, so maps
    over perturbed and unperturbed complexes become comparable."""
    return rebase(f, *(complex_with_differential(c, GradedMap.zero(c, c, -1))
                       for c in (f.source, f.target)))
