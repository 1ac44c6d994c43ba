"""Perturbation of homotopy-equivalence towers through the retraction.

The bridge between the two halves of the package: a tower of transfer data
(``SheData``) plus a filtration-raising perturbation of the big complex
defines an action of the operad with the extra degree -1 generator, and
the retraction of yb and of each barred generator, evaluated in that
action, gives the perturbed tower.  ``sdr_bpl._transfer`` evaluates it on
concrete maps, summing each kernel series until a summand vanishes; past
the spread of the weights no summand survives, and one that does is a
truncation leak.  The symbolic window that computes the same series, one
fweight band past that spread, is reported as ``provenance``.

The transfer specialization at tower index 0 (``solve_pp``) repairs the
input homotopies unless asked not to, extends by one index (the first
step decides the obstruction classes), perturbs, and projects back down.

Identities are checked where ``she_obstruction`` says: ``OperadAction``
checks its assignment (``_checked_by_caller`` builds one whose caller
has), ``action_from_she`` and ``ipl_perturb`` check their tower and
perturbation, and the perturbed tower is checked as it is built.
``solve_pp`` checks the equivalence and the perturbation before building
anything, checks the repaired equivalence where the repair replaced a
component before ``_extend`` (which checks only the components it builds),
and runs the private cores (``_extend``, ``_perturb``), so each identity of
the cap-1 tower and of the cap-0 output is checked once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chaincore import (
    ChainComplex,
    GradedMap,
    filtration_shift,
    rebase,
)
from .operad_sym import (
    OperadElement,
    TruncationCaps,
    Generator,
    XBAR,
)
from .sdr_bpl import (InternalConsistencyError, Perturbation, _check_components, _refuse, _transfer,
                      evaluate_words, tower_generators, validate_perturbation)
from .she_obstruction import (
    HeData,
    SheData,
    _extend,
    _require_valid_repair,
    he_from_she,
    modify_homotopy_h,
    modify_homotopy_l,
    she_from_assignment,
    tower_assignment,
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
    checked by ``sdr_bpl``'s tower check; for the degree -1 generator it
    says that the perturbed differential squares to zero.
    """

    M: ChainComplex
    N: ChainComplex
    assign: dict[Generator, GradedMap]

    def __post_init__(self) -> None:
        problems: list[str] = []
        _check_components(problems, self.assign, self.M, self.N,
                          lambda z: f"assignment of {z.token}",
                          lambda z: f"assignment of {z.token} does not intertwine the differentials")
        _refuse(problems)

    @classmethod
    def _checked_by_caller(cls, M: ChainComplex, N: ChainComplex, assign: dict) -> "OperadAction":
        """An action whose identities its caller has checked, not checked again."""
        act = object.__new__(cls)
        act.__dict__.update(M=M, N=N, assign=assign)
        return act


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
    _refuse(problems)


def action_from_she(she: SheData, p: Perturbation) -> OperadAction:
    """The action realizing a tower and a perturbation of its big side.
    Their two checks cover every identity of the action (xb's is (d +
    delta)^2 = 0), so the action is built without checking them again."""
    _require_perturbable(validate_she(she), she.M, p)
    return OperadAction._checked_by_caller(she.M, she.N, {XBAR: p.delta, **tower_assignment(she)})


@dataclass(frozen=True)
class PerturbedShe:
    """Result of pushing a perturbation through a tower.

    ``she`` lives over the perturbed complexes and has index cap one less
    than the input's; ``d_n_tilde`` is the perturbed differential of the
    small side; ``provenance`` records the truncation window of the same
    series in the symbolic engine (see the module docstring)."""

    d_n_tilde: GradedMap
    she: SheData
    provenance: TruncationCaps


def ipl_perturb(she: SheData, p: Perturbation) -> PerturbedShe:
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
    return _perturb(she, p)


def _perturb(she: SheData, p: Perturbation) -> PerturbedShe:
    """``ipl_perturb`` on a tower of cap >= 1 and a perturbation of its big
    side that are already checked; checks only its output.  The transfer is
    ``sdr_bpl._transfer``; the window reaches one fweight band past the
    spread of the weights M and N carry, not their declared ``max_weight``."""
    weights = [w for c in (she.M, she.N) for row in c.weights for w in row]
    band = max(weights, default=0) - min(weights, default=0)
    caps = TruncationCaps(
        max_index=2 * she.index_cap + 1,
        max_length=2 * (band + 1) + 3,
        max_fweight=band + 1,
        max_degree=2 * she.index_cap + 2,
    )
    cap_out = she.index_cap - 1
    m, n, parts = _transfer({XBAR: p.delta, **tower_assignment(she)}, tower_generators(cap_out), she.N)
    out = she_from_assignment(m, n, cap_out, parts)
    _refuse(validate_she(out), "perturbed tower fails its identities: ", InternalConsistencyError)
    return PerturbedShe(n.differential_map(), out, caps)


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
    # the extension checks only what it builds, so the repair is checked first
    _require_valid_repair(he, he2)
    # only as_is can be refused: after either repair both classes vanish
    she = _extend(he2, 1, "use a homotopy-repair strategy")
    perturbed = _perturb(she, p)
    # the cap-0 tower's identities are exactly those of the output quadruple
    out = perturbed.she
    quad = he_from_she(out)
    # each map rebased onto its reference's complexes, whose weights are the same
    refs = {k: getattr(he2, k) for k in "FGHL"}
    shifts = {k: filtration_shift(rebase(getattr(quad, k), r.source, r.target) - r) for k, r in refs.items()}
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
