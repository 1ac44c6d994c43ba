"""Strong deformation retracts and the basic perturbation lemma.

A strong deformation retract (SDR) is a pair of complexes M, N with chain
maps F: M -> N, G: N -> M and a degree +1 homotopy H on M satisfying

    F G = 1_N,        D(H) = G F - 1_M   (written d H + H d = G F - 1),

plus, when we say the side conditions hold,

    H H = 0,   H G = 0,   F H = 0.

Given a perturbation delta of d_M (degree -1, strictly filtration-raising,
with (d_M + delta)^2 = 0), the basic perturbation lemma transfers delta
across the retract: with K the geometric series

    K = delta + delta H delta + delta H delta H delta + ...

(a finite sum because each summand raises filtration one more step), the
transferred data is

    d'_N = d_N + F K G,   F' = F + F K H,   G' = G + H K G,   H' = H + H K H,

an SDR between the perturbed complexes.  The side conditions are required
on input; whether they survive transfer is reported, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chaincore import (
    ChainComplex,
    GradedMap,
    complex_with_differential,
    compose,
    filtration_shift,
    hom_differential,
    rebase,
    validate_complex,
)


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


def _complex_problems(M: ChainComplex, N: ChainComplex) -> list[str]:
    """``validate_complex`` of both ends, each line prefixed by its name."""
    return [f"{name}: {p}" for name, c in (("M", M), ("N", N)) for p in validate_complex(c)]


def _expect_map(problems: list[str], f: GradedMap, name: str,
                src: ChainComplex, tgt: ChainComplex, degree: int) -> bool:
    if f.source != src or f.target != tgt:
        problems.append(f"{name} does not run between the stated complexes")
        return False
    if f.degree != degree:
        problems.append(f"{name} has degree {f.degree}, expected {degree}")
        return False
    if filtration_shift(f) < 0:
        problems.append(f"{name} does not preserve the filtration (shift {filtration_shift(f)})")
    return True


def validate_sdr(s: SdrData) -> list[str]:
    """Report of every violated retract identity (empty means valid)."""
    problems = _complex_problems(s.M, s.N)
    ok = _expect_map(problems, s.F, "F", s.M, s.N, 0)
    ok &= _expect_map(problems, s.G, "G", s.N, s.M, 0)
    ok &= _expect_map(problems, s.H, "H", s.M, s.M, 1)
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


def geometric_kernel(p: Perturbation, h: GradedMap) -> GradedMap:
    """The finite sum delta + delta(H delta) + delta(H delta)^2 + ...

    Each extra factor raises the filtration, so the partial products reach
    zero after at most filtration-length many steps; the loop exits at the
    first zero partial product.
    """
    if filtration_shift(p.delta) < 1:
        raise ValueError("delta must raise the filtration: the geometric series would not terminate")
    hd = compose(h, p.delta)
    total = p.delta
    current = p.delta
    for _ in range(p.base.max_weight + 2):
        current = compose(current, hd)
        if current.is_zero():
            return total
        total = total + current
    raise InternalConsistencyError("geometric series failed to terminate within the filtration length")


def bpl_transfer(s: SdrData, p: Perturbation) -> SdrData:
    """Transfer a perturbation across a side-condition retract.

    The output is a new SdrData between the perturbed complexes; its four
    defining identities are re-verified exactly before returning.
    """
    report = validate_sdr(s)
    if report:
        raise ValueError("invalid retract: " + "; ".join(report))
    if p.base != s.M:
        raise ValueError("perturbation does not live on the retract's big complex")
    report = validate_perturbation(p)
    if report:
        raise ValueError("invalid perturbation: " + "; ".join(report))
    side = check_side_conditions(s)
    if not side.all:
        raise SideConditionError(
            f"side conditions required: HH=0 {side.hh_zero}, HG=0 {side.hg_zero}, FH=0 {side.fh_zero}"
        )

    k = geometric_kernel(p, s.H)
    m_new = perturbed_complex(p)
    d_n_new = s.N.differential_map() + compose(compose(s.F, k), s.G)
    n_new = complex_with_differential(s.N, d_n_new)

    out = SdrData(
        M=m_new,
        N=n_new,
        F=rebase(s.F + compose(compose(s.F, k), s.H), m_new, n_new),
        G=rebase(s.G + compose(compose(s.H, k), s.G), n_new, m_new),
        H=rebase(s.H + compose(compose(s.H, k), s.H), m_new, m_new),
    )
    report = validate_sdr(out)
    if report:
        raise InternalConsistencyError("transferred retract fails its identities: " + "; ".join(report))
    return out

