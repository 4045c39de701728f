"""Standard parabolic data: Levi roots, isotropy roots Psi, and the grading
of Psi by the pairing with an ample weight."""

from __future__ import annotations

from dataclasses import dataclass

from .rootsys import Root, RootSystem


class NotAmple(ValueError):
    """The weight fails the ampleness condition for this parabolic."""


@dataclass(frozen=True)
class ParabolicData:
    """Parabolic of type theta (0-based simple indices kept in the Levi)."""

    rs: RootSystem
    theta: frozenset
    levi_positive: tuple[Root, ...]
    psi: tuple[Root, ...]

    @property
    def dim(self) -> int:
        """Complex dimension of G/P (= |Psi|)."""
        return len(self.psi)


def build_parabolic(rs: RootSystem, theta) -> ParabolicData:
    """Split Sigma+ into the Levi part (support inside theta) and Psi."""
    theta = frozenset(theta)
    if not theta <= set(range(rs.rank)):
        raise ValueError(f"theta {sorted(theta)} out of range for rank {rs.rank}")
    levi, psi = [], []
    for beta in rs.positive_roots:
        support = {i for i, c in enumerate(beta.coords) if c}
        (levi if support <= theta else psi).append(beta)
    return ParabolicData(rs=rs, theta=theta,
                         levi_positive=tuple(levi), psi=tuple(psi))


def check_ample(pd: ParabolicData, lam) -> bool:
    """True iff lam vanishes on the Levi simple roots and is positive on Psi."""
    rs = pd.rs
    if any(lam[i] != 0 for i in pd.theta):
        return False
    return all(rs._pairing(lam, alpha) > 0 for alpha in pd.psi)


@dataclass(frozen=True)
class PsiGrading:
    lam: tuple[int, ...]
    buckets: dict  # j -> tuple[Root, ...]

    def indices(self):
        return sorted(self.buckets)


def psi_grading(pd: ParabolicData, lam) -> PsiGrading:
    """Partition Psi by j = <alpha^vee, lam>; requires lam ample."""
    rs = pd.rs
    if any(lam[i] != 0 for i in pd.theta):
        raise NotAmple(
            f"weight {lam} does not vanish on "
            f"theta={sorted(i + 1 for i in pd.theta)}")
    buckets: dict[int, list[Root]] = {}
    for alpha in pd.psi:
        j = rs._pairing(lam, alpha)
        if j <= 0:
            raise NotAmple(
                f"weight {lam} is not ample for "
                f"theta={sorted(i + 1 for i in pd.theta)}: "
                f"violating root {alpha.coords}")
        buckets.setdefault(j, []).append(alpha)
    return PsiGrading(lam=tuple(lam),
                      buckets={j: tuple(v) for j, v in buckets.items()})
