"""Standard parabolic data: the isotropy roots Psi, and the grading of Psi
by the pairing with an ample weight."""

from __future__ import annotations

from .rootsys import Root, RootSystem, one_based


class NotAmple(ValueError):
    """The weight fails the ampleness condition for this parabolic."""


class ParabolicData:
    """Parabolic of type theta (0-based simple indices kept in the Levi)."""

    __slots__ = ("rs", "theta", "psi")

    def __init__(self, rs: RootSystem, theta: frozenset,
                 psi: tuple[Root, ...]):
        self.rs = rs
        self.theta = theta
        self.psi = psi

    @property
    def dim(self) -> int:
        """Complex dimension of G/P (= |Psi|)."""
        return len(self.psi)


def build_parabolic(rs: RootSystem, theta) -> ParabolicData:
    """Psi: the positive roots whose support is not inside theta (checked
    by RootSystem.check_theta)."""
    theta = rs.check_theta(theta)
    psi = tuple(beta for beta in rs.positive_roots
                if not {i for i, c in enumerate(beta.coords) if c} <= theta)
    return ParabolicData(rs, theta, psi)


def check_vanishes(pd: ParabolicData, lam) -> tuple:
    """lam as a tuple (see RootSystem.check_weight); NotAmple unless it
    vanishes on theta, so that L_lam lives on G/P_theta.  theta is named in
    the 1-based numbering of the CLI."""
    lam = pd.rs.check_weight(lam)
    if any(lam[i] for i in pd.theta):
        raise NotAmple(f"weight {lam} does not vanish on "
                       f"theta={one_based(pd.theta)}")
    return lam


def check_ample(pd: ParabolicData, lam) -> tuple:
    """lam as a tuple if L_lam is ample on G/P_theta: lam vanishes on theta
    (check_vanishes) and pairs positively with every root of Psi.  NotAmple
    naming the first root of Psi that it fails on otherwise."""
    lam = check_vanishes(pd, lam)
    for alpha in pd.psi:
        if pd.rs._pairing(lam, alpha) <= 0:
            raise NotAmple(f"weight {lam} is not ample for "
                           f"theta={one_based(pd.theta)}: "
                           f"violating root {alpha.coords}")
    return lam


def psi_grading(pd: ParabolicData, lam) -> dict:
    """Psi partitioned by j = <alpha^vee, lam>: j -> the tuple of its roots.
    lam must be ample (check_ample)."""
    lam = check_ample(pd, lam)
    buckets: dict[int, list[Root]] = {}
    for alpha in pd.psi:
        buckets.setdefault(pd.rs._pairing(lam, alpha), []).append(alpha)
    return {j: tuple(v) for j, v in buckets.items()}
