"""Root systems of all Cartan types, with exact integer/rational pairings.

Conventions (fixed once, used everywhere):

* Weights are integer tuples in the fundamental-weight basis, so the
  pairing with a simple coroot is just a coordinate lookup.
* Roots carry two integer tuples: their simple-root coordinates and the
  simple-coroot coordinates of their coroot.  Both are maintained through
  the reflection closure, so no inner product or root length is ever
  needed to evaluate <beta^vee, mu>.
* Simple roots are numbered 1..rank in the Bourbaki ordering per factor
  (chains run left to right; in B_n the last root is short, in C_n long,
  in D_n/E_n the branch node follows Bourbaki, in G2 the first root is
  short).  `_FAMILIES` decides this, one row per family, and
  `numbering_table` prints it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Callable, NamedTuple


class _Family(NamedTuple):
    """A Dynkin family at rank n, simple roots 0-based in Bourbaki's
    numbering: the ranks it exists in, its Dynkin edges {i, j}, the root
    lengths d_i = (alpha_i, alpha_i) / 2 in the least integral scale, and
    the note of `numbering_table`."""

    rank_ok: Callable[[int], bool]
    edges: Callable[[int], list]
    lengths: Callable[[int], list]
    note: str


def _chain(n: int) -> list:
    return [(i, i + 1) for i in range(n - 1)]


def _equal_lengths(n: int) -> list:
    return [1] * n


# Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates I-IX.  Every
# convention of a family is decided here and nowhere else.
_FAMILIES = {
    "A": _Family(lambda n: n >= 1, _chain, _equal_lengths, "chain"),
    "B": _Family(lambda n: n >= 2, _chain, lambda n: [2] * (n - 1) + [1],
                 "chain, last root short"),
    "C": _Family(lambda n: n >= 2, _chain, lambda n: [1] * (n - 1) + [2],
                 "chain, last root long"),
    "D": _Family(lambda n: n >= 3, lambda n: _chain(n - 1) + [(n - 3, n - 1)],
                 _equal_lengths, "chain 1..n-2 with fork to n-1 and n"),
    "E": _Family(lambda n: n in (6, 7, 8),
                 lambda n: [(0, 2), (1, 3)] + _chain(n)[2:], _equal_lengths,
                 "Bourbaki: chain 1-3-4-..-n, branch node 2 attached to 4"),
    "F": _Family(lambda n: n == 4, _chain, lambda n: [2, 2, 1, 1],
                 "chain, roots 1,2 long and 3,4 short"),
    "G": _Family(lambda n: n == 2, _chain, lambda n: [1, 3],
                 "root 1 short, root 2 long"),
}


class InvalidCartanSpec(ValueError):
    """Raised for malformed or out-of-range Cartan specifications."""


class InvariantViolation(AssertionError):
    """An identity that exact arithmetic guarantees failed to hold.  Raised
    explicitly rather than by `assert`, so that it survives `python -O`."""


@dataclass(frozen=True)
class CartanSpec:
    """An ordered product of simple factors, e.g. B2 x A1."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise InvalidCartanSpec("empty Cartan spec")
        for fam, rank in self.factors:
            if fam not in _FAMILIES:
                raise InvalidCartanSpec(f"unknown family {fam!r}")
            if not _FAMILIES[fam].rank_ok(rank):
                raise InvalidCartanSpec(f"rank {rank} not allowed for family {fam}")

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.factors)

    def __str__(self):
        return "x".join(f"{fam}{rank}" for fam, rank in self.factors)


_TOKEN = re.compile(r"([A-Ga-g])(\d+)$")


def parse_cartan_spec(text: str) -> CartanSpec:
    """Parse a spec string like "A3", "B2xA1" or "d4" (case-insensitive)."""
    factors = []
    for tok in text.replace(" ", "").split("x"):
        m = _TOKEN.match(tok)
        if not m:
            raise InvalidCartanSpec(f"cannot parse factor {tok!r} in {text!r}")
        factors.append((m.group(1).upper(), int(m.group(2))))
    return CartanSpec(tuple(factors))


@dataclass(frozen=True)
class Root:
    """A root, stored in the simple-root basis together with its coroot.

    `coords` are the simple-root coordinates, `coroot` the simple-coroot
    coordinates of the associated coroot; both are all >= 0 or all <= 0.
    """

    coords: tuple[int, ...]
    coroot: tuple[int, ...]

    def __neg__(self):
        return Root(tuple(-c for c in self.coords), tuple(-c for c in self.coroot))

    def height(self) -> int:
        return sum(self.coords)


def _scaled_inverse(M) -> tuple[int, list[list[int]]]:
    """(det M, det M * M^{-1}), both in int: Gauss-Jordan without fractions
    (Bareiss), whose every division is exact.  It needs no row swaps, since
    every leading principal minor of a Cartan matrix of finite type is
    positive."""
    n = len(M)
    aug = [list(M[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    d = 1
    for col in range(n):
        p, pivot_row = aug[col][col], aug[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * x - f * y) // d
                          for x, y in zip(aug[r], pivot_row)]
        d = p
    return d, [row[n:] for row in aug]


@dataclass(frozen=True)
class RootSystem:
    spec: CartanSpec
    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    rho: tuple[int, ...]
    coxeter_numbers: tuple[int, ...]  # one per simple factor
    _symmetrizer: tuple[int, ...]  # d_i with d_i A[i][j] symmetric

    # -- basics -------------------------------------------------------

    @property
    def coxeter_number(self) -> int:
        """Coxeter number; for products the maximum over the factors."""
        return max(self.coxeter_numbers)

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    @cached_property
    def _cartan_inverse(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(d, d A^{-1}) in int, formed on first use: only
        weight_to_root_coords reads it."""
        d, scaled = _scaled_inverse(self.cartan_matrix)
        return d, tuple(map(tuple, scaled))

    @cached_property
    def _root_weights(self) -> dict:
        """Simple-root coordinates -> root_to_weight of every positive
        root, formed on first use."""
        return {beta.coords: self.root_to_weight(beta.coords)
                for beta in self.positive_roots}

    @cached_property
    def _neighbours(self) -> tuple:
        """_neighbours[i] lists the (k, A[k][i]) with k != i and A[k][i] != 0:
        s_i negates coordinate i of a weight mu and subtracts mu_i A[k][i]
        from each such coordinate k, formed on first use."""
        A = self.cartan_matrix
        return tuple(tuple((k, A[k][i]) for k in range(self.rank)
                           if k != i and A[k][i])
                     for i in range(self.rank))

    # -- coordinate conversions ---------------------------------------

    def check_weight(self, mu) -> tuple:
        """mu as a tuple; ValueError unless it has one coordinate per
        simple root."""
        mu = tuple(mu)
        if len(mu) != self.rank:
            raise ValueError(
                f"weight {mu} has {len(mu)} coordinates, rank is {self.rank}")
        return mu

    def root_to_weight(self, coords) -> tuple:
        """Simple-root coordinates -> fundamental-weight coordinates (A @ c)."""
        return tuple([sum(map(mul, row, coords)) for row in self.cartan_matrix])

    def weight_to_root_coords(self, mu) -> tuple[Fraction, ...]:
        """Fundamental-weight coordinates -> (rational) simple-root coordinates."""
        d, scaled = self._cartan_inverse
        return tuple(Fraction(sum(map(mul, row, mu)), d) for row in scaled)

    # -- pairings and reflections -------------------------------------

    def _pairing(self, mu, alpha: Root):
        """<alpha^vee, mu> for a weight mu in fw coordinates."""
        return sum(c * m for c, m in zip(alpha.coroot, mu))

    def simple_reflect_weight(self, i: int, mu) -> tuple:
        """s_i(mu) for a 0-based simple index, in fw coordinates."""
        A = self.cartan_matrix
        return tuple(m - mu[i] * A[r][i] for r, m in enumerate(mu))

    def simple_reflect_root(self, i: int, beta: Root) -> Root:
        """s_i(beta), transforming root and coroot coordinates together."""
        A, n = self.cartan_matrix, self.rank
        rc = list(beta.coords)
        rc[i] -= sum(A[i][j] * beta.coords[j] for j in range(n))
        cc = list(beta.coroot)
        cc[i] -= sum(beta.coroot[j] * A[j][i] for j in range(n))
        return Root(tuple(rc), tuple(cc))

    # -- dominance ----------------------------------------------------

    def is_dominant(self, mu, subset=None) -> bool:
        idx = range(self.rank) if subset is None else subset
        return all(mu[i] >= 0 for i in idx)

    # -- invariant bilinear form --------------------------------------

    def inner(self, mu, nu) -> Fraction:
        """W-invariant form on weights (fw coordinates), normalized so that
        (alpha_i, alpha_i) = 2 d_i with the minimal integral symmetrizer d."""
        c = self.weight_to_root_coords(mu)
        d = self._symmetrizer
        A = self.cartan_matrix
        # (mu, nu) = c^T B nu_rootcoords with B[i][j] = d_i A[i][j]; but
        # B c_nu in fw terms: (alpha_i, nu) = d_i <alpha_i^vee, nu> = d_i nu_i.
        return sum(ci * d[i] * nu[i] for i, ci in enumerate(c))

    def numbering_table(self) -> str:
        """Human-readable description of the simple-root numbering."""
        lines = []
        offset = 0
        for fam, rank in self.spec.factors:
            idx = ", ".join(str(offset + i + 1) for i in range(rank))
            lines.append(f"{fam}{rank}: simple roots {idx} "
                         f"({_FAMILIES[fam].note})")
            offset += rank
        return "\n".join(lines)


def build_root_system(spec: CartanSpec | str) -> RootSystem:
    """Construct the root system: Cartan matrix, positive roots (the simple
    roots raised by simple reflections), rho, Coxeter numbers."""
    if isinstance(spec, str):
        spec = parse_cartan_spec(spec)
    rank = spec.rank

    # block-diagonal Cartan matrix from each factor's edges and root
    # lengths: on an edge, A[i][j] = -d_j / d_i if alpha_j is the longer
    # root, else -1; the symmetrizer is each factor's d, scaled so that the
    # first entries of all factors agree
    A = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    lengths = [_FAMILIES[fam].lengths(r) for fam, r in spec.factors]
    lead = math.lcm(*(d[0] for d in lengths))
    symmetrizer = []
    factor_of_index = []  # simple index -> factor number
    for f, ((fam, r), d) in enumerate(zip(spec.factors, lengths)):
        offset = len(symmetrizer)
        for i, j in _FAMILIES[fam].edges(r):
            A[offset + i][offset + j] = -max(1, d[j] // d[i])
            A[offset + j][offset + i] = -max(1, d[i] // d[j])
        symmetrizer += [x * (lead // d[0]) for x in d]
        factor_of_index += [f] * r
    A = tuple(tuple(row) for row in A)

    # raise each positive root beta by the simple roots alpha_i with
    # p = <beta, alpha_i^vee> < 0: s_i(beta) = beta - p alpha_i is then a
    # higher root, and every positive root is reached from a simple root by
    # such steps.  The pairings are the fw coordinates of beta, carried
    # along; the coroot and the Root are formed for new roots only, with
    # <alpha_i, beta^vee> from the nonzero entries of column i of A.
    alpha_fw = [tuple(row[i] for row in A) for i in range(rank)]
    cols = [[(j, a) for j, a in enumerate(col) if a] for col in alpha_fw]
    roots = {}
    todo = []
    for i in range(rank):
        e = tuple(int(i == j) for j in range(rank))
        roots[e] = Root(e, e)
        todo.append((roots[e], alpha_fw[i]))
    while todo:
        beta, fw = todo.pop()
        c = beta.coords
        for i, p in enumerate(fw):
            if p < 0:
                rc = c[:i] + (c[i] - p,) + c[i + 1:]
                if rc not in roots:
                    cv = beta.coroot
                    q = sum(cv[j] * a for j, a in cols[i])
                    gamma = Root(rc, cv[:i] + (cv[i] - q,) + cv[i + 1:])
                    roots[rc] = gamma
                    todo.append((gamma, tuple(
                        f - p * a for f, a in zip(fw, alpha_fw[i]))))
    positive = tuple(roots[c] for c in sorted(roots))

    # Coxeter numbers per factor: c * rank_factor = #roots of factor; a
    # root lives in the factor of its first nonzero coordinate
    counts = [0] * len(spec.factors)
    for r in positive:
        first = next(i for i, x in enumerate(r.coords) if x)
        counts[factor_of_index[first]] += 2
    cox = []
    for (_, r), nroots in zip(spec.factors, counts):
        c, rem = divmod(nroots, r)
        if rem:
            raise InvariantViolation(
                f"Coxeter identity c * rank = #roots failed for {spec}: "
                f"{nroots} roots on a factor of rank {r}")
        cox.append(c)

    return RootSystem(
        spec=spec,
        rank=rank,
        cartan_matrix=A,
        positive_roots=positive,
        rho=tuple([1] * rank),
        coxeter_numbers=tuple(cox),
        _symmetrizer=tuple(symmetrizer),
    )
