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
  short).  `numbering_table` prints this.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul, neg

FAMILIES = "ABCDEFG"

# rank validity per family
_RANK_OK = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
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
            if fam not in FAMILIES:
                raise InvalidCartanSpec(f"unknown family {fam!r}")
            if not _RANK_OK[fam](rank):
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

    @property
    def is_positive(self) -> bool:
        return any(c > 0 for c in self.coords)

    def __neg__(self):
        return Root(tuple(-c for c in self.coords), tuple(-c for c in self.coroot))

    def height(self) -> int:
        return sum(self.coords)


def _cartan_matrix(fam: str, n: int) -> list[list[int]]:
    """Cartan matrix A with A[i][j] = <alpha_j, alpha_i^vee> (0-based)."""
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, aij=-1, aji=-1):
        A[i][j] = aij
        A[j][i] = aji

    if fam in "ABCF":
        for i in range(n - 1):
            edge(i, i + 1)
    if fam == "B":
        # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
        A[n - 1][n - 2] = -2
    elif fam == "C":
        # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2
        A[n - 2][n - 1] = -2
    elif fam == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif fam == "E":
        # Bourbaki: chain 1-3-4-5-...-n, branch 2-4
        for i, j in [(0, 2), (2, 3), (1, 3)] + [(k, k + 1) for k in range(3, n - 1)]:
            edge(i, j)
    elif fam == "F":
        # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        A[2][1] = -2
    elif fam == "G":
        # alpha_1 short, alpha_2 long
        A[0][1] = -3
        A[1][0] = -1
    return A


def _invert_rational(M: list[list[int]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan over Fraction."""
    n = len(M)
    aug = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@dataclass(frozen=True)
class RootSystem:
    spec: CartanSpec
    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    rho: tuple[int, ...]
    coxeter_numbers: tuple[int, ...]  # one per simple factor
    factor_of_index: tuple[int, ...]  # simple index -> factor number
    _symmetrizer: tuple[int, ...]  # d_i with d_i A[i][j] symmetric
    _root_coord_set: frozenset  # coordinates of all roots, both signs

    # -- basics -------------------------------------------------------

    @property
    def coxeter_number(self) -> int:
        """Coxeter number; for products the maximum over the factors."""
        return max(self.coxeter_numbers)

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def is_root(self, alpha: Root) -> bool:
        return alpha.coords in self._root_coord_set

    @cached_property
    def _cartan_inverse(self) -> tuple[tuple[Fraction, ...], ...]:
        """A^{-1} over Fraction, formed on first use: only
        weight_to_root_coords reads it."""
        return tuple(tuple(row) for row in _invert_rational(self.cartan_matrix))

    @cached_property
    def _root_weights(self) -> dict:
        """Simple-root coordinates -> fundamental-weight coordinates
        (root_to_weight) of every positive root, formed on first use."""
        A = self.cartan_matrix
        return {beta.coords: tuple([sum(map(mul, row, beta.coords))
                                    for row in A])
                for beta in self.positive_roots}

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
        A = self.cartan_matrix
        return tuple(sum(A[i][j] * coords[j] for j in range(self.rank))
                     for i in range(self.rank))

    def weight_to_root_coords(self, mu) -> tuple[Fraction, ...]:
        """Fundamental-weight coordinates -> (rational) simple-root coordinates."""
        Ainv = self._cartan_inverse
        return tuple(sum(Ainv[i][j] * mu[j] for j in range(self.rank))
                     for i in range(self.rank))

    # -- pairings and reflections -------------------------------------

    def coroot_pairing(self, mu, alpha: Root) -> int:
        """<alpha^vee, mu> for a weight mu in fundamental-weight coordinates."""
        if not self.is_root(alpha):
            raise ValueError(f"{alpha.coords} is not a root of {self.spec}")
        return self._pairing(mu, alpha)

    def _pairing(self, mu, alpha: Root):
        return sum(c * m for c, m in zip(alpha.coroot, mu))

    def pairing_root(self, alpha: Root, beta: Root) -> int:
        """<alpha^vee, beta> for two roots."""
        return self._pairing(self.root_to_weight(beta.coords), alpha)

    def reflect(self, alpha: Root, mu) -> tuple:
        """S_alpha(mu) = mu - <alpha^vee, mu> alpha, in fw coordinates."""
        if not self.is_root(alpha):
            raise ValueError(f"{alpha.coords} is not a root of {self.spec}")
        n = self._pairing(mu, alpha)
        fw = self.root_to_weight(alpha.coords)
        return tuple(m - n * f for m, f in zip(mu, fw))

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
            note = {
                "A": "chain",
                "B": "chain, last root short",
                "C": "chain, last root long",
                "D": "chain 1..n-2 with fork to n-1 and n",
                "E": "Bourbaki: chain 1-3-4-..-n, branch node 2 attached to 4",
                "F": "chain, roots 1,2 long and 3,4 short",
                "G": "root 1 short, root 2 long",
            }[fam]
            lines.append(f"{fam}{rank}: simple roots {idx} ({note})")
            offset += rank
        return "\n".join(lines)


def _symmetrizer_for(A: list[list[int]], blocks) -> list[int]:
    """Positive integers d with d_i A[i][j] = d_j A[j][i]: on each block
    the least such d times a factor, chosen so that the first indices of
    the blocks all carry the lcm of their least values."""
    d = [0] * len(A)
    for block in blocks:
        d[block[0]] = 1
        todo = [block[0]]
        while todo:
            i = todo.pop()
            for j in block:
                if A[i][j] != 0 and i != j and d[j] == 0:
                    # d_j = d_i A[i][j] / A[j][i], both entries negative
                    num, den = d[i] * A[i][j], A[j][i]
                    if num % den:
                        for k in block:
                            d[k] *= -den
                        num *= -den
                    d[j] = num // den
                    todo.append(j)
        g = math.gcd(*(d[k] for k in block))
        for k in block:
            d[k] //= g
    lead = math.lcm(*(d[block[0]] for block in blocks))
    for block in blocks:
        f = lead // d[block[0]]
        for k in block:
            d[k] *= f
    return d


def build_root_system(spec: CartanSpec | str) -> RootSystem:
    """Construct the root system: Cartan matrix, positive roots (the simple
    roots raised by simple reflections), rho, Coxeter numbers."""
    if isinstance(spec, str):
        spec = parse_cartan_spec(spec)
    rank = spec.rank

    # block-diagonal Cartan matrix
    A = [[0] * rank for _ in range(rank)]
    factor_of_index = []
    blocks = []
    offset = 0
    for f, (fam, r) in enumerate(spec.factors):
        sub = _cartan_matrix(fam, r)
        for i in range(r):
            for j in range(r):
                A[offset + i][offset + j] = sub[i][j]
        blocks.append(list(range(offset, offset + r)))
        factor_of_index.extend([f] * r)
        offset += r

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
    counts = [0] * len(blocks)
    for r in positive:
        first = next(i for i, x in enumerate(r.coords) if x)
        counts[factor_of_index[first]] += 2
    cox = []
    for block, nroots in zip(blocks, counts):
        c, rem = divmod(nroots, len(block))
        if rem:
            raise InvariantViolation(
                f"Coxeter identity c * rank = #roots failed for {spec}: "
                f"{nroots} roots on a factor of rank {len(block)}")
        cox.append(c)

    return RootSystem(
        spec=spec,
        rank=rank,
        cartan_matrix=A,
        positive_roots=positive,
        rho=tuple([1] * rank),
        coxeter_numbers=tuple(cox),
        factor_of_index=tuple(factor_of_index),
        _symmetrizer=tuple(_symmetrizer_for(A, blocks)),
        _root_coord_set=frozenset(roots)
        | frozenset(tuple(map(neg, c)) for c in roots),
    )
