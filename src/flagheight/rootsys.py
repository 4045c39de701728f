"""Root systems of all Cartan types, with exact integer/rational pairings.

Conventions (fixed once, used everywhere):

* Weights are integer tuples in the fundamental-weight basis, so the
  pairing with a simple coroot is just a coordinate lookup.
* Roots carry three integer tuples: their simple-root coordinates, the
  simple-coroot coordinates of their coroot and their fundamental-weight
  coordinates.  All three are maintained through the reflection closure,
  so no inner product or root length is ever needed to evaluate
  <beta^vee, mu>, and no root is ever converted to a weight.
* Simple roots are numbered 1..rank in the Bourbaki ordering per factor
  (chains run left to right; in B_n the last root is short, in C_n long,
  in D_n/E_n the branch node follows Bourbaki, in G2 the first root is
  short).  `_FAMILIES` decides this, one row per family, and
  `numbering_table` prints it.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from operator import mul

# A Dynkin family at rank n, simple roots 0-based in Bourbaki's numbering:
# rank_ok(n), whether it exists at rank n; edges(n), its Dynkin edges
# {i, j}; lengths(n), the root lengths d_i = (alpha_i, alpha_i) / 2 in the
# least integral scale; and note, the text of `numbering_table`
_Family = namedtuple("_Family", "rank_ok edges lengths note")


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


class CartanSpec:
    """An ordered product of simple factors, e.g. B2 x A1."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[str, int], ...]):
        if not factors:
            raise InvalidCartanSpec("empty Cartan spec")
        for fam, rank in factors:
            if fam not in _FAMILIES:
                raise InvalidCartanSpec(f"unknown family {fam!r}")
            if not _FAMILIES[fam].rank_ok(rank):
                raise InvalidCartanSpec(f"rank {rank} not allowed for family {fam}")
        self.factors = factors

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
        try:
            factors.append((m.group(1).upper(), int(m.group(2))))
        except ValueError:  # more digits than the interpreter's limit
            raise InvalidCartanSpec(
                f"rank of factor {m.group(1)} has {len(m.group(2))} digits, "
                "beyond the interpreter's digit limit") from None
    return CartanSpec(tuple(factors))


class Root:
    """A root, stored in the simple-root basis together with its coroot
    and its weight.

    `coords` are the simple-root coordinates, `coroot` the simple-coroot
    coordinates of the associated coroot, both all >= 0 or all <= 0;
    `weight` the fundamental-weight coordinates, A @ coords.
    """

    __slots__ = ("coords", "coroot", "weight")

    def __init__(self, coords: tuple[int, ...], coroot: tuple[int, ...],
                 weight: tuple[int, ...]):
        self.coords = coords
        self.coroot = coroot
        self.weight = weight

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


class RootSystem:
    """The root system of a Cartan spec, as build_root_system forms it.
    _neighbours[i] lists the (k, A[k][i]) with k != i and A[k][i] != 0:
    s_i negates coordinate i of a weight mu and subtracts mu_i A[k][i]
    from each such coordinate k."""

    __slots__ = ("spec", "rank", "cartan_matrix", "positive_roots", "rho",
                 "coxeter_numbers", "_symmetrizer", "_neighbours")

    def __init__(self, spec: CartanSpec,
                 cartan_matrix: tuple[tuple[int, ...], ...],
                 positive_roots: tuple[Root, ...],
                 coxeter_numbers: tuple[int, ...],
                 symmetrizer: tuple[int, ...],
                 neighbours: tuple[tuple[tuple[int, int], ...], ...]):
        self.spec = spec
        self.rank = spec.rank
        self.cartan_matrix = cartan_matrix
        self.positive_roots = positive_roots
        self.rho = (1,) * self.rank
        self.coxeter_numbers = coxeter_numbers  # one per simple factor
        self._symmetrizer = symmetrizer  # d_i with d_i A[i][j] symmetric
        self._neighbours = neighbours

    # -- basics -------------------------------------------------------

    @property
    def coxeter_number(self) -> int:
        """Coxeter number; for products the maximum over the factors."""
        return max(self.coxeter_numbers)

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    # -- coordinate conversions ---------------------------------------

    def check_weight(self, mu) -> tuple:
        """mu as a tuple; ValueError unless it has one coordinate per
        simple root."""
        mu = tuple(mu)
        if len(mu) != self.rank:
            raise ValueError(
                f"weight {mu} has {len(mu)} coordinates, rank is {self.rank}")
        return mu

    def check_theta(self, theta) -> frozenset:
        """theta, 0-based simple indices, as a frozenset; ValueError naming
        the first index that is not a simple root, in the 1-based numbering
        of the CLI."""
        theta = tuple(theta)
        for i in theta:
            if not 0 <= i < self.rank:
                raise ValueError(
                    f"theta index {i + 1} out of range 1..{self.rank}")
        return frozenset(theta)

    def weight_to_root_coords(self, mu) -> tuple[Fraction, ...]:
        """Fundamental-weight coordinates -> (rational) simple-root
        coordinates, through d A^{-1} formed on each call."""
        d, scaled = _scaled_inverse(self.cartan_matrix)
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
        """s_i(beta), transforming root, coroot and weight together: the
        root moves by <beta, alpha_i^vee> = beta.weight[i] along alpha_i."""
        rc = list(beta.coords)
        rc[i] -= beta.weight[i]
        cc = list(beta.coroot)
        cc[i] = -cc[i] - sum(cc[k] * a for k, a in self._neighbours[i])
        return Root(tuple(rc), tuple(cc),
                    self.simple_reflect_weight(i, beta.weight))

    # -- dominance ----------------------------------------------------

    def is_dominant(self, mu) -> bool:
        return min(mu) >= 0

    def check_dominant(self, mu) -> tuple:
        """mu as a tuple; ValueError unless it is a weight (check_weight)
        and dominant."""
        mu = self.check_weight(mu)
        if not self.is_dominant(mu):
            raise ValueError(f"weight {mu} is not dominant")
        return mu

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


def one_based(theta) -> list:
    """theta, 0-based simple indices, as the sorted 1-based list of the
    CLI, in which messages and output name it (see RootSystem.check_theta)."""
    return sorted(i + 1 for i in theta)


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
    # such steps.  The pairings are the fw coordinates of beta, its weight;
    # the Root is formed for new roots only, with <alpha_i, beta^vee> from
    # the nonzero entries of column i of A, which less the diagonal are
    # the neighbours of i.
    alpha_fw = [tuple(row[i] for row in A) for i in range(rank)]
    cols = [[(j, a) for j, a in enumerate(col) if a] for col in alpha_fw]
    roots = {}
    todo = []
    for i in range(rank):
        e = tuple(int(i == j) for j in range(rank))
        roots[e] = Root(e, e, alpha_fw[i])
        todo.append(roots[e])
    while todo:
        beta = todo.pop()
        c, fw = beta.coords, beta.weight
        for i, p in enumerate(fw):
            if p < 0:
                rc = c[:i] + (c[i] - p,) + c[i + 1:]
                if rc not in roots:
                    cv = beta.coroot
                    q = sum(cv[j] * a for j, a in cols[i])
                    gamma = Root(rc, cv[:i] + (cv[i] - q,) + cv[i + 1:],
                                 tuple(f - p * a
                                       for f, a in zip(fw, alpha_fw[i])))
                    roots[rc] = gamma
                    todo.append(gamma)
    positive = tuple(roots[c] for c in sorted(roots))
    neighbours = tuple(tuple((j, a) for j, a in col if j != i)
                       for i, col in enumerate(cols))

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

    return RootSystem(spec, A, positive, tuple(cox), tuple(symmetrizer),
                      neighbours)
