"""Weyl group enumeration, dotted action, and minimal coset representatives.

Every enumeration is one breadth-first search over the orbit of a weight
under left multiplication by simple reflections, tried in increasing index
order.  Read from right to left, the word it gives each element is the
lexicographically least of that element's reduced words.  The search
records parent pointers only; Weyl elements are built afterwards in BFS
order, and the orbit of an ample weight walked for the height kernels
builds none.

A Weyl element is a word in the simple reflections and its length.  It
acts on weights, on roots and, through rho, by the dotted action, by
replaying the word one simple reflection at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rootsys import InvariantViolation, Root, RootSystem

DEFAULT_CAP = 10**6


class GroupTooLarge(ValueError):
    """Enumeration refused because the group/quotient exceeds the cap."""


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as a word in the simple reflections (0-based
    indices), w = s_{word[0]} ... s_{word[-1]}, and its length.  It acts on
    weights and roots by replaying the word from right to left."""

    word: tuple[int, ...]
    length: int

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def act_weight(self, rs: RootSystem, mu) -> tuple:
        mu = tuple(mu)
        for i in reversed(self.word):
            mu = rs.simple_reflect_weight(i, mu)
        return mu

    def act_root(self, rs: RootSystem, beta: Root) -> Root:
        for i in reversed(self.word):
            beta = rs.simple_reflect_root(i, beta)
        return beta


def element_from_word(rs: RootSystem, word) -> WeylElement:
    """Build an element from any word, reduced or not.  The length is the
    number of positive roots beta with <beta^vee, w rho> < 0, which equals
    len(word) iff the word is reduced."""
    word = tuple(word)
    wrho = WeylElement(word, 0).act_weight(rs, rs.rho)
    length = sum(1 for beta in rs.positive_roots if rs._pairing(wrho, beta) < 0)
    return WeylElement(word, length)


_WEYL_ORDER = {
    "A": lambda n: math.factorial(n + 1),
    "B": lambda n: 2**n * math.factorial(n),
    "C": lambda n: 2**n * math.factorial(n),
    "D": lambda n: 2 ** (n - 1) * math.factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


def weyl_order(rs: RootSystem) -> int:
    """|W_G| from the classical closed forms, multiplied over the factors."""
    order = 1
    for fam, r in rs.spec.factors:
        order *= _WEYL_ORDER[fam](r)
    return order


def subgroup_order(rs: RootSystem, theta) -> int:
    """|W_Theta| for the standard Levi of type theta (0-based indices),
    as the size of the W_Theta-orbit of rho."""
    return len(_orbit_bfs(rs, rs.rho, sorted(theta), cap=None))


def enumerate_weyl(rs: RootSystem, cap: int = DEFAULT_CAP) -> list[WeylElement]:
    """Complete enumeration of W_G as the orbit of rho."""
    order = weyl_order(rs)
    if order > cap:
        raise GroupTooLarge(
            f"Weyl group of {rs.spec} has order {order}, exceeding the cap {cap}")
    return _elements(_orbit_bfs(rs, rs.rho, range(rs.rank), cap))


def _orbit_bfs(rs: RootSystem, xi, generators, cap, table=None, start=()):
    """The orbit of the weight xi under the subgroup W' generated by the
    given simple reflections, one node per point, in BFS order from xi.

    A node is (point, parent, letter, images): point = s_letter(parent's
    point), with parent the index of the parent's node (-1 for xi).  The
    node of w xi stands for the minimal-length representative w of
    w Stab(xi) in W'/Stab(xi), and w = s_letter * (parent's w).  Points are
    reached by left multiplication, and any left descent of a minimal
    representative is again one, so every point is reached through a
    reduced word.  If a table of permutations is given (table[i] is the
    permutation of some index set by s_i), images = table[letter] applied
    to the parent's images, starting from `start` at xi: the images under
    w of the indices in `start`."""
    nodes = [(xi, -1, -1, tuple(start))]
    seen = {xi}
    # the loop runs on over the nodes it appends: a FIFO queue
    for k, (point, _, _, images) in enumerate(nodes):
        for i in generators:
            point2 = rs.simple_reflect_weight(i, point)
            if point2 in seen:
                continue
            seen.add(point2)
            carried = images if table is None else \
                tuple([table[i][r] for r in images])
            nodes.append((point2, k, i, carried))
            if cap is not None and len(nodes) > cap:
                raise GroupTooLarge(
                    f"W/Stab({list(xi)}) has more than {cap} cosets, "
                    f"exceeding the cap {cap}")
    return nodes


def _elements(nodes) -> list[WeylElement]:
    """The Weyl elements of the nodes of _orbit_bfs, in the same order."""
    out = []
    for _, parent, i, _ in nodes:
        if parent < 0:
            out.append(WeylElement((), 0))
        else:
            w = out[parent]
            out.append(WeylElement((i,) + w.word, w.length + 1))
    return out


def _check_coset_count(rs: RootSystem, theta, count: int) -> None:
    order = weyl_order(rs)
    if order % count:
        raise InvariantViolation(
            f"the {count} cosets of W_Theta, theta={sorted(theta)}, "
            f"do not divide |W| = {order} for {rs.spec}")


@dataclass(frozen=True)
class CosetList:
    theta: frozenset
    reps: tuple[WeylElement, ...]


def coset_representatives(rs: RootSystem, theta, cap: int = DEFAULT_CAP) -> CosetList:
    """Minimal-length representatives of W_G / W_Theta (theta 0-based), one
    per coset, in BFS (length-first) order starting from the identity.

    Left cosets w W_Theta biject with the orbit of the weight xi (zero on
    theta, one elsewhere) whose stabilizer is exactly W_Theta, so only one
    element per coset is ever materialized."""
    theta = frozenset(theta)
    if not theta <= set(range(rs.rank)):
        raise ValueError(f"theta {sorted(theta)} out of range")
    xi = tuple(0 if i in theta else 1 for i in range(rs.rank))
    reps = _elements(_orbit_bfs(rs, xi, range(rs.rank), cap))
    _check_coset_count(rs, theta, len(reps))
    return CosetList(theta=theta, reps=tuple(reps))


def _root_index_table(rs: RootSystem, roots) -> list[list[int]]:
    """table[i][k] = the index in `roots` of s_i(roots[k]), for a list of
    simple-root coordinate tuples closed under the Weyl group."""
    index = {c: k for k, c in enumerate(roots)}
    table = []
    for i, row in enumerate(rs.cartan_matrix):
        perm = []
        for c in roots:
            # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i
            image = list(c)
            image[i] -= sum(a * x for a, x in zip(row, c))
            perm.append(index[tuple(image)])
        table.append(perm)
    return table


def coset_orbit(rs: RootSystem, lam, roots, start, cap: int = DEFAULT_CAP):
    """The W-orbit of a dominant weight lam, whose stabilizer is W_Theta
    with Theta = {i : lam_i = 0}: one node (w lam, parent, letter, images)
    of _orbit_bfs per coset w W_Theta, in the order of
    coset_representatives(rs, Theta).  `images` lists the indices in
    `roots` (all roots, as simple-root coordinates) of w(roots[k]) for k in
    `start`.  No Weyl element is built."""
    lam = tuple(lam)
    if not rs.is_dominant(lam):
        raise ValueError(f"weight {list(lam)} is not dominant")
    nodes = _orbit_bfs(rs, lam, range(rs.rank), cap,
                       _root_index_table(rs, roots), start)
    _check_coset_count(rs, {i for i, c in enumerate(lam) if c == 0},
                       len(nodes))
    return nodes


# -- dotted action ----------------------------------------------------


def dotted_act(rs: RootSystem, w: WeylElement, mu) -> tuple:
    """w . mu = w(mu + rho) - rho."""
    shifted = tuple(m + r for m, r in zip(mu, rs.rho))
    return tuple(x - r for x, r in zip(w.act_weight(rs, shifted), rs.rho))


def to_dominant_dotted(rs: RootSystem, lam):
    """Borel-Weil-Bott normalization.

    If rho + lam is regular, return (w, lam0) with w^{-1}(rho+lam) = rho+lam0
    strictly dominant; the cohomology degree is w.length.  If rho + lam is
    singular return None (all cohomology vanishes).
    """
    nu = tuple(m + r for m, r in zip(lam, rs.rho))
    word = []
    while True:
        if any(c == 0 for c in nu):
            return None
        for i in range(rs.rank):
            if nu[i] < 0:
                nu = rs.simple_reflect_weight(i, nu)
                word.append(i)
                break
        else:
            break
    # nu = s_{ik}...s_{i1}(rho+lam), so w = s_{i1}...s_{ik}
    w = element_from_word(rs, tuple(word))
    lam0 = tuple(c - r for c, r in zip(nu, rs.rho))
    return w, lam0


def longest_element(rs: RootSystem) -> WeylElement:
    """The unique element of maximal length (maps Sigma+ to Sigma-): the
    element that reduces -rho to rho."""
    w0, _ = to_dominant_dotted(rs, tuple(-2 * r for r in rs.rho))
    if w0.length != rs.num_positive_roots:
        raise InvariantViolation(
            f"w0 of {rs.spec} has length {w0.length}, "
            f"not |Sigma+| = {rs.num_positive_roots}")
    return w0
