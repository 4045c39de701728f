"""Weyl group enumeration, dotted action, and minimal coset representatives.

Every enumeration is one length-first walk, `orbit`, with the parent rule
of Moody and Patera (Bull. AMS 7, 1982): the parent of an orbit point nu
that is not dominant is s_j nu, j the least index with nu_j < 0.  So no
visited set is kept, and the word w = s_j * (parent's w) of each element,
read from left to right, is the lexicographically least of its reduced
words.  The walk records parent links only; Weyl elements are built
afterwards, and the orbit of an ample weight walked for the height kernels
builds none.

A Weyl element is a word in the simple reflections and its length.  It
acts on weights, on roots and, through rho, by the dotted action, by
replaying the word one simple reflection at a time.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import add, sub

from .rootsys import InvariantViolation, Root, RootSystem, one_based

DEFAULT_CAP = 10**6


class GroupTooLarge(ValueError):
    """Enumeration refused because the group/quotient exceeds the cap."""


class WeylElement:
    """A Weyl group element as a word in the simple reflections (0-based
    indices), w = s_{word[0]} ... s_{word[-1]}, and its length.  It acts on
    weights and roots by replaying the word from right to left."""

    __slots__ = ("word", "length")

    def __init__(self, word: tuple[int, ...], length: int):
        self.word = word
        self.length = length

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


def weyl_order(rs: RootSystem) -> int:
    """|W_G|, the product of the degrees m_i + 1.  The exponents m_i are the
    partition conjugate to the numbers of positive roots of each height
    (Kostant 1959); for a product too, since the conjugate of a sum of
    partitions is the union of the conjugates."""
    per_height = Counter(beta.height() for beta in rs.positive_roots)
    return math.prod(1 + sum(n >= i for n in per_height.values())
                     for i in range(1, rs.rank + 1))


def enumerate_weyl(rs: RootSystem, cap: int = DEFAULT_CAP) -> list[WeylElement]:
    """Complete enumeration of W_G as the orbit of rho."""
    order = weyl_order(rs)
    if order > cap:
        raise GroupTooLarge(
            f"Weyl group of {rs.spec} has order {order}, exceeding the cap {cap}")
    _, links = orbit(rs, [rs.rho], cap)
    return _elements(links)


def orbit(rs: RootSystem, seeds, cap: int):
    """The W-orbits of the seeds (dominant tuples, no two in one orbit):
    (points, links), the seeds first, then length-first.  links[n] =
    (parent, letter) with points[n] = s_letter(points[parent]), and
    (-1, -1) for a seed.  The point w xi stands for the minimal-length
    representative w = s_letter * (parent's w) of w Stab(xi) in W/Stab(xi).
    GroupTooLarge once there are more than cap points."""
    A = rs.cartan_matrix
    moves = rs._neighbours
    ranks = range(rs.rank)
    # p has the child s_i p iff p_i > 0 and p_k >= p_i A[k][i] for every
    # k < i.  steps[l] lists the i to try on a point whose letter is l, with
    # the k to check: p_k >= 0 for k < l, so an i < l needs none, and
    # p_l < 0, so an i > l must be a neighbour of l.  The last entry, for
    # the letter -1, is a seed's, which is dominant.
    steps = [[(i, [(k, A[k][i]) for k in range(i)] if i > l else (),
               moves[i]) for i in ranks if i < l or i > l and A[l][i]]
             for l in ranks] + [[(i, (), moves[i]) for i in ranks]]
    points = list(seeds)
    links = [(-1, -1)] * len(seeds)
    # the loop runs on over the points it appends: a FIFO queue
    for n, p in enumerate(points):
        for i, lower, neighbours in steps[links[n][1]]:
            pi = p[i]
            if pi <= 0:
                continue
            for k, a in lower:  # a loop, not all(): this is the hot path
                if p[k] < pi * a:
                    break
            else:
                child = list(p)
                child[i] = -pi
                for k, a in neighbours:
                    child[k] -= pi * a
                points.append(tuple(child))
                links.append((n, i))
        if len(points) > cap:
            raise GroupTooLarge(f"the orbits of {seeds} have more than "
                                f"{cap} points, exceeding the cap {cap}")
    return points, links


def _elements(links) -> list[WeylElement]:
    """The Weyl elements of the points of `orbit`, from its links."""
    out = []
    for parent, i in links:
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
            f"the {count} cosets of W_Theta, "
            f"theta={one_based(theta)}, "
            f"do not divide |W| = {order} for {rs.spec}")


def coset_representatives(rs: RootSystem, theta, cap: int = DEFAULT_CAP) -> tuple:
    """Minimal-length representatives of W_G / W_Theta (theta 0-based,
    checked by RootSystem.check_theta), one per coset, in the length-first
    order of `orbit` starting from the identity.

    Left cosets w W_Theta biject with the orbit of the weight xi (zero on
    theta, one elsewhere) whose stabilizer is exactly W_Theta, so only one
    element per coset is ever materialized."""
    theta = rs.check_theta(theta)
    xi = tuple(0 if i in theta else 1 for i in range(rs.rank))
    _, links = orbit(rs, [xi], cap)
    reps = _elements(links)
    _check_coset_count(rs, theta, len(reps))
    return tuple(reps)


# -- dotted action ----------------------------------------------------


def dotted_act(rs: RootSystem, w: WeylElement, mu) -> tuple:
    """w . mu = w(mu + rho) - rho."""
    shifted = tuple(m + r for m, r in zip(mu, rs.rho))
    return tuple(x - r for x, r in zip(w.act_weight(rs, shifted), rs.rho))


def to_dominant_dotted(rs: RootSystem, lam):
    """Borel-Weil-Bott normalization.

    If rho + lam is regular, return (w, lam0) with w^{-1}(rho+lam) = rho+lam0
    strictly dominant; the cohomology degree is w.length.  If rho + lam is
    singular return None (all cohomology vanishes).  ValueError unless lam
    has one coordinate per simple root.
    """
    moves = rs._neighbours
    nu = list(map(add, rs.check_weight(lam), rs.rho))
    word = []
    while True:
        # one scan for the least i with nu_i <= 0.  A zero coordinate, here
        # or on the way, means rho + lam is singular; while none appears,
        # the least nonpositive coordinate is the least negative one
        for i, c in enumerate(nu):
            if c <= 0:
                break
        else:
            break
        if not c:
            return None
        nu[i] = -c
        for k, a in moves[i]:
            nu[k] -= c * a
        word.append(i)
    # nu = s_{ik}...s_{i1}(rho+lam), so w = s_{i1}...s_{ik}; each step
    # reflects in a wall that nu lies beyond, so the word is reduced
    w = WeylElement(tuple(word), len(word))
    lam0 = tuple(map(sub, nu, rs.rho))
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


def w0_negates(rs: RootSystem, y) -> bool:
    """True iff w0 Y = -Y for the coweight Y with alpha_i(Y) = y[i], in exact
    arithmetic: replay a reduced word of w0 on Y, with (s_i Y)(alpha_j) =
    Y(s_i alpha_j) = y_j - A[i][j] y_i.  w0 is an involution, so the word
    may be read in either direction.  This holds for Y = rho^vee in every
    type, and for every Y when -1 is in W."""
    A = rs.cartan_matrix
    image = list(y)
    for i in longest_element(rs).word:
        yi = image[i]
        for j, a in enumerate(A[i]):
            image[j] -= a * yi
    return all(u == -v for u, v in zip(image, y))
