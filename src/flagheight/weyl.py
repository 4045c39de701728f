"""Weyl group enumeration, dotted action, and minimal coset representatives.

Every enumeration is a length-first walk, `orbit`, with the parent rule
of Moody and Patera (Bull. AMS 7, 1982): the parent of an orbit point nu
that is not dominant is s_j nu, j the least index with nu_j < 0.  So no
visited set is kept, and the word w = s_j * (parent's w) of each element,
read from left to right, is the lexicographically least of its reduced
words.  The walk records parent links only, and seeds with the same zero
coordinates replay one walk's links; Weyl elements are built afterwards,
and the orbit of an ample weight walked for the height kernels builds
none.

A Weyl element is a word in the simple reflections and its length.  It
acts on weights, on roots and, through rho, by the dotted action, by
replaying the word one simple reflection at a time.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import islice
from operator import add, mul, sub

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


def _order(roots) -> int:
    """The order of the Weyl group of a list of positive roots: the
    product of the degrees m_i + 1, the exponents m_i the partition
    conjugate to the numbers of roots of each height, the first number the
    rank (Kostant 1959); for a product too, since the conjugate of a sum of
    partitions is the union of the conjugates."""
    per_height = Counter(beta.height() for beta in roots)
    return math.prod(1 + sum(n >= i for n in per_height.values())
                     for i in range(1, per_height[1] + 1))


def weyl_order(rs: RootSystem) -> int:
    """|W_G|, by `_order` on the positive roots."""
    return _order(rs.positive_roots)


def enumerate_weyl(rs: RootSystem, cap: int = DEFAULT_CAP) -> list[WeylElement]:
    """Complete enumeration of W_G as the orbit of rho."""
    return _elements(coset_orbit(rs, rs.rho, cap)[1])


def coset_orbit(rs: RootSystem, xi, cap: int):
    """`orbit(rs, [xi])` for a dominant xi: one point per coset of
    W / W_Theta, theta the zero set of xi.  W_Theta is the Weyl group of
    the positive roots orthogonal to xi, whose heights there are their
    heights in W, so |W| / |W_Theta| is counted first: GroupTooLarge above
    cap before any point is built, InvariantViolation unless the walk
    finds exactly that many."""
    theta = [i for i, x in enumerate(xi) if not x]
    count = weyl_order(rs) // _order(
        [b for b in rs.positive_roots if not sum(map(mul, b.coords, xi))])
    if count > cap:
        raise GroupTooLarge(f"{rs.spec} has {count} cosets of W_Theta, theta="
                            f"{one_based(theta)}, exceeding the cap {cap}")
    points, links = orbit(rs, [xi])
    if len(points) != count:
        raise InvariantViolation(
            f"the walk found {len(points)} cosets of W_Theta, theta="
            f"{one_based(theta)}, not |W| / |W_Theta| = {count} for {rs.spec}")
    return points, links


def orbit(rs: RootSystem, seeds):
    """The W-orbits of the seeds (dominant tuples, no two in one orbit):
    (points, links), one block per seed in the order of seeds, the seed
    first and then its orbit length-first.  links[n] = (parent, letter)
    with points[n] = s_letter(points[b + parent]), b the index of the seed
    of n's block, and (-1, -1) for a seed; with one seed, b = 0.  The point
    w xi stands for the minimal-length representative
    w = s_letter * (parent's w) of w Stab(xi) in W/Stab(xi).

    The tree of links below a dominant xi depends only on which xi_k are
    zero: the sign of (w xi)_k = <xi, w^-1 alpha_k^vee> depends only on w
    and on that zero set.  So the tree is walked for the first seed of each
    zero set, and every later seed of that set replays its links, with no
    step scan and no wall check; their blocks share the link tuples."""
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
    points, links, trees = [], [], {}
    for seed in seeds:
        block = [seed]
        # the zero set, or False for a regular seed, which needs no tuple
        support = 0 in seed and tuple(map(bool, seed))
        tree = trees.get(support)
        if tree is None:
            tree = trees[support] = [(-1, -1)]
            # the loop runs on over the points it appends: a FIFO queue
            for n, p in enumerate(block):
                for i, lower, neighbours in steps[tree[n][1]]:
                    pi = p[i]
                    if pi <= 0:
                        continue
                    for k, a in lower:  # a loop, not all(): the hot path
                        if p[k] < pi * a:
                            break
                    else:
                        child = list(p)
                        child[i] = -pi
                        for k, a in neighbours:
                            child[k] -= pi * a
                        block.append(tuple(child))
                        tree.append((n, i))
        else:
            for parent, i in islice(tree, 1, None):
                p = block[parent]
                pi = p[i]
                child = list(p)
                child[i] = -pi
                for k, a in moves[i]:
                    child[k] -= pi * a
                block.append(tuple(child))
        links += tree
        if points:
            points += block
        else:  # the first block is not copied
            points = block
    return points, links


def _elements(links) -> list[WeylElement]:
    """The Weyl elements of the points of one seed's `orbit`, from its
    links."""
    out = []
    for parent, i in links:
        if parent < 0:
            out.append(WeylElement((), 0))
        else:
            w = out[parent]
            out.append(WeylElement((i,) + w.word, w.length + 1))
    return out


def coset_representatives(rs: RootSystem, theta, cap: int = DEFAULT_CAP) -> tuple:
    """Minimal-length representatives of W_G / W_Theta (theta 0-based,
    checked by RootSystem.check_theta), one per coset, in the length-first
    order of `orbit` starting from the identity.

    Left cosets w W_Theta biject with the orbit of the weight xi (zero on
    theta, one elsewhere) whose stabilizer is exactly W_Theta, so only one
    element per coset is ever materialized."""
    theta = rs.check_theta(theta)
    xi = tuple(0 if i in theta else 1 for i in range(rs.rank))
    return tuple(_elements(coset_orbit(rs, xi, cap)[1]))


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
