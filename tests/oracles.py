"""Slow, independent twins of library algorithms, for tests only."""

from __future__ import annotations

from flagheight.rootsys import InvariantViolation
from flagheight.weyl import orbit, weyl_order


def positive_roots_by_closure(cartan_matrix) -> set:
    """Simple-root coordinates of the positive roots: the closure of the
    simple roots under every simple reflection, in either direction,
    keeping the roots whose coordinates are all >= 0.  The reflection is
    s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, with the pairing
    sum_j A[i][j] beta_j."""
    n = len(cartan_matrix)
    roots = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    todo = list(roots)
    while todo:
        beta = todo.pop()
        for i, row in enumerate(cartan_matrix):
            pairing = sum(a * b for a, b in zip(row, beta))
            image = tuple(b - pairing * (j == i) for j, b in enumerate(beta))
            if image not in roots:
                roots.add(image)
                todo.append(image)
    return {beta for beta in roots if min(beta) >= 0}


def dominant_representative(rs, mu, subset=None):
    """The dominant element of the W-orbit of mu (ordinary action), by
    reflecting in the least simple index with a negative coordinate until
    none is left; also the number of simple reflections applied, whose
    parity is sign(w)."""
    idx = tuple(range(rs.rank)) if subset is None else tuple(subset)
    mu = tuple(mu)
    count = 0
    while True:
        for i in idx:
            if mu[i] < 0:
                mu = rs.simple_reflect_weight(i, mu)
                count += 1
                break
        else:
            return mu, count


def freudenthal_by_dominant_lookup(rs, lam0, subset=None) -> dict:
    """The weight-multiplicity table of the irreducible with highest weight
    lam0 (of the Levi of `subset`), as freudenthal computed it before its
    root strings were looked up in its own orbit walk: the Freudenthal
    recursion over the dominant weights below lam0 finds the multiplicity
    of each weight on a root string at its dominant representative, then
    one weyl.orbit walk expands the dominant table.  Same keys in the same
    order as freudenthal."""
    lam0 = rs.check_weight(lam0)
    subset = tuple(range(rs.rank)) if subset is None else tuple(sorted(subset))
    d = rs._symmetrizer
    pos = []
    for b in rs.positive_roots:
        if all(i in subset for i, c in enumerate(b.coords) if c):
            fw = rs.root_to_weight(b.coords)
            bd = tuple(c * di for c, di in zip(b.coords, d))
            pos.append((b.coords, fw, bd, sum(x * f for x, f in zip(bd, fw))))

    below = {lam0: (0,) * rs.rank}
    frontier = [lam0]
    while frontier:
        nxt = []
        for mu in frontier:
            for coords, fw, _, _ in pos:
                nu = tuple(m - f for m, f in zip(mu, fw))
                if nu not in below and all(nu[i] >= 0 for i in subset):
                    below[nu] = tuple(x + c for x, c in zip(below[mu], coords))
                    nxt.append(nu)
        frontier = nxt

    dom_mult = {lam0: 1}
    for mu in sorted(below, key=lambda mu: sum(below[mu]))[1:]:
        acc = 0
        for _, fw, bd, step in pos:
            pair = sum(x * m for x, m in zip(bd, mu))
            nu = mu
            while True:
                nu = tuple(n + f for n, f in zip(nu, fw))
                pair += step
                nd, _ = dominant_representative(rs, nu, subset)
                if nd not in below:
                    break
                acc += dom_mult[nd] * pair
        denom = sum(c * di * (l + m + 2 * r) for c, di, l, m, r
                    in zip(below[mu], d, lam0, mu, rs.rho))
        if denom <= 0 or 2 * acc % denom:
            raise InvariantViolation(
                f"multiplicity of {mu} is {2 * acc}/{denom}")
        dom_mult[mu] = 2 * acc // denom

    seeds = list(dom_mult)
    points, links = orbit(rs, seeds, subset, weyl_order(rs) * len(seeds))
    mults = [dom_mult[mu] for mu in seeds]
    for parent, _ in links[len(seeds):]:
        mults.append(mults[parent])
    return dict(zip(points, mults))


def to_dominant_dotted_by_reflection(rs, lam):
    """(word, lam0), or None if rho + lam is singular, by the rule that
    to_dominant_dotted follows: stop at the first zero coordinate of
    nu = rho + lam, else reflect nu in the least simple index with a
    negative coordinate, rebuilding the tuple each step."""
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
            return tuple(word), tuple(c - r for c, r in zip(nu, rs.rho))
