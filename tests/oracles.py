"""Slow, independent twins of library algorithms, for tests only."""

from __future__ import annotations


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
