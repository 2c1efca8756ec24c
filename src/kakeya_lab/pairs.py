"""The block policy and pair-distance primitive of every dense O(N^2) pair kernel.
Where a sum runs across row blocks the partition is part of the result."""

import numpy as np

PAIR_BUDGET = 4e6  # entries of one block of a pair table
WIDE_BUDGET = 2e6  # pairs of one block when each pair carries more than one number


def row_blocks(n_rows: int, n_cols: int, budget: float = PAIR_BUDGET):
    """Yield (start, stop) of consecutive blocks of budget // n_cols rows (at least one)."""
    step = max(1, int(budget // max(n_cols, 1)))
    for s in range(0, n_rows, step):
        yield s, min(s + step, n_rows)


def sq_dists(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Squared distances |rows[i] - cols[j]|^2; `cols` is (k, dim), or (len(rows), k, dim)
    with one point per pair.  Its np.sqrt is bit-equal to np.linalg.norm of the differences."""
    diff = rows[:, None, :] - cols
    return np.add.reduce(np.square(diff, out=diff), axis=2)


def weighted_pair_sum(points, weights, values, integrand) -> float:
    """Sum of w_i w_j K_ij over all pairs, K = integrand(|x_i - x_j|^2, |f_i - f_j|)."""
    total = 0.0
    for s, e in row_blocks(len(points), len(points)):
        table = integrand(sq_dists(points[s:e], points), np.sqrt(sq_dists(values[s:e], values)))
        total += float(np.einsum("ij,i,j->", table, weights[s:e], weights))
    return total
