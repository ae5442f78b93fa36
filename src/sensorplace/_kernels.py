"""The hot numeric kernel: the pairwise cosine-distance sum of subsets.

A subset's score is ``|1 - cos(u, v)|`` accumulated over all unordered
activity pairs. The kernel reads it off the activities' Gram matrix, so it
never touches the trajectories themselves. It scores a stack of Gram
matrices, one per subset, in one pass: the pair terms of every matrix are
computed at once, then accumulated with Kahan compensation in ascending
(i, j) order, each step one elementwise operation across the stack. IEEE
``+ - * / sqrt abs`` round the same in numpy as in Python floats, so every
score has the bits of a one-matrix-at-a-time loop, the same in every run.
"""

from __future__ import annotations

import numpy as np


def pairwise_cosine_distance_sum(gram: np.ndarray) -> np.ndarray:
    """Sum of |1 - cos| over all unordered activity pairs, per matrix.

    ``gram`` is an ``(m, n, n)`` float64 stack of m Gram matrices of the
    activities' dot products, each with a positive diagonal. Returns the
    ``(m,)`` sums, one per matrix.
    """
    m, n, _ = gram.shape
    # one row per matrix entry, one column per matrix: each row is contiguous
    flat = gram.reshape(m, n * n).T
    norms = np.sqrt(flat[:: n + 1])
    first, second = np.triu_indices(n, 1)
    terms = np.abs(1.0 - flat[first * n + second] / (norms[first] * norms[second]))
    total = np.zeros(flat.shape[1])
    comp = np.zeros_like(total)
    y = np.empty_like(total)
    t = np.empty_like(total)
    for term in terms:
        np.subtract(term, comp, out=y)
        np.add(total, y, out=t)
        np.subtract(t, total, out=comp)
        np.subtract(comp, y, out=comp)
        total, t = t, total
    return total
