"""The hot numeric kernel: the pairwise cosine-distance sum of subsets.

A subset's score is ``|1 - cos(u, v)|`` accumulated over all unordered
activity pairs. The kernel reads it off the activities' Gram matrix, so it
never touches the trajectories themselves. It scores a whole stack of Gram
matrices in one pass: the pair terms of every matrix are computed at once,
then accumulated with Kahan compensation in ascending (i, j) order, each
step one elementwise operation across the stack. IEEE ``+ - * / sqrt abs``
round the same in numpy as in Python floats, so every score is the same
bits as a one-matrix-at-a-time loop, and reproducible run to run.
"""

from __future__ import annotations

import numpy as np


def pairwise_cosine_distance_sum(gram: np.ndarray):
    """Sum of |1 - cos| over all unordered activity pairs.

    ``gram`` is a ``(..., n, n)`` float64 stack of the activities' dot
    product matrices, each with a positive diagonal. Returns a float for a
    single ``(n, n)`` matrix, otherwise an array of shape ``gram.shape[:-2]``.
    """
    n = gram.shape[-1]
    # one row per matrix entry, one column per matrix: each row is contiguous
    flat = gram.reshape(-1, n * n).T
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
    if gram.ndim == 2:
        return float(total[0])
    return total.reshape(gram.shape[:-2])
