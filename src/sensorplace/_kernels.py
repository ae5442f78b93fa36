"""The hot numeric kernel: the pairwise cosine-distance sum of one subset.

A subset's score is ``|1 - cos(u, v)|`` accumulated over all unordered
activity pairs. The kernel reads it off the activities' Gram matrix, so it
never touches the trajectories themselves. Pair terms are accumulated with
Kahan compensation in ascending (i, j) order, so results are reproducible
bit for bit, run to run.
"""

from __future__ import annotations

import math

import numpy as np


def pairwise_cosine_distance_sum(gram: np.ndarray) -> float:
    """Sum of |1 - cos| over all unordered activity pairs.

    ``gram`` is the (n, n) float64 matrix of dot products between the
    activities' vectors, with a positive diagonal.
    """
    g = gram.tolist()
    n = len(g)
    norms = [math.sqrt(g[k][k]) for k in range(n)]
    total = 0.0
    comp = 0.0
    for i in range(n - 1):
        row = g[i]
        norm_i = norms[i]
        for j in range(i + 1, n):
            term = abs(1.0 - row[j] / (norm_i * norms[j]))
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
    return total
