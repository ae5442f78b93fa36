"""The pairwise cosine-distance kernel, read off a Gram matrix."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import pairwise_distance_sum_ref
from sensorplace import _kernels


def _random_mat(seed, n=None, m=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 8))
    m = m or int(rng.integers(2, 60))
    return np.ascontiguousarray(rng.normal(size=(n, m)) + 1.0)


def _gram(mat):
    """The stack of one Gram matrix of ``mat``'s rows."""
    return np.einsum("ik,jk->ij", mat, mat)[None]


@given(st.integers(0, 400))
def test_kernel_matches_reference(seed):
    mat = _random_mat(seed)
    [got] = _kernels.pairwise_cosine_distance_sum(_gram(mat))
    want = pairwise_distance_sum_ref([row for row in mat])
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@given(st.integers(0, 200))
def test_kernel_is_bitwise_repeatable(seed):
    gram = _gram(_random_mat(seed))
    first, second = (_kernels.pairwise_cosine_distance_sum(gram).tolist() for _ in range(2))
    assert first == second


def test_accumulation_stays_accurate_over_many_tiny_terms():
    # many near-identical rows: each pair term is ~1e-16, so naive float
    # summation noise would be visible against math.fsum. The terms are
    # rounding noise of the Gram matrix itself, so the exact sum is taken
    # over the same matrix's terms.
    rng = np.random.default_rng(7)
    base = rng.normal(size=40)
    mat = np.tile(base, (50, 1)) + rng.normal(scale=1e-9, size=(50, 40))
    [gram] = _gram(mat)
    [got] = _kernels.pairwise_cosine_distance_sum(gram[None])
    norms = np.sqrt(np.diagonal(gram))
    terms = [
        abs(1.0 - float(gram[i, j]) / (norms[i] * norms[j]))
        for i in range(49)
        for j in range(i + 1, 50)
    ]
    want = math.fsum(terms)
    assert got == pytest.approx(want, rel=1e-6, abs=1e-12)
