"""Synthetic instance generators shared by the CLI, demos, and tests."""

import numpy as np

from .amg import AMGProblem
from .linalg import fro_sq
from .sketching import random_sparse_sketch


def random_unit_matrix(rng, n: int, d: int) -> np.ndarray:
    """Gaussian matrix rescaled to unit squared Frobenius norm."""
    a = rng.standard_normal((n, d))
    return a / np.sqrt(fro_sq(a))


def random_instance(rng, n_range=(3, 9), d_range=(3, 7), m_max=4, k_max=3):
    """Random (A, sketch, k) triple with k < d and k <= m.

    The sketch pattern and its +-1 slot values are sampled obliviously
    (:func:`~sketchlab.sketching.random_sparse_sketch`).
    """
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    d = int(rng.integers(d_range[0], d_range[1] + 1))
    k = int(rng.integers(1, min(k_max, d - 1, n) + 1))
    m = int(rng.integers(k, min(m_max, n) + 1))
    s = int(rng.integers(1, m + 1))
    a = random_unit_matrix(rng, n, d)
    return a, random_sparse_sketch(m, n, s, rng), k


def spiked_dataset(rng, count: int, n: int, d: int, k: int,
                   noise: float = 0.1) -> list[np.ndarray]:
    """Matrices sharing a fixed rank-k row space plus Gaussian noise.

    Each sample is ``signal + noise * perturbation`` with both parts
    Frobenius-normalized before mixing, then rescaled to unit norm.  The
    signal row space is drawn once per call from ``rng``.
    """
    basis = np.linalg.qr(rng.standard_normal((d, k)))[0].T  # k x d rows
    out = []
    for _ in range(count):
        coeffs = rng.standard_normal((n, k))
        signal = coeffs @ basis
        signal /= np.sqrt(fro_sq(signal))
        perturb = rng.standard_normal((n, d))
        perturb /= np.sqrt(fro_sq(perturb))
        a = signal + noise * perturb
        out.append(a / np.sqrt(fro_sq(a)))
    return out


def aggregation_prolongation(rng, n: int, m: int) -> np.ndarray:
    """Aggregation pattern: each fine index maps to one coarse index, every
    coarse index covered, value 1 at each nonzero."""
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    groups = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
    groups = rng.permutation(groups)
    p = np.zeros((n, m))
    p[np.arange(n), groups] = 1.0
    return p


def random_amg_problem(rng, n: int, m: int, s1: int, s2: int,
                       noise: float = 0.1) -> AMGProblem:
    """Diagonally dominated random system with an aggregation prolongation:
    ``A = diag(U[1,2]) + noise * G``."""
    a = np.diag(rng.uniform(1.0, 2.0, n)) + noise * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    p = aggregation_prolongation(rng, n, m)
    x0 = rng.standard_normal(n)
    return AMGProblem(a, b, p, s1, s2, x0)
