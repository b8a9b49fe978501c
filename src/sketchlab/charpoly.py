"""The one Faddeev-LeVerrier recurrence, generic over the trace API: traced
by :mod:`sketchlab.gjdemos`, and run exactly on :class:`.gjtrace.ExactBackend`
by the public functions, whose rank decisions are exact zero tests (no
threshold, no size limit) and whose results are rounded to float once.

Matrices of backend values are ``dtype=object`` numpy arrays, so ``@`` and
``np.trace`` run the values' own operators one at a time, row-major.  Build
each with ``dtype=object`` even of floats: on float64, ``@`` goes through
BLAS, which sums in another order than the traced program."""

from fractions import Fraction

import numpy as np

from .gjtrace import ExactBackend
from .linalg import as_matrix


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when the free coefficient of a matrix is exactly zero."""


class CharpolyOverflowError(OverflowError):
    """Raised when an exact result does not fit in a float."""


def _fl(tr, m):
    """``[c_1 .. c_k]`` of ``det(lambda*I - M)`` and ``B_k = -c_k M^{-1}``
    from ``B_1 = I, c_i = -tr(M B_i) / i, B_{i+1} = M B_i + c_i I``."""
    k = len(m)
    b = np.array([[tr.const(float(r == s)) for s in range(k)] for r in range(k)],
                 dtype=object)
    coeffs = []
    for i in range(1, k + 1):
        mb = m @ b
        coeffs.append(-np.trace(mb) / tr.const(i))
        if i < k:
            b = mb
            b.flat[::k + 1] += coeffs[-1]
    return coeffs, b


def _greedy(tr, rows):
    """Indices of the rows outside the span of the rows kept before them,
    and the ``_fl`` result of the kept rows' Gram matrix (None if none)."""
    kept, fl = [], None
    for idx in range(len(rows)):
        y = rows[kept + [idx]]
        out = _fl(tr, y @ y.T)
        c = out[0][-1]
        if not (tr.branch(c) & tr.branch(-c)):  # c != 0; & runs both
            kept.append(idx)
            fl = out
    return kept, fl


def _projection(tr, rows):
    """(numerator, denominator) of ``Y^T (Y Y^T)^{-1} Y``, Y the greedy
    basis of ``rows``, for the caller to divide last; zero over 1 if Y is
    empty."""
    idx, fl = _greedy(tr, rows)
    if not idx:
        d = rows.shape[1]
        return np.full((d, d), tr.const(0.0), dtype=object), tr.const(1.0)
    coeffs, b_last = fl
    return rows[idx].T @ -b_last @ rows[idx], coeffs[-1]


def _exact(m, square=True):
    """Integer-valued Fractions ``D M``, D the largest denominator in M."""
    m = as_matrix(m)
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    exact = np.frompyfunc(Fraction, 1, 1)(m)
    scale = max(v.denominator for v in exact.flat)
    return exact * scale, scale


def _floats(x):
    try:
        return x.astype(float)
    except OverflowError:
        raise CharpolyOverflowError("exact value beyond float range") from None


def charpoly_coefficients(m: np.ndarray) -> np.ndarray:
    """``c_0 = 1, c_1 .. c_k`` of ``det(lambda*I - M)``, ``c_i(D M) / D^i``."""
    rows, scale = _exact(m)
    coeffs, _ = _fl(ExactBackend(), rows)
    return _floats(np.array([1] + [c / scale**i for i, c in enumerate(coeffs, 1)],
                            dtype=object))


def charpoly_free_coeff(m: np.ndarray) -> float:
    """Free coefficient ``(-1)^k det(M)``, nonzero iff M has full rank."""
    return float(charpoly_coefficients(m)[-1])


def is_numerically_singular(m: np.ndarray) -> bool:
    """Whether ``det(M)`` is exactly zero, at any scale and any size."""
    return _fl(ExactBackend(), _exact(m)[0])[0][-1] == 0


def charpoly_inverse(m: np.ndarray) -> np.ndarray:
    """``M^{-1} = -D B_k / c_k``, each entry correctly rounded."""
    rows, scale = _exact(m)
    coeffs, b = _fl(ExactBackend(), rows)
    if coeffs[-1] == 0:
        raise SingularMatrixError("free coefficient is exactly zero")
    return _floats(-b * scale / coeffs[-1])


def greedy_row_basis(z: np.ndarray) -> np.ndarray:
    """Rows of ``z`` outside the exact span of the rows kept before them."""
    return as_matrix(z)[_greedy(ExactBackend(), _exact(z, square=False)[0])[0]]


def projection_rowspace(z: np.ndarray) -> np.ndarray:
    """``Y^T (Y Y^T)^{-1} Y = pinv(z) @ z``, ``Y = greedy_row_basis(z)``."""
    numer, denom = _projection(ExactBackend(), _exact(z, square=False)[0])
    return _floats(numer / denom)
