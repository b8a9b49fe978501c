"""Dense real-matrix core: validated storage, SVD, truncation, pseudo-inverse.

Routines operate on float64 ``numpy`` arrays.  ``svd``, ``best_rank_k``
and ``fro_sq`` also take a stack ``(..., n, d)`` of matrices and work on
each one.  Singular values at or below ``RANK_RTOL`` times the largest one
of their matrix, and all of those of a zero matrix, count as zero: the
package's one numerical rank rule, which ``_kept`` applies.  SVD and QR
call numpy's LAPACK gufuncs ``svd_s``, ``svd`` (values alone), ``qr_r_raw``
and ``qr_reduced`` directly.  ``_check_int``, ``_check_positive``,
``_check_seed`` and ``_check_array`` are its one rule for counts, rates,
seeds and arrays.  Every public entry point checks each array argument
once; ``as_matrix`` (``charpoly``, ``matio``) converts lists first.
"""

from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

RANK_RTOL = 1e-10

# numpy's reduced QR (geqrf, orgqr) and thin and values-only SVDs (gesdd) run
# these gufuncs; binding them here fails at import on a numpy without them
_QR_R_RAW, _QR_REDUCED = _umath_linalg.qr_r_raw, _umath_linalg.qr_reduced
_SVD_THIN, _SVD_VALUES = _umath_linalg.svd_s, _umath_linalg.svd


def _check_int(name, value, least=None):
    """Raise ValueError naming ``name`` unless ``value`` is an integer (a
    bool is not one) and, when ``least`` is given, at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_type(name, value, cls):
    """Raise TypeError naming ``name`` and ``cls`` unless ``value`` is one."""
    if not isinstance(value, cls):
        a = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} must be {a} {cls.__name__}, got {type(value).__name__}")


def _check_positive(name, value):
    """Raise ValueError naming ``name`` unless ``value`` is finite and > 0
    (a bool is not a rate)."""
    if isinstance(value, (bool, np.bool_)) or not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _check_seed(value):
    """Raise ValueError unless ``value`` is a seed: an integer >= 0 (a bool
    is not one), None or a ``numpy`` Generator."""
    if value is None or isinstance(value, np.random.Generator):
        return
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 0):
        raise ValueError(f"seed must be an integer >= 0, None or a numpy "
                         f"Generator, got {value!r}")


def _check_array(name, a, shape=None):
    """Raise naming ``name`` unless ``a`` is a numpy array of a real dtype
    (else TypeError), of ``shape`` (lengths, None for any; by default
    ndim >= 2) and with finite entries (else ValueError)."""
    if not isinstance(a, np.ndarray):
        raise TypeError(f"{name} must be a numpy array, got {type(a).__name__}")
    if a.dtype.kind not in "biuf":
        raise TypeError(f"{name} must have a real dtype, got {a.dtype}")
    if shape is None:
        if a.ndim < 2:
            raise ValueError(f"{name} must have ndim >= 2, got ndim={a.ndim}")
    elif a.ndim != len(shape) or any(w not in (None, n)
                                     for w, n in zip(shape, a.shape)):
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if a.dtype.kind == "f" and np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError(f"{name} contains non-finite entries")


def _check_fro_sq(name, a):
    """The squared Frobenius norm of the finite array ``a`` (of a stack's
    matrices together); raise ValueError naming ``name`` if it is beyond
    float range."""
    total = np.vdot(a, a)  # unlike matmul, np.vdot does not warn
    if total == np.inf:
        raise ValueError(f"{name} is too large: its squared Frobenius norm overflows")
    return total


def _own(obj, **fields):
    """Set ``fields`` on the frozen dataclass ``obj``, each array read-only."""
    for name, arr in fields.items():
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def as_matrix(a) -> np.ndarray:
    """Validate and convert ``a`` to a 2-D, C-contiguous float64 array.

    Parameters
    ----------
    a : array_like
        Matrix data with positive dimensions.

    Returns
    -------
    ndarray
        Row-major float64 copy of the input.

    Raises
    ------
    TypeError, ValueError
        From ``_check_array`` (not a real 2-D finite matrix), or if the
        input has a zero dimension.
    """
    m = np.asarray(a)
    _check_array("matrix", m, (None, None))
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m.shape}")
    return np.array(m, dtype=np.float64, order="C")


class SvdResult(NamedTuple):
    """Rank-trimmed thin SVD: ``U @ diag(singular_values) @ V.T`` rebuilds
    the input.  ``U`` is n-by-r and ``V`` is d-by-r with orthonormal
    columns; ``singular_values`` is non-increasing with length r, the
    numerical rank.  For a stack, r is the largest rank in the stack and
    each matrix's columns past its own rank are zero."""

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


def _raise_svd_error(err, flag):
    raise LinAlgError("SVD did not converge")


def _kept(s: np.ndarray) -> np.ndarray:
    """Mask of the singular values ``s`` (sorted down) the rank rule keeps."""
    return s > RANK_RTOL * s[..., :1]


def _singular_values(a: np.ndarray) -> np.ndarray:
    """All singular values of a float64 matrix or stack, untrimmed."""
    with np.errstate(call=_raise_svd_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):  # as in np.linalg.svd
        return _SVD_VALUES(a, signature="d->d")


def svd(a: np.ndarray) -> SvdResult:
    """Singular value decomposition trimmed to the numerical rank.

    Values sigma <= RANK_RTOL * sigma_max are treated as zero and their
    singular vectors dropped.  An input without a nonzero entry yields
    empty factors before any factorization is attempted.  A stack
    ``(..., n, d)`` is factored in one LAPACK call, each matrix as on its
    own; its factors are trimmed to the largest rank in the stack, and
    each matrix's columns past its own rank are masked to zero.  The
    factors are float64, those of ``np.linalg.svd`` on the float64 input.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the underlying iteration fails to converge.
    """
    if not np.count_nonzero(a):
        lead = a.shape[:-2]
        return SvdResult(np.zeros(a.shape[:-1] + (0,)), np.zeros(lead + (0,)),
                         np.zeros(lead + (a.shape[-1], 0)))
    with np.errstate(call=_raise_svd_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        u, s, vh = _SVD_THIN(a, signature="d->ddd")
    # a plain matrix keeps its own branch: the masked stack path below gives
    # it the same factors, but takes a rank-2 3x7 call from 10.4 to 18.1 us
    # (2-vCPU box, one BLAS thread), and once cost proxy-sandwich 2-6 % of its rate
    if a.ndim == 2:
        r = np.count_nonzero(_kept(s))
        return SvdResult(u[:, :r], s[:r], vh[:r].T)
    keep = _kept(s)
    v = vh.swapaxes(-1, -2)
    if keep[..., -1].all():  # values are sorted, so every matrix has full rank
        return SvdResult(u, s, v)
    r = keep.sum(axis=-1).max()
    keep = keep[..., :r]
    cols = keep[..., None, :]
    return SvdResult(np.where(cols, u[..., :r], 0.0), np.where(keep, s[..., :r], 0.0),
                     np.where(cols, v[..., :r], 0.0))


def best_rank_k(a: np.ndarray, k: int) -> np.ndarray:
    """Best rank-``k`` approximation of ``a`` in the Frobenius norm.

    If ``k`` is at least the numerical rank, returns ``a`` up to roundoff.
    A stack ``(..., n, d)`` gives each matrix's approximation.
    """
    _check_array("a", a)
    _check_int("k", k, 1)
    return _rank_k(a, k)


def _rank_k(a: np.ndarray, k: int) -> np.ndarray:  # for callers that checked a, k
    u, s, v = svd(a)
    return (u[..., :k] * s[..., None, :k]) @ v[..., :k].swapaxes(-1, -2)


def pinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a 2-D matrix via the rank-trimmed
    SVD."""
    _check_array("a", a, (None, None))
    u, s, v = svd(a)
    return (v / s) @ u.T


def fro_sq(a: np.ndarray):
    """Squared Frobenius norm (sum of squared entries), as a float.  A stack
    ``(..., n, d)`` gives an array with one per matrix, each from the same
    BLAS dot as that matrix on its own."""
    a = np.asarray(a)
    if a.ndim <= 2:
        flat = a.ravel()
        return float(flat @ flat)
    flat = a.reshape(*a.shape[:-2], 1, a.shape[-2] * a.shape[-1])
    return (flat @ flat.swapaxes(-1, -2))[..., 0, 0]


def _raise_qr_error(err, flag):
    raise LinAlgError("Incorrect argument found while performing QR factorization")


def _orthonormal(z: np.ndarray) -> np.ndarray:
    """Q of the reduced QR of a float64 matrix or stack ``(..., n, k)``, bit
    for bit ``np.linalg.qr(z)[0]``: the same two LAPACK calls, without R.

    ``z`` is overwritten with the packed Householder factors, so pass only
    a fresh temporary.  A LAPACK argument error raises ``LinAlgError``, as
    in ``np.linalg.qr``.
    """
    if z.dtype != np.float64:  # a cast copy would take geqrf's output
        raise TypeError(f"expected float64 blocks, got {z.dtype}")
    with np.errstate(call=_raise_qr_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        tau = _QR_R_RAW(z, signature="d->d")
        return _QR_REDUCED(z, tau, signature="dd->d")
