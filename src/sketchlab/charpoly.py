"""Division-structured rational routines: characteristic polynomial,
Faddeev-LeVerrier inversion, greedy row-basis extraction, and row-space
projection.

These are the numeric reference for the arithmetic-only subroutines counted
by the complexity tracer (:mod:`sketchlab.gjtrace`), and its demos are checked
against them: rank decisions reduce to a sign test on the free coefficient of
a characteristic polynomial, and inverses come from the Faddeev-LeVerrier
recurrence rather than a factorization.  Numeric code uses :mod:`.linalg`.
"""

import numpy as np

SINGULAR_ATOL = 1e-12
# Largest k the free-coefficient singularity test gives verdicts for.
SINGULAR_MAX_K = 16


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when the free-coefficient test flags a matrix as singular."""


class CharpolyOverflowError(OverflowError):
    """Raised when a characteristic-polynomial coefficient overflows."""


def charpoly_coefficients(m: np.ndarray) -> np.ndarray:
    """Coefficients ``c_0 .. c_k`` of ``det(lambda*I - M)``, with c_0 = 1.

    Uses the Faddeev-LeVerrier recurrence

        B_1 = I,   c_i = -tr(M @ B_i) / i,   B_{i+1} = M @ B_i + c_i * I.

    Raises
    ------
    CharpolyOverflowError
        If a coefficient, which scales as ``||M||^i``, is not finite.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    k = m.shape[0]
    coeffs = np.empty(k + 1)
    coeffs[0] = 1.0
    b = np.eye(k)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, k + 1):
            mb = m @ b
            coeffs[i] = -np.trace(mb) / i
            b = mb + coeffs[i] * np.eye(k)
    if not np.isfinite(coeffs).all():
        raise CharpolyOverflowError(
            f"characteristic polynomial of a {k}x{k} matrix overflows")
    return coeffs


def charpoly_free_coeff(m: np.ndarray) -> float:
    """Free coefficient ``c_k = (-1)^k det(M)`` of the characteristic
    polynomial; nonzero (above the singularity threshold) iff M has full
    rank."""
    return float(charpoly_coefficients(m)[-1])


def _normalized(m: np.ndarray) -> tuple[np.ndarray, float]:
    """``(M / ||M||_F, ||M||_F)``, or ``(M, 0)`` for a zero M.  The norm is
    taken of ``M / max|M|``, so it neither overflows nor underflows."""
    peak = float(np.abs(m).max())
    if peak == 0.0:
        return m, 0.0
    norm = float(np.linalg.norm(m / peak))
    return m / peak / norm, peak * norm


def is_numerically_singular(m: np.ndarray) -> bool:
    """Free-coefficient full-rank test on ``M / ||M||_F``: singular when
    ``|c_k| <= SINGULAR_ATOL`` there, so the verdict does not depend on
    the scale of M.  The zero matrix is singular.

    Supported for k <= ``SINGULAR_MAX_K`` = 16 only; a larger M raises
    ``ValueError``.  ``|det(M / ||M||_F)|`` shrinks like ``k^(-k/2)`` even
    for the identity, so from k = 19 on every matrix, ``np.eye(k)``
    included, would be flagged singular.  A size-aware threshold does not
    fix this: scaled by the identity's determinant, it no longer flags the
    rank-1 all-ones matrix (whose computed free coefficient is rounding
    noise near 1e-19) at most sizes from k = 19 to 48."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > SINGULAR_MAX_K:
        raise ValueError(
            f"the free-coefficient singularity test supports k <= "
            f"{SINGULAR_MAX_K}, got a {m.shape[0]}x{m.shape[0]} matrix")
    unit, norm = _normalized(m)
    return norm == 0.0 or abs(charpoly_free_coeff(unit)) <= SINGULAR_ATOL


def _fl_inverse_refined(m: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier inverse ``-B_k / c_k`` with best-effort polish.

    The raw recurrence loses accuracy on ill-conditioned inputs, so the
    result is polished by Newton steps (``X <- X + X (I - M X)``) and, if
    those stall, by a conservatively scaled Newton-Schulz restart.  Returns
    the iterate with the smallest residual; accuracy degrades gracefully
    with the condition number.
    """
    k = m.shape[0]
    eye = np.eye(k)
    b = eye
    c = 1.0
    for i in range(1, k + 1):
        mb = m @ b
        c = -np.trace(mb) / i
        if i < k:
            b = mb + c * eye
    if c == 0.0 or not np.isfinite(c):
        raise SingularMatrixError(f"free coefficient is {c}")
    x = -b / c

    tol = 1e-7 * k
    best = x
    best_res = float(np.linalg.norm(m @ x - eye))
    for _ in range(4):
        if best_res <= tol:
            return best
        x = x + x @ (eye - m @ x)
        res = float(np.linalg.norm(m @ x - eye))
        if not np.isfinite(res) or res >= best_res:
            break
        best, best_res = x, res
    if best_res <= tol:
        return best

    # Newton-Schulz from M^T / (||M||_1 ||M||_inf) always contracts.
    x = m.T / (np.linalg.norm(m, 1) * np.linalg.norm(m, np.inf))
    res = float(np.linalg.norm(m @ x - eye))
    for _ in range(80):
        if res <= tol:
            return x
        x = x + x @ (eye - m @ x)
        new_res = float(np.linalg.norm(m @ x - eye))
        if not np.isfinite(new_res) or new_res >= res:
            break
        res = new_res
    return x if res < best_res else best


def charpoly_inverse(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix through the Faddeev-LeVerrier recurrence.

    Inputs failing :func:`is_numerically_singular` are rejected; the
    recurrence runs on ``M / ||M||_F``, so the scale of M does not matter.
    For accepted, sanely conditioned inputs the refined result keeps the
    residual ``||M X - I||_F`` within ``1e-7 k``; accuracy degrades
    gracefully as the condition number approaches the float64 limit.

    Raises
    ------
    SingularMatrixError
        If ``|c_k|`` of the normalized matrix is at most ``SINGULAR_ATOL``.
    ValueError
        If M is not square or is larger than ``SINGULAR_MAX_K``.
    """
    m = np.asarray(m, dtype=np.float64)
    if is_numerically_singular(m):
        raise SingularMatrixError("free coefficient below singularity threshold")
    unit, norm = _normalized(m)
    return _fl_inverse_refined(unit) / norm


# Relative cutoff for the greedy rank test: a row is new when its distance
# from the current span exceeds this fraction of the overall matrix scale.
# The Gram determinant ratio det(G_aug)/det(G) equals that squared distance,
# so the test stays inside the free-coefficient machinery while its cliff
# sits at a fixed relative magnitude (a fixed absolute threshold on c_k
# drifts with conditioning, since c_k is a product over all directions).
GREEDY_RTOL = 1e-7


def greedy_row_basis(z: np.ndarray) -> np.ndarray:
    """Extract a row basis of ``z`` by a single greedy pass.

    Rows are scanned in index order; a candidate row is kept iff the free
    coefficient of the augmented Gram matrix ``Y Y^T`` grows by more than
    ``GREEDY_RTOL**2 * fro_sq(z)`` times the current free coefficient,
    i.e. the row sits measurably outside the span kept so far.  Rows that
    fail are discarded permanently.  Returns an ``r``-by-``d`` array whose
    rows are a subset of the rows of ``z`` (possibly empty for a zero
    matrix).
    """
    z = np.asarray(z, dtype=np.float64)
    scale = float(np.sum(z * z))
    rows: list[np.ndarray] = []
    free = 1.0
    for row in z:
        candidate = np.array(rows + [row])
        gram = candidate @ candidate.T
        c_new = abs(charpoly_free_coeff(gram))
        if c_new > GREEDY_RTOL**2 * scale * free:
            rows.append(row)
            free = c_new
    if not rows:
        return np.zeros((0, z.shape[1]))
    return np.array(rows)


def projection_rowspace(z: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the row space of ``z``.

    Computed as ``Y^T (Y Y^T)^{-1} Y`` with ``Y = greedy_row_basis(z)``,
    which equals the pseudo-inverse product ``pinv(z) @ z``.  A zero input
    yields the zero matrix.
    """
    y = greedy_row_basis(z)
    d = z.shape[1]
    if y.shape[0] == 0:
        return np.zeros((d, d))
    # The greedy pass already certified invertibility of the kept Gram.
    gram_inv = _fl_inverse_refined(y @ y.T)
    return y.T @ gram_inv @ y
