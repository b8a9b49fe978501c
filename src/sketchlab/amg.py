"""Two-level algebraic multigrid stepping and its learned-prolongation loss.

One cycle is ``s1`` forward Gauss-Seidel sweeps, a coarse correction
through the prolongation matrix, then ``s2`` more sweeps.  The error
propagates linearly, so the same step has a closed matrix form around the
exact solution; checking the two against each other is the module's
central identity.  A problem stores the smoother ``S = I - L^{-1} A``, the
shift ``c = L^{-1} b`` (L the lower-triangular part of A) and
``(P^T A P)^{-1}``, so a sweep ``S x + c`` is one matrix-vector product and
no cycle solves a system.  The step, the loss and its gradient in P run one
cycle and one forward pass.  Each public step and loss checks its arguments
once, at ``_check_args``, then runs unchecked kernels; training runs them
directly.
"""

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (RANK_RTOL, _check_array, _check_int, _check_type, _kept,
                     _own, _singular_values)
from .train import TrainConfig, _descend, _nonempty

# An iterate diverges once its norm passes this multiple of the problem's
# own scale ||x0|| + ||b|| / ||A||_F (the second term is at most ||x*||),
# so the guard reads the same at every scale of b and x0.
_DIVERGENCE_RATIO = 1e12


class DivergenceError(ArithmeticError):
    """Raised when iterates blow past the divergence guard."""


def _has_zero_diagonal(a: np.ndarray) -> bool:
    """Diagonal entry ``a_ii`` at or below ``RANK_RTOL * max_j |a_ij|``, so a
    graded A is judged row by row, not against its largest entry."""
    return bool((np.abs(np.diag(a)) <= RANK_RTOL * np.abs(a).max(1, initial=0)).any())


def solve_triangular(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L X = B`` in place by forward substitution: the float64
    array ``b`` (a vector or a matrix of columns) is overwritten with X and
    returned.  ``L`` is the lower triangle of ``lower`` with a nonzero
    diagonal; nothing above the diagonal is read, so A stands for its own
    lower-triangular part."""
    for i in range(b.shape[0]):
        b[i] = (b[i] - lower[i, :i] @ b[:i]) / lower[i, i]
    return b


def _coarse_fields(a: np.ndarray, p: np.ndarray) -> dict:
    """``coarse = P^T A P``, checked to be finite and of full numerical
    rank m, and its LU inverse ``coarse_inv``, checked to be finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        coarse = p.T @ a @ p
    _check_array("P^T A P", coarse)
    if np.count_nonzero(_kept(_singular_values(coarse))) < p.shape[1]:
        raise ValueError("P^T A P is numerically singular")
    coarse_inv = np.linalg.inv(coarse)
    _check_array("(P^T A P)^{-1}", coarse_inv)
    return dict(coarse=coarse, coarse_inv=coarse_inv)


@dataclass(frozen=True)
class AMGProblem:
    """Square system with a prolongation and smoothing counts.

    ``a`` is n-by-n with a numerically invertible lower-triangular part,
    ``p`` is the n-by-m prolongation (its nonzero positions here are the
    frozen training pattern, which later zero values do not change), and
    ``x0`` the initial guess.  The problem owns read-only copies of them
    and stores, formed once, the smoother ``S = I - L^{-1} A`` and shift
    ``c = L^{-1} b`` for the lower-triangular part L of A, ``coarse`` =
    ``P^T A P`` (of full numerical rank m) and its inverse ``coarse_inv``.
    """

    a: np.ndarray
    b: np.ndarray
    p: np.ndarray
    s1: int
    s2: int
    x0: np.ndarray = field(default=None)
    smoother: np.ndarray = field(init=False, repr=False)
    shift: np.ndarray = field(init=False, repr=False)
    coarse: np.ndarray = field(init=False, repr=False)
    coarse_inv: np.ndarray = field(init=False, repr=False)
    _pattern: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a, b, p = np.asarray(self.a), np.asarray(self.b), np.asarray(self.p)
        n = a.shape[0] if a.ndim else None  # the rule then refuses a 0-d A
        x0 = np.zeros(n or 0) if self.x0 is None else np.asarray(self.x0)
        for name, arr, shape in (("A", a, (n, n)), ("b", b, (n,)),
                                 ("P", p, (n, None)), ("x0", x0, (n,))):
            _check_array(name, arr, shape)
        # zero sweeps are allowed so the bare coarse correction is testable
        _check_int("s1", self.s1, 0)
        _check_int("s2", self.s2, 0)
        # copies: a caller's later writes to its arrays must not reach the problem
        a, b, p, x0 = (np.array(arr, dtype=np.float64) for arr in (a, b, p, x0))
        if _has_zero_diagonal(a):
            raise ValueError("A has a numerically singular diagonal")
        # S = -L^{-1} triu(A, 1) and c = L^{-1} b from one substitution
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            solved = solve_triangular(a, np.hstack([-np.triu(a, 1), b[:, None]]))
        smoother, shift = np.ascontiguousarray(solved[:, :n]), solved[:, n].copy()
        _check_array("I - L^{-1} A", smoother)
        _check_array("L^{-1} b", shift, (n,))
        _own(self, a=a, b=b, p=p, x0=x0, smoother=smoother, shift=shift,
             _pattern=p != 0.0, **_coarse_fields(a, p))

    def solution(self) -> np.ndarray:
        """Exact solution of ``A x = b`` (elimination oracle)."""
        return np.linalg.solve(self.a, self.b)

    def with_prolongation_values(self, values: np.ndarray) -> "AMGProblem":
        """Same problem with new values on the frozen P pattern, in its
        row-major order.  Only ``P^T A P`` and its inverse are formed again;
        S, c and the pattern are shared with this problem."""
        values = np.ravel(values)
        _check_array("values", values, (int(np.count_nonzero(self._pattern)),))
        return self._with_p(self._scatter(values))

    def _scatter(self, values) -> np.ndarray:
        """A new P holding ``values`` on the pattern.  Unchecked."""
        p = np.zeros_like(self.p)
        p[self._pattern] = values
        return p

    def _with_p(self, p) -> "AMGProblem":
        """This problem with P = ``p``; only the coarse pair is formed again."""
        out = copy.copy(self)
        _own(out, p=p, **_coarse_fields(self.a, p))
        return out


def _check_args(prob, q=0, **iterates):
    """The family's one door: ``prob`` must be an :class:`AMGProblem`, ``q``
    a count >= 0 (a step runs none) and each named iterate an (n,) array."""
    _check_type("prob", prob, AMGProblem)
    _check_int("q", q, 0)
    for name, x in iterates.items():
        _check_array(name, x, prob.b.shape)


def _sweep(prob: AMGProblem, x: np.ndarray) -> np.ndarray:
    return prob.smoother @ x + prob.shift


def smoothing_sweep(prob: AMGProblem, x: np.ndarray) -> np.ndarray:
    """One forward Gauss-Seidel sweep ``x + L^{-1}(b - A x)``, L the lower
    triangle of A, as ``S x + c`` with the stored ``c = L^{-1} b`` and
    ``S = I - L^{-1} A``, by which the error contracts."""
    _check_args(prob, x=x)
    return _sweep(prob, x)


def _cycle(prob: AMGProblem, x: np.ndarray):
    """One cycle from ``x``: s1 sweeps to y, the coarse step ``y + P e``
    with ``r = b - A y`` and ``e = (P^T A P)^{-1} P^T r``, then s2 sweeps.
    Returns the new iterate and the coarse step's ``r`` and ``e``."""
    for _ in range(prob.s1):
        x = _sweep(prob, x)
    r = prob.b - prob.a @ x
    e = prob.coarse_inv @ (prob.p.T @ r)
    x = x + prob.p @ e
    for _ in range(prob.s2):
        x = _sweep(prob, x)
    return x, r, e


def amg_step(prob: AMGProblem, x: np.ndarray) -> np.ndarray:
    """One explicit cycle: s1 sweeps, a coarse correction through
    ``prob.coarse_inv`` (checked by :class:`AMGProblem`), s2 sweeps."""
    _check_args(prob, x=x)
    return _cycle(prob, x)[0]


def amg_step_error_form(prob: AMGProblem, x: np.ndarray,
                        x_star: np.ndarray) -> np.ndarray:
    """Closed form of one cycle around the exact solution:

        x' = x* + (I - L^{-1}A)^{s2} (I - P (P^T A P)^{-1} P^T A)
                  (I - L^{-1}A)^{s1} (x - x*).

    Applied to ``x - x*`` right to left, one matrix-vector product at a
    time, so no n-by-n propagator is formed.
    """
    _check_args(prob, x=x, x_star=x_star)
    e = x - x_star
    for _ in range(prob.s1):
        e = prob.smoother @ e
    e = e - prob.p @ (prob.coarse_inv @ (prob.p.T @ (prob.a @ e)))
    for _ in range(prob.s2):
        e = prob.smoother @ e
    return x_star + e


def _forward(prob: AMGProblem, q: int):
    """Run ``q`` cycles from ``prob.x0`` under the divergence guard; returns
    the loss, the final residual ``A x_q - b`` and each cycle's ``(r, e)``."""
    x, steps = prob.x0, []
    limit = _DIVERGENCE_RATIO * (np.linalg.norm(x) + np.linalg.norm(prob.b)
                                 / np.linalg.norm(prob.a))
    for i in range(q):
        x, r, e = _cycle(prob, x)
        steps.append((r, e))
        norm = math.sqrt(x @ x)
        if not math.isfinite(norm) or norm > limit:
            raise DivergenceError(f"iterate norm {norm:.3e} after cycle {i + 1}")
    residual = prob.a @ x - prob.b
    return float(residual @ residual), residual, steps


def amg_loss(prob: AMGProblem, q: int) -> float:
    """Squared residual norm ``||A x_q - b||^2`` after ``q`` explicit
    cycles from the initial guess.

    Raises
    ------
    DivergenceError
        If an iterate's norm is not finite or passes 1e12 times
        ``||x0|| + ||b|| / ||A||_F``.
    """
    _check_args(prob, q)
    return _forward(prob, q)[0]


def amg_loss_and_grad(prob: AMGProblem, q: int) -> tuple[float, np.ndarray]:
    """:func:`amg_loss`, with its checks, and its gradient in P from one
    reverse pass over the same forward pass: a sweep pulls the adjoint g
    back to ``S^T g``, and the coarse step ``z = y + P e``
    (``e = G P^T r``, ``r = b - A y``, ``G = (P^T A P)^{-1}``) pulls it back
    to ``g - A^T P h`` with ``h = G^T P^T g``, adding
    ``(g - A^T P h) e^T + (r - A P e) h^T``."""
    _check_args(prob, q)
    return _loss_and_grad(prob, q)


def _loss_and_grad(prob: AMGProblem, q: int) -> tuple[float, np.ndarray]:
    loss, residual, steps = _forward(prob, q)
    a, p, smoother_t = prob.a, prob.p, prob.smoother.T
    g, grad = 2.0 * a.T @ residual, np.zeros_like(p)
    for r, e in reversed(steps):
        for _ in range(prob.s2):
            g = smoother_t @ g
        h = prob.coarse_inv.T @ (p.T @ g)
        g = g - a.T @ (p @ h)
        grad += np.outer(g, e) + np.outer(r - a @ (p @ e), h)
        for _ in range(prob.s1):
            g = smoother_t @ g
    return loss, grad


def train_prolongation(problems, cfg: TrainConfig, q: int = 1,
                       history: list | None = None):
    """Fit shared prolongation values over problems that share one P
    pattern, by ``sgd_train``'s mini-batch SGD on the mean cycle loss with
    the gradient of :func:`amg_loss_and_grad`.  Returns the flat value
    vector; apply it with :meth:`AMGProblem.with_prolongation_values`.
    Checked once, it scatters one P per step for every problem."""
    for i, prob in enumerate(_nonempty(problems)):
        _check_type(f"problems[{i}]", prob, AMGProblem)
    _check_int("q", q, 0)
    first, mask = problems[0], problems[0]._pattern
    if any(not np.array_equal(prob._pattern, mask) for prob in problems):
        raise ValueError("problems must share one prolongation pattern")

    def batch_grads(vals, idx):
        p = first._scatter(vals)
        pairs = [_loss_and_grad(problems[i]._with_p(p), q) for i in idx]
        return [loss for loss, _ in pairs], sum(g[mask] for _, g in pairs)

    def mean_loss(vals):
        p = first._scatter(vals)
        return np.mean([_forward(prob._with_p(p), q)[0] for prob in problems])

    return _descend(first.p[mask], problems, cfg, batch_grads, mean_loss, history)
