"""Reference computations made apart from the program, and the checks that
compare the program's outputs with them.

Each ``check_*`` function raises ``Mismatch`` with a one-line reason when
an output disagrees; the harness counts that operation as failed.  Only
``numpy`` and the standard library are used here, never ``sketchlab``
numerics.
"""

import math

import numpy as np

from inputs import dense_sketch

# Numerical rank: singular values above RANK_RTOL times the largest count.
# The rule is scale-relative, so it gives the same decision at any scale.
RANK_RTOL = 1e-10
# Agreement of two loss computations, relative to ||A||_F^2.
LOSS_RTOL = 1e-8
# Slack on the proxy bracket and on the Eckart-Young bounds, relative to
# ||A||_F^2 (the acceptance gate of the package uses 1e-9 at unit norm).
BRACKET_RTOL = 1e-9


class Mismatch(AssertionError):
    """An output of the program disagrees with its reference."""


def fro_sq(a):
    return float(np.sum(np.asarray(a) * np.asarray(a)))


def sketch_loss_ref(sketch, a, k):
    """Sketch-and-solve loss ||A - [A V]_k V^T||_F^2, V spanning row(S A)."""
    sa = dense_sketch(sketch) @ a
    _, s, vh = np.linalg.svd(sa, full_matrices=False)
    r = int(np.sum(s > RANK_RTOL * s[0])) if s.size and s[0] > 0 else 0
    if r == 0:
        return fro_sq(a)
    v = vh[:r].T
    u2, s2, vh2 = np.linalg.svd(a @ v, full_matrices=False)
    kk = min(k, r)
    approx = (u2[:, :kk] * s2[:kk]) @ vh2[:kk] @ v.T
    return fro_sq(a - approx)


def tail_energy(a, k):
    """Eckart-Young optimum: energy beyond the top k singular values."""
    s = np.linalg.svd(a, compute_uv=False)
    return float(np.sum(s[k:] ** 2))


def check(cond, reason):
    if not cond:
        raise Mismatch(reason)


def check_loss(loss, ref, a, k, tail=None):
    """Loss agrees with the reference and lies in [tail energy, ||A||^2]."""
    norm = fro_sq(a)
    tail = tail_energy(a, k) if tail is None else tail
    check(math.isfinite(loss), f"loss is {loss}")
    check(abs(loss - ref) <= LOSS_RTOL * norm,
          f"loss {loss:.6e} vs reference {ref:.6e} (||A||^2 {norm:.3e})")
    slack = BRACKET_RTOL * norm
    check(tail - slack <= loss <= norm + slack,
          f"loss {loss:.6e} outside [tail {tail:.6e}, ||A||^2 {norm:.6e}]")


def check_proxy(proxy, true_loss, a, eps, exhaustive):
    """The proxy never under-estimates; exhaustive candidates keep it
    within eps (relative to ||A||^2) above the true loss."""
    norm = fro_sq(a)
    slack = BRACKET_RTOL * norm
    check(math.isfinite(proxy), f"proxy is {proxy}")
    check(proxy >= true_loss - slack,
          f"proxy {proxy:.6e} under true loss {true_loss:.6e} at eps={eps}")
    upper = true_loss + eps * norm if exhaustive else norm
    check(proxy <= upper + slack,
          f"proxy {proxy:.6e} over bound {upper:.6e} at eps={eps}")


def check_scale_invariance(rel_losses):
    """Relative losses of one instance at several scales agree."""
    lo, hi = min(rel_losses), max(rel_losses)
    check(hi - lo <= LOSS_RTOL, f"relative loss spread {hi - lo:.3e} over scales")


def check_bit_exact(a, b, what):
    check(a.dtype == b.dtype and a.shape == b.shape
          and a.tobytes() == b.tobytes(), f"{what} round trip is not bit-exact")


# --- AMG ---------------------------------------------------------------------

def amg_step_ref(a, b, p, s1, s2, x):
    """One two-level cycle with every solve done by np.linalg.solve."""
    lower = np.tril(a)
    for _ in range(s1):
        x = x + np.linalg.solve(lower, b - a @ x)
    coarse = p.T @ a @ p
    x = x + p @ np.linalg.solve(coarse, p.T @ (b - a @ x))
    for _ in range(s2):
        x = x + np.linalg.solve(lower, b - a @ x)
    return x


def amg_error_form_ref(a, p, s1, s2, x, x_star):
    """x* + (I - L^-1 A)^s2 (I - P (P^T A P)^-1 P^T A) (I - L^-1 A)^s1 (x - x*)."""
    n = a.shape[0]
    smoother = np.eye(n) - np.linalg.solve(np.tril(a), a)
    corrector = np.eye(n) - p @ np.linalg.solve(p.T @ a @ p, p.T @ a)
    e = x - x_star
    for _ in range(s1):
        e = smoother @ e
    e = corrector @ e
    for _ in range(s2):
        e = smoother @ e
    return x_star + e


# The coarse inverse inside the program is accepted once its residual
# ||M X - I||_F is at most 1e-7 * m (charpoly_inverse's contract), so a cycle
# may differ from the solve-based reference by that much, relative.
AMG_RTOL = 1e-6


def check_close(x, ref, what, rtol=AMG_RTOL):
    x = np.asarray(x)
    dev = float(np.linalg.norm(x - ref))
    check(np.all(np.isfinite(x)) and dev <= rtol * (1.0 + float(np.linalg.norm(ref))),
          f"{what}: deviation {dev:.3e} from reference")


# --- tracer demos ----------------------------------------------------------

def knapsack_ref(values, costs, capacity, rho):
    """Greedy knapsack by rank v / c^rho, highest first."""
    order = sorted(range(len(values)), key=lambda i: values[i] / costs[i] ** rho,
                   reverse=True)
    total = used = 0.0
    for i in order:
        if used + costs[i] <= capacity:
            used += costs[i]
            total += values[i]
    return total


def projector_ref(z):
    _, s, vh = np.linalg.svd(z)
    r = int(np.sum(s > RANK_RTOL * s[0]))
    return vh[:r].T @ vh[:r]
