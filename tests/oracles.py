"""Independent brute-force oracles used to cross-check the library."""

import math
from dataclasses import dataclass

import numpy as np

from sketchlab.gjtrace import pdim_bound
from sketchlab.linalg import fro_sq
from sketchlab.proxy import _ENERGY_STALL_RTOL
from sketchlab.shatter import subset_sketch
from sketchlab.sketching import sketch_loss


def jacobi_eigh(a, max_sweeps=60):
    """Symmetric eigendecomposition by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) with a = V diag(w) V^T; unsorted.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= 1e-14 * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    return np.diag(a).copy(), v


def jacobi_singular_values(a):
    """Singular values of a rectangular matrix from the Jacobi
    eigendecomposition of A^T A, sorted non-increasing."""
    w, _ = jacobi_eigh(a.T @ a)
    return np.sqrt(np.clip(np.sort(w)[::-1], 0.0, None))


def cofactor_det(m):
    """Determinant by first-row cofactor expansion."""
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * cofactor_det(minor)
    return total


def gauss_inverse(m):
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting."""
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    aug = np.concatenate([m.copy(), np.eye(n)], axis=1)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < 1e-14:
            raise ValueError("singular matrix in elimination oracle")
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        for r in range(n):
            if r != col:
                aug[r] -= aug[r, col] * aug[col]
    return aug[:, n:]


def rowspace_projector_svd(z, rtol=1e-10):
    """Row-space projector V V^T from numpy's SVD (reference route)."""
    _, s, vh = np.linalg.svd(z)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((z.shape[1], z.shape[1]))
    vh = vh[: int(np.sum(s > rtol * s[0]))]
    return vh.T @ vh


def power_refine_qr(b, p, q):
    """The block power refinement of ``proxy.power_refine``, orthonormalizing
    each step through ``np.linalg.qr`` and discarding its R."""
    z = b @ p
    n, k = z.shape[1:]
    out = np.zeros((len(z), n, min(n, k)))  # the columns of a reduced QR
    live = np.flatnonzero(np.abs(z).max(axis=(1, 2)) != 0.0)
    if live.size == 0:
        return out
    floor = _ENERGY_STALL_RTOL * fro_sq(b)
    qmat, _ = np.linalg.qr(z[live])
    energy = np.full(live.size, -np.inf)
    stalled = np.zeros(live.size, dtype=np.int64)
    for _ in range(q):
        btq = b.T @ qmat
        e = fro_sq(btq)  # ||B^T Q||_F^2 per block
        stalled = np.where(e - energy <= floor, stalled + 1, 0)
        energy = np.maximum(energy, e)
        done = stalled >= 3
        if done.any():
            out[live[done]] = qmat[done]
            keep = ~done
            live, qmat, btq = live[keep], qmat[keep], btq[keep]
            energy, stalled = energy[keep], stalled[keep]
            if live.size == 0:
                return out
        qmat, _ = np.linalg.qr(b @ btq)
    out[live] = qmat
    return out


def central_difference_grad(loss_fn, values, h):
    """Gradient of ``loss_fn`` at a flat parameter vector by central
    differences with step ``h``, one coordinate at a time."""
    vals = np.array(values, dtype=np.float64).ravel()
    grad = np.empty_like(vals)
    for j in range(vals.size):
        orig = vals[j]
        vals[j] = orig + h
        up = loss_fn(vals)
        vals[j] = orig - h
        down = loss_fn(vals)
        vals[j] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise FloatingPointError(
                f"non-finite loss at parameter {j}: up={up}, down={down}"
            )
        grad[j] = (up - down) / (2.0 * h)
    return grad


def finite_difference_sgd(values, loss_fn, cfg, history=None, h=1e-5):
    """Full-batch gradient descent on central-difference gradients of step
    ``h``: one step of ``cfg.step_size`` per epoch, and the loss after each
    epoch appended to ``history`` when given."""
    vals = np.array(values, dtype=np.float64).ravel()
    for _ in range(cfg.epochs):
        vals -= cfg.step_size * central_difference_grad(loss_fn, vals, h)
        if history is not None:
            history.append(float(loss_fn(vals)))
    return vals


def small_gap_instance(d, k, delta, tail, seed):
    """(A, sketch) of the small-gap family, the slow case of block power
    refinement: A is d-by-d, ``U diag(sigma) V^T`` scaled to unit squared
    Frobenius norm, with sigma_1..sigma_k = 1, sigma_{k+1} = 1 - delta
    and ``tail`` below (k < d).  U is Haar-random from ``seed``; V's first
    column is the all-ones direction, spread evenly over the standard
    starting blocks, and the rest random.  The sketch is the identity, so
    the proxy refines B = A."""
    rng = np.random.default_rng(seed)
    sigma = np.full(d, float(tail))
    sigma[:k], sigma[k] = 1.0, 1.0 - delta
    u = np.linalg.qr(rng.standard_normal((d, d)))[0]
    v = np.linalg.qr(np.column_stack([np.ones(d), rng.standard_normal((d, d - 1))]))[0]
    a = (u * sigma) @ v.T
    return a / np.sqrt(fro_sq(a)), np.eye(d)


def family_members_loop(base, slots, width):
    """The members of a shattered family, built one at a time: for slot
    ``(j, t)``, ``base.dense().T`` with column ``base.pattern[j, t]``
    replaced by ``e_j``, zero-padded to ``width`` columns and divided by
    ``sqrt(base.m)``."""
    k = base.m
    base_t = base.dense().T
    members = []
    for j, t in slots:
        a = np.zeros((base.n, width))
        a[:, :k] = base_t
        col = base.pattern[j, t]
        a[:, col] = 0.0
        a[j, col] = 1.0
        members.append(a / np.sqrt(k))
    return members


def verify_shattering_loop(family, subset_budget=256, gamma=0.1, seed=0):
    """``verify_shattering`` as a loop: one 2-D ``sketch_loss`` call per
    (subset, member) pair on the ``subset_sketch`` of the subset's
    complement, with the margins and the loss extremes kept as running
    minima and maxima.  Draws the same subsets from the same seed."""
    n_members = len(family.matrices)
    k = family.base.m
    if n_members <= 14:
        masks = range(2 ** n_members)
    else:
        rng = np.random.default_rng(seed)
        masks = [int.from_bytes(rng.bytes((n_members + 7) // 8), "little")
                 % (2 ** n_members) for _ in range(subset_budget)]
    all_pass, checked = True, 0
    min_margin, miss_loss_min, hit_loss_max = np.inf, np.inf, -np.inf
    for mask in masks:
        sk = subset_sketch(family, [i for i in range(n_members)
                                    if not mask >> i & 1])
        checked += 1
        for i in range(n_members):
            loss = sketch_loss(sk, family.matrices[i], k)
            r = family.thresholds[i]
            if mask >> i & 1:
                margin = loss - (r + gamma)
                miss_loss_min = min(miss_loss_min, loss)
            else:
                margin = (r - gamma) - loss
                hit_loss_max = max(hit_loss_max, loss)
            min_margin = min(min_margin, margin)
            all_pass = all_pass and margin > 0
    return {
        "family": family.builder,
        "N": n_members,
        "subsets_checked": checked,
        "gamma": gamma,
        "min_margin": float(min_margin),
        "all_pass": bool(all_pass),
        "hit_loss_max": float(hit_loss_max) if np.isfinite(hit_loss_max) else None,
        "miss_loss_min": float(miss_loss_min) if np.isfinite(miss_loss_min) else None,
        "one_over_k": 1.0 / k,
        "one_over_sqrt_k": 1.0 / math.sqrt(k),
    }


def amg_error_propagator(a, p, s1, s2):
    """Dense n-by-n error propagator of one two-level cycle,
    ``(I - L^{-1}A)^{s2} (I - P (P^T A P)^{-1} P^T A) (I - L^{-1}A)^{s1}``,
    with L the lower-triangular part of A, from linear solves."""
    eye = np.eye(a.shape[0])
    smoother = eye - np.linalg.solve(np.tril(a), a)
    corrector = eye - p @ np.linalg.solve(p.T @ a @ p, p.T @ a)
    return (np.linalg.matrix_power(smoother, s2) @ corrector
            @ np.linalg.matrix_power(smoother, s1))


@dataclass(frozen=True)
class ReferenceTracedValue:
    """``gjtrace.TracedValue`` as a frozen dataclass: the record the
    slotted one must match field for field."""

    trace: "ReferenceTrace"
    node: int
    num_deg: int
    den_deg: int
    numeric: float

    def __add__(self, other):
        return self.trace.op(self, other, "+")

    def __sub__(self, other):
        return self.trace.op(self, other, "-")

    def __mul__(self, other):
        return self.trace.op(self, other, "*")

    def __truediv__(self, other):
        return self.trace.op(self, other, "/")

    def __neg__(self):
        return self.trace.const(-1.0) * self

    def __float__(self):
        return self.numeric


class ReferenceTrace:
    """``gjtrace.Trace`` with one generic ``op``: the divisor's degrees
    swapped for ``/``, the degree rule picked by the operator, commutative
    keys sorted, and every new value made through ``max`` and
    ``setdefault``."""

    def __init__(self):
        self._node_ids = {}
        self.n_inputs = 0
        self.predicate_nodes = set()
        self.max_degree = 0

    def _make(self, key, num_deg, den_deg, numeric):
        self.max_degree = max(self.max_degree, num_deg, den_deg)
        node = self._node_ids.setdefault(key, len(self._node_ids))
        return ReferenceTracedValue(self, node, num_deg, den_deg, float(numeric))

    def input(self, name, value):
        if ("in", name) in self._node_ids:
            raise ValueError(f"duplicate input name: {name!r}")
        self.n_inputs += 1
        return self._make(("in", name), 1, 0, value)

    def const(self, value):
        if isinstance(value, ReferenceTracedValue):
            raise TypeError("Trace.const takes a number, not a traced value")
        return self._make(("const", float(value)), 0, 0, value)

    def _check(self, kind, v):
        if not isinstance(v, ReferenceTracedValue):
            raise TypeError(f"{type(v).__name__} operand of {kind}: "
                            "lift every number with Trace.const")
        if v.trace is not self:
            raise ValueError("cannot mix values from different traces")

    def op(self, a, b, kind):
        self._check(kind, a)
        self._check(kind, b)
        b_num, b_den = (b.den_deg, b.num_deg) if kind == "/" else (b.num_deg, b.den_deg)
        if kind in ("+", "-"):
            numeric = a.numeric + b.numeric if kind == "+" else a.numeric - b.numeric
            num_deg = max(a.num_deg + b_den, b_num + a.den_deg)
        else:
            numeric = a.numeric * b.numeric if kind == "*" else a.numeric / b.numeric
            num_deg = a.num_deg + b_num
        key = ((kind, *sorted((a.node, b.node))) if kind in ("+", "*")
               else (kind, a.node, b.node))
        return self._make(key, num_deg, a.den_deg + b_den, numeric)

    def branch(self, v):
        self._check("branch", v)
        self.predicate_nodes.add(v.node)
        return v.numeric >= 0.0

    @property
    def predicate_count(self):
        return len(self.predicate_nodes)

    def report(self):
        return {
            "n_inputs": self.n_inputs,
            "max_degree": self.max_degree,
            "predicate_count": self.predicate_count,
            "pdim_bound": pdim_bound(self.n_inputs, self),
        }
