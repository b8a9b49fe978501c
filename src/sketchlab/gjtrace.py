"""Instrumented arithmetic for degree and branch-predicate accounting.

A :class:`Trace` interprets a program restricted to {+, -, *, /} and
"is v >= 0?" branches.  Every value carries conservative numerator and
denominator degree bounds (no rational-function reduction is attempted),
and every branch records a canonical fingerprint of its predicate's
expression DAG, so structurally identical predicates are counted once.
The trace is execution-path-faithful: the ``numeric`` field follows plain
float arithmetic exactly.

A program written against the trace API runs unchanged on :class:`Trace`,
:class:`FloatBackend` and :class:`ExactBackend`.  Every number enters it
through ``const`` or ``input`` (an operator refuses a raw number, so no
float can slip into an exact replay), and ``float()`` reads a value out
on any of the three.

:class:`TracedValue` is a plain slotted record compared by identity (a
value's place in the DAG is its ``node``), and every operator goes
through :meth:`Trace.op`, so wrapping that one method sees each traced
``+ - * /``.
"""

import math
from fractions import Fraction

from .linalg import _check_int, _check_type


class TracedValue:
    """A value in the expression DAG with degree bounds and its concrete
    float, used for branching.  Inputs carry degrees (1, 0), constants
    (0, 0).  A plain slotted record, compared by identity."""

    __slots__ = ("trace", "node", "num_deg", "den_deg", "numeric")

    def __init__(self, trace, node, num_deg, den_deg, numeric):
        self.trace = trace
        self.node = node
        self.num_deg = num_deg
        self.den_deg = den_deg
        self.numeric = numeric

    @property
    def degree(self) -> int:
        return max(self.num_deg, self.den_deg)

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

    def __repr__(self):
        return (f"TracedValue(node={self.node}, num_deg={self.num_deg}, "
                f"den_deg={self.den_deg}, numeric={self.numeric!r})")


class Trace:
    """Accumulates degree bounds and distinct branch predicates.

    Expression nodes are hash-consed: the canonical key of ``a + b`` and
    ``b + a`` coincides (operands of commutative ops are sorted by node
    id), so re-branching on a structurally identical expression does not
    grow the predicate set.  Algebraically equal but structurally distinct
    expressions may still be counted twice; the count is a conservative
    upper bound, which is the direction the dimension bound needs.
    """

    def __init__(self):
        self._node_ids: dict[tuple, int] = {}
        self.n_inputs = 0
        self.predicate_nodes: set[int] = set()
        self.max_degree = 0

    def _make(self, key, num_deg, den_deg, numeric) -> TracedValue:
        self.max_degree = max(self.max_degree, num_deg, den_deg)
        node = self._node_ids.setdefault(key, len(self._node_ids))
        return TracedValue(self, node, num_deg, den_deg, float(numeric))

    def input(self, name: str, value: float) -> TracedValue:
        """Register a named input (degree 1) with its concrete value."""
        if ("in", name) in self._node_ids:
            raise ValueError(f"duplicate input name: {name!r}")
        self.n_inputs += 1
        return self._make(("in", name), 1, 0, value)

    def const(self, value) -> TracedValue:
        """A constant of the program (degree 0)."""
        if isinstance(value, TracedValue):  # float() would drop its degrees
            raise TypeError("Trace.const takes a number, not a traced value")
        return self._make(("const", float(value)), 0, 0, value)

    def _refuse_operands(self, kind, *values):
        """Raise the error of the first of ``values`` that is not a traced
        value of this trace: the one operand check of :meth:`op` and
        :meth:`branch`, which call it only when their inline test fails."""
        for v in values:
            if not isinstance(v, TracedValue):
                raise TypeError(f"{type(v).__name__} operand of {kind}: "
                                "lift every number with Trace.const")
            if v.trace is not self:
                raise ValueError("cannot mix values from different traces")

    def op(self, a: TracedValue, b: TracedValue, kind: str) -> TracedValue:
        """Apply one of ``+ - * /``; degree bounds compose conservatively
        (no cancellation is assumed), and ``/`` is ``*`` by the divisor
        with its degrees swapped.  The key of ``+`` and ``*`` lists the
        smaller node id first."""
        if (type(a) is not TracedValue or type(b) is not TracedValue
                or a.trace is not self or b.trace is not self):
            self._refuse_operands(kind, a, b)
        an, bn = a.node, b.node
        if kind == "+" or kind == "-":
            ad, bd = a.den_deg, b.den_deg
            num_deg = a.num_deg + bd
            if b.num_deg + ad > num_deg:
                num_deg = b.num_deg + ad
            den_deg = ad + bd
            if kind == "+":
                numeric = a.numeric + b.numeric
                key = ("+", an, bn) if an <= bn else ("+", bn, an)
            else:
                numeric = a.numeric - b.numeric
                key = ("-", an, bn)
        elif kind == "*":
            numeric = a.numeric * b.numeric
            num_deg = a.num_deg + b.num_deg
            den_deg = a.den_deg + b.den_deg
            key = ("*", an, bn) if an <= bn else ("*", bn, an)
        elif kind == "/":
            numeric = a.numeric / b.numeric  # ZeroDivisionError is intended
            num_deg = a.num_deg + b.den_deg
            den_deg = a.den_deg + b.num_deg
            key = ("/", an, bn)
        else:
            raise ValueError(f"unknown operator {kind!r}")
        if num_deg > self.max_degree:
            self.max_degree = num_deg
        if den_deg > self.max_degree:
            self.max_degree = den_deg
        ids = self._node_ids
        return TracedValue(self, ids.setdefault(key, len(ids)), num_deg,
                           den_deg, numeric)

    def branch(self, v: TracedValue) -> bool:
        """Record the predicate "v >= 0" and return its concrete outcome."""
        if not (isinstance(v, TracedValue) and v.trace is self):
            self._refuse_operands("branch", v)
        self.predicate_nodes.add(v.node)
        return v.numeric >= 0.0

    @property
    def predicate_count(self) -> int:
        return len(self.predicate_nodes)

    def report(self) -> dict:
        """JSON-ready summary; the bound's parameters are the traced inputs."""
        return {
            "n_inputs": self.n_inputs,
            "max_degree": self.max_degree,
            "predicate_count": self.predicate_count,
            "pdim_bound": pdim_bound(self.n_inputs, self),
        }


def pdim_bound(n_params: int, trace: Trace) -> float:
    """Pseudo-dimension bound ``n_params * log2(max(2, degree * predicates))``,
    reported up to the framework's hidden constant."""
    _check_int("n_params", n_params, 0)
    _check_type("trace", trace, Trace)
    delta = max(1, trace.max_degree)
    p = max(1, trace.predicate_count)
    return float(n_params) * math.log2(max(2.0, float(delta) * float(p)))


def _pairwise_table(r, outcome):
    """r-by-r table whose ``[i][j]`` means "item i ranks at or above item
    j": ``outcome(i, j)`` for i < j, called in row-major order, and its
    negation below the diagonal."""
    ge = [[False] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            ge[i][j] = outcome(i, j)
            ge[j][i] = not ge[i][j]
    return ge


def gj_argmin(trace, values) -> int:
    """Index of the minimum via branches on all pairwise differences.

    Branches on ``v_i - v_j`` for every i < j, so the predicate set grows
    by exactly C(r, 2) structurally distinct entries; the winner is read
    off the recorded outcomes without further branching.
    """
    r = len(values)
    if r == 0:
        raise ValueError("need at least one value")
    # ge[i][j] == True means v_i >= v_j.
    ge = _pairwise_table(r, lambda i, j: trace.branch(values[i] - values[j]))
    best = 0
    for i in range(1, r):
        if ge[best][i]:
            best = i
    return best


class FloatBackend:
    """Drop-in stand-in for :class:`Trace` running on plain floats.

    Drivers written against the trace API can be replayed bit-for-bit on
    raw floats to check that instrumentation never perturbs execution.
    """

    def input(self, name: str, value: float):
        return self.const(value)

    def const(self, value) -> float:
        return float(value)

    def branch(self, v: float) -> bool:
        return v >= 0.0


class ExactBackend(FloatBackend):
    """:class:`FloatBackend`'s exact twin: inputs and constants become
    ``Fraction`` (exact for every finite float), so each operation is
    exact and each branch is an exact sign test, as the arithmetic-only
    model assumes."""

    def const(self, value) -> Fraction:
        return Fraction(float(value))
