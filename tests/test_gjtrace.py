import math
import operator
import struct
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchlab import gjdemos
from sketchlab.charpoly import projection_rowspace
from sketchlab.gjtrace import ExactBackend, FloatBackend, Trace, gj_argmin, pdim_bound

from oracles import ReferenceTrace, rowspace_projector_svd


def test_input_and_const_degrees():
    tr = Trace()
    x = tr.input("x", 2.0)
    c = tr.const(3.0)
    assert (x.num_deg, x.den_deg) == (1, 0)
    assert (c.num_deg, c.den_deg) == (0, 0)
    assert tr.n_inputs == 1
    assert tr.max_degree == 1


def test_duplicate_input_name_rejected():
    tr = Trace()
    tr.input("x", 1.0)
    with pytest.raises(ValueError):
        tr.input("x", 2.0)


def test_degree_rules():
    tr = Trace()
    x = tr.input("x", 2.0)
    y = tr.input("y", 3.0)
    sq = x * x
    assert (sq.num_deg, sq.den_deg) == (2, 0)
    ratio = x / x
    assert (ratio.num_deg, ratio.den_deg) == (1, 1)
    assert ratio.degree == 1
    s = x / y + y
    # (x + y^2) / y under the conservative composition rules
    assert (s.num_deg, s.den_deg) == (2, 1)
    assert s.numeric == 2.0 / 3.0 + 3.0


def test_degree_bound_never_decreases():
    tr = Trace()
    x = tr.input("x", 1.5)
    seen = [tr.max_degree]
    v = x
    for _ in range(5):
        v = v * x + tr.const(1.0)
        seen.append(tr.max_degree)
    assert seen == sorted(seen)


def test_division_by_zero_raises():
    tr = Trace()
    x = tr.input("x", 1.0)
    z = tr.const(0.0)
    with pytest.raises(ZeroDivisionError):
        x / z


def test_cross_trace_mixing_rejected():
    t1, t2 = Trace(), Trace()
    with pytest.raises(ValueError):
        t1.input("x", 1.0) + t2.input("y", 1.0)


def test_raw_numbers_must_be_lifted_with_const():
    tr = Trace()
    x = tr.input("x", 1.0)
    for raw in (1.0, 2, np.float64(0.5), Fraction(1, 3)):
        with pytest.raises(TypeError, match=r"Trace\.const"):
            x + raw
        with pytest.raises(TypeError):
            raw * x
    with pytest.raises(TypeError, match=r"Trace\.const"):
        tr.op(1.0, x, "-")
    with pytest.raises(TypeError, match=r"Trace\.const"):
        gj_argmin(tr, [1.0, 2.0])  # the raw difference reaches branch
    with pytest.raises(ValueError, match="different traces"):
        tr.branch(Trace().input("x", 1.0))
    with pytest.raises(TypeError, match="not a traced value"):
        tr.const(x)
    assert (x + tr.const(1.0)).numeric == 2.0


def test_float_reads_a_value_on_every_backend():
    for tr in (Trace(), FloatBackend(), ExactBackend()):
        x = tr.input("x", 0.5)
        assert float(x * x / tr.const(3.0)) == 0.25 / 3.0


def test_branch_deduplication():
    tr = Trace()
    x = tr.input("x", 2.0)
    y = tr.input("y", 5.0)
    assert tr.branch(x * y - tr.const(3.0))
    assert tr.branch(x * y - tr.const(3.0))
    assert tr.predicate_count == 1
    # commutative operands canonicalize to one node
    tr.branch(y * x - tr.const(3.0))
    assert tr.predicate_count == 1
    # structurally distinct but algebraically equal: conservatively two
    tr.branch((x + y) * x - tr.const(3.0))
    tr.branch(x * x + y * x - tr.const(3.0))
    assert tr.predicate_count == 3


def test_min_predicate_count():
    rng = np.random.default_rng(0)
    for r in (2, 4, 7):
        tr = Trace()
        vals = [tr.input(f"v{i}", x) for i, x in enumerate(rng.standard_normal(r))]
        out = vals[gj_argmin(tr, vals)]
        assert out.numeric == min(v.numeric for v in vals)
        assert tr.predicate_count == math.comb(r, 2)
        assert tr.max_degree == 1


def test_power_trace_degree():
    rng = np.random.default_rng(1)
    for q in (1, 2, 5):
        _, tr = gjdemos.power_trace(rng.standard_normal((3, 3)),
                                    rng.standard_normal(3), q)
        assert tr.max_degree == q + 1
        assert tr.predicate_count == 0


def test_power_trace_numeric_matches_numpy():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4))
    pi = rng.standard_normal(4)
    out, _ = gjdemos.power_trace(m, pi, 3)
    np.testing.assert_allclose(out, m @ m @ m @ pi, rtol=1e-12)


def test_pdim_bound_values():
    tr = Trace()
    x = tr.input("x", 1.0)
    tr.branch(x)
    assert tr.max_degree == 1 and tr.predicate_count == 1
    assert pdim_bound(7, tr) == 7.0  # log2(max(2, 1)) = 1


def test_knapsack_demo_bound_scales_with_pair_count():
    values = [3.0, 5.0, 2.0, 4.0, 6.0]
    costs = [1.0, 2.0, 3.0, 4.0, 5.0]
    utility, tr = gjdemos.knapsack_trace(values, costs, capacity=7.0, rho=1.0)
    assert tr.predicate_count == math.comb(5, 2)
    assert tr.max_degree == 1
    assert pdim_bound(1, tr) == pytest.approx(math.log2(math.comb(5, 2)))
    # rho = 1 ranks by value/cost: 0, 1, 4, 3, 2; items 0, 1, 3 fit
    assert utility == pytest.approx(3.0 + 5.0 + 4.0)


def test_projection_trace_degree_and_numeric():
    rng = np.random.default_rng(3)
    for k in (2, 3, 4):
        z = rng.standard_normal((k, k))
        proj, tr = gjdemos.rowspace_projection_trace(z)
        assert tr.max_degree == 2 * k
        np.testing.assert_allclose(proj, projection_rowspace(z), atol=1e-9)
        np.testing.assert_allclose(proj, rowspace_projector_svd(z), atol=1e-9)


def test_traced_run_is_bit_identical_to_float_run():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((3, 4))
    traced, _ = gjdemos.rowspace_projection_trace(z)
    plain, _ = gjdemos.rowspace_projection_trace(z, tr=FloatBackend())
    assert traced.tolist() == plain.tolist()

    m = rng.standard_normal((3, 3))
    pi = rng.standard_normal(3)
    out_t, _ = gjdemos.power_trace(m, pi, 4)
    out_f, _ = gjdemos.power_trace(m, pi, 4, tr=FloatBackend())
    assert out_t.tolist() == out_f.tolist()


def test_degree_bounds_sound_against_symbolic_oracle():
    rng = np.random.default_rng(5)
    names = ["x", "y", "z"]
    for trial in range(10):
        tr = Trace()
        syms = sympy.symbols(names)
        point = rng.uniform(0.5, 2.0, 3)
        pool = [(tr.input(n, v), s)
                for n, v, s in zip(names, point, syms)]
        for _ in range(12):
            ia, ib = rng.integers(0, len(pool), 2)
            (ta, sa), (tb, sb) = pool[ia], pool[ib]
            op = rng.choice(["+", "-", "*", "/"])
            if op == "/" and tb.numeric == 0.0:
                op = "+"
            if op == "+":
                pool.append((ta + tb, sa + sb))
            elif op == "-":
                pool.append((ta - tb, sa - sb))
            elif op == "*":
                pool.append((ta * tb, sa * sb))
            else:
                pool.append((ta / tb, sa / sb))
        for traced, expr in pool[3:]:
            num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
            true_deg = max(sympy.total_degree(num), sympy.total_degree(den))
            assert true_deg <= traced.degree


def test_report_schema():
    tr = Trace()
    x = tr.input("x", 1.0)
    tr.branch(x - tr.const(2.0))
    report = tr.report()
    assert set(report) == {"n_inputs", "max_degree", "predicate_count",
                           "pdim_bound"}


def test_proxy_pipeline_trace_matches_numeric_and_stays_within_budget():
    from sketchlab.proxy import ProxyConfig, proxy_loss, q_iterations
    from sketchlab.sketching import random_sparse_sketch
    from sketchlab.synth import random_unit_matrix

    rng = np.random.default_rng(6)
    a = random_unit_matrix(rng, 3, 3)
    sk = random_sparse_sketch(2, 3, 1, rng)
    value, tr = gjdemos.proxy_pipeline_trace(sk, a, k=1, epsilon=0.5,
                                             q_constant=1.0)
    reference = proxy_loss(sk, a, 1, ProxyConfig(0.5, 5000, 1.0))
    assert value == pytest.approx(reference, abs=1e-8)
    q = q_iterations(0.5, 3, 1.0)
    m, k, d = 2, 1, 3
    assert tr.max_degree <= 64 * m * k * q
    assert tr.predicate_count <= 2**m * 2**k * max(1, math.comb(d, k)) ** 2
    assert tr.n_inputs == sk.n * sk.s

    replay, _ = gjdemos.proxy_pipeline_trace(sk, a, k=1, epsilon=0.5,
                                             q_constant=1.0, tr=FloatBackend())
    assert replay == value
    exact, _ = gjdemos.proxy_pipeline_trace(sk, a, k=1, epsilon=0.5,
                                            q_constant=1.0, tr=ExactBackend())
    assert exact == pytest.approx(reference, abs=1e-12)


@pytest.mark.parametrize("n, d, m", [(3, 3, 2), (4, 4, 3)])
def test_pipeline_float_replays_are_bit_identical_over_draws(n, d, m):
    # A float64 (not object) array anywhere in the pipeline sends @ through
    # BLAS, whose summation order differs from the traced one.
    from sketchlab.proxy import ProxyConfig, proxy_loss
    from sketchlab.sketching import random_sparse_sketch
    from sketchlab.synth import random_unit_matrix

    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_unit_matrix(rng, n, d)
        sk = random_sparse_sketch(m, n, 1, rng)
        value, _ = gjdemos.proxy_pipeline_trace(sk, a, k=1, epsilon=0.5)
        replay, _ = gjdemos.proxy_pipeline_trace(sk, a, k=1, epsilon=0.5,
                                                 tr=FloatBackend())
        assert replay == value
        exact, _ = gjdemos.proxy_pipeline_trace(sk, a, k=1, epsilon=0.5,
                                                tr=ExactBackend())
        reference = proxy_loss(sk, a, 1, ProxyConfig(0.5, 5000, 1.0))
        assert exact == pytest.approx(reference, abs=1e-12)


@pytest.mark.parametrize("k, epsilon", [(0, 0.5), (4, 0.5), (1.0, 0.5), (1, 1.0)],
                         ids=["k-zero", "k-above-min", "k-float", "epsilon-one"])
def test_proxy_pipeline_trace_refuses_what_proxy_loss_refuses(k, epsilon):
    # the same texts: ProxyConfig's epsilon rule, then the loss family's k
    # rule; the 4x3 instance has min(n, d) = 3
    from sketchlab.proxy import ProxyConfig, proxy_loss
    from sketchlab.sketching import random_sparse_sketch

    sk, a = random_sparse_sketch(2, 4, 1, 0), np.eye(4, 3)
    with pytest.raises(ValueError) as want:
        proxy_loss(sk, a, k, ProxyConfig(epsilon, q_constant=1.0))
    with pytest.raises(ValueError) as got:
        gjdemos.proxy_pipeline_trace(sk, a, k, epsilon)
    assert str(got.value) == str(want.value)


def test_proxy_pipeline_trace_refuses_a_dense_sketch_by_name():
    # its traced inputs are the slot values, so a dense sketch cannot be
    # traced, though proxy_loss takes one
    with pytest.raises(TypeError, match="^sketch must be a SparseSketch, got ndarray$"):
        gjdemos.proxy_pipeline_trace(np.ones((2, 4)), np.eye(4, 3), 1, 0.5)


class _BranchTypes(ExactBackend):
    """Exact backend that records the type of every branch argument."""

    def __init__(self):
        self.types = set()

    def branch(self, v):
        self.types.add(type(v))
        return super().branch(v)


def test_exact_replays_branch_on_exact_values():
    from sketchlab.sketching import random_sparse_sketch
    from sketchlab.synth import random_unit_matrix

    tr = _BranchTypes()
    gjdemos.knapsack_trace([3.0, 5.0, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0],
                           capacity=7.0, rho=1.0, tr=tr)
    assert tr.types == {Fraction}

    rng = np.random.default_rng(6)
    tr = _BranchTypes()
    gjdemos.proxy_pipeline_trace(random_sparse_sketch(2, 3, 1, rng),
                                 random_unit_matrix(rng, 3, 3), k=1,
                                 epsilon=0.5, tr=tr)
    assert tr.types == {Fraction}


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _assert_same_trace(tr, ref):
    assert tr.report() == ref.report()
    assert list(tr._node_ids.items()) == list(ref._node_ids.items())
    assert tr.predicate_nodes == ref.predicate_nodes


def _demo(name, rng, tr):
    from sketchlab.sketching import random_sparse_sketch
    from sketchlab.synth import random_unit_matrix

    if name == "power":
        return gjdemos.power_trace(rng.standard_normal((3, 3)),
                                   rng.standard_normal(3), 3, tr=tr)
    if name == "min-of-r":
        return gjdemos.min_trace(rng.standard_normal(5), tr=tr)
    if name == "projection":
        return gjdemos.rowspace_projection_trace(rng.standard_normal((3, 4)), tr=tr)
    if name == "knapsack":
        costs = np.sort(rng.uniform(1.0, 3.0, 6)) * np.arange(1, 7)
        return gjdemos.knapsack_trace(rng.uniform(1.0, 5.0, 6), costs,
                                      costs.sum() / 2, 1.0, tr=tr)
    return gjdemos.proxy_pipeline_trace(random_sparse_sketch(2, 3, 1, rng),
                                        random_unit_matrix(rng, 3, 3), 1, 0.5,
                                        tr=tr)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("demo", ["power", "min-of-r", "projection", "knapsack",
                                  "proxy-pipeline"])
def test_each_demo_traces_as_the_reference_tracer_does(demo, seed):
    out, tr = _demo(demo, np.random.default_rng(seed), Trace())
    ref_out, ref = _demo(demo, np.random.default_rng(seed), ReferenceTrace())
    _assert_same_trace(tr, ref)
    assert _bits(out) == _bits(ref_out)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}


def _run_program(tr, inputs, consts, program):
    """Run a straight-line program of ``+ - * /``, ``-x`` and branches,
    whose operands index (mod its length) a pool that starts with the
    inputs and constants and grows by each result.  Returns the pool as
    (node, degrees, float bits) and the branch outcomes, with a division
    by zero as the outcome "ZeroDivisionError"."""
    pool = ([tr.input(f"x{i}", v) for i, v in enumerate(inputs)]
            + [tr.const(c) for c in consts])
    outcomes = []
    for kind, i, j in program:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if kind == "branch":
            outcomes.append(tr.branch(a))
        elif kind == "neg":
            pool.append(-a)
        else:
            try:
                pool.append(_OPS[kind](a, b))
            except ZeroDivisionError:
                outcomes.append("ZeroDivisionError")
    return ([(v.node, v.num_deg, v.den_deg, struct.pack("<d", v.numeric))
             for v in pool], outcomes)


_floats64 = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_floats64, min_size=1, max_size=4),
       st.lists(st.one_of(_floats64, st.sampled_from([0.0, -0.0, 1.0, -1.0])),
                max_size=3),
       st.lists(st.tuples(st.sampled_from(["+", "-", "*", "/", "neg", "branch"]),
                          st.integers(0, 63), st.integers(0, 63)),
                min_size=1, max_size=40))
def test_straight_line_programs_trace_as_the_reference_tracer_does(inputs, consts,
                                                                   program):
    tr, ref = Trace(), ReferenceTrace()
    assert _run_program(tr, inputs, consts, program) == \
        _run_program(ref, inputs, consts, program)
    _assert_same_trace(tr, ref)


def test_traced_value_is_a_slotted_record_compared_by_identity():
    tr = Trace()
    x = tr.input("x", 1.5)
    a, b = x * x, x * x  # one node, two records
    assert a.node == b.node and a != b and a == a
    assert not hasattr(a, "__dict__")
    assert repr(x) == "TracedValue(node=0, num_deg=1, den_deg=0, numeric=1.5)"
    with pytest.raises(ValueError, match="^unknown operator '%'$"):
        tr.op(x, x, "%")
