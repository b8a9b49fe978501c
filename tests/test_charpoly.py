import numpy as np
import pytest

from sketchlab import charpoly
from sketchlab.charpoly import (
    CharpolyOverflowError,
    SingularMatrixError,
    charpoly_coefficients,
    charpoly_free_coeff,
    charpoly_inverse,
    greedy_row_basis,
    is_numerically_singular,
    projection_rowspace,
)
from sketchlab.linalg import pinv

from oracles import cofactor_det, gauss_inverse, rowspace_projector_svd


def test_charpoly_identity():
    coeffs = charpoly_coefficients(np.eye(2))
    np.testing.assert_allclose(coeffs, [1.0, -2.0, 1.0])
    assert charpoly_free_coeff(np.eye(2)) == 1.0


def test_charpoly_annihilates_eigenvalues():
    rng = np.random.default_rng(0)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        m = rng.standard_normal((k, k))
        coeffs = charpoly_coefficients(m)
        for lam in np.linalg.eigvals(m):
            val = sum(c * lam ** (k - i) for i, c in enumerate(coeffs))
            assert abs(val) <= 1e-6 * (1 + abs(lam)) ** k


def test_free_coeff_matches_cofactor_determinant():
    rng = np.random.default_rng(1)
    for k in (2, 3, 4):
        m = rng.standard_normal((k, k))
        expected = (-1.0) ** k * cofactor_det(m)
        assert abs(charpoly_free_coeff(m) - expected) < 1e-10 * max(1, abs(expected))


def test_free_coeff_of_singular_matrix_is_tiny():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert is_numerically_singular(m)


def test_inverse_identity_and_diagonal():
    np.testing.assert_allclose(charpoly_inverse(np.eye(2)), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(charpoly_inverse(np.diag([2.0, 4.0])),
                               np.diag([0.5, 0.25]), atol=1e-14)


def test_inverse_matches_elimination_oracle():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    np.testing.assert_allclose(charpoly_inverse(m), gauss_inverse(m), atol=1e-8)


def test_inverse_residual_contract():
    rng = np.random.default_rng(3)
    for k in (2, 3, 5, 8):
        m = rng.standard_normal((k, k)) + 2.0 * k * np.eye(k)
        res = np.linalg.norm(m @ charpoly_inverse(m) - np.eye(k))
        assert res <= 1e-7 * k


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrixError):
        charpoly_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        charpoly_inverse(np.array([[0.0]]))


def test_singularity_test_accepts_well_conditioned_up_to_size_16():
    rng = np.random.default_rng(11)
    for k in range(2, 17):
        assert not is_numerically_singular(np.eye(k))
        m = rng.uniform(-1.0, 1.0, (k, k))
        np.fill_diagonal(m, 0.0)
        signs = np.where(rng.random(k) < 0.5, -1.0, 1.0)
        m += np.diag(signs * (np.abs(m).sum(axis=1) + 1.0))  # dominant
        assert not is_numerically_singular(m)


@pytest.mark.parametrize("k", [17, 19, 20])
def test_exact_verdicts_hold_above_size_16(k):
    # no size limit: |det(M / ||M||_F)| shrinking like k^(-k/2) does not
    # matter to an exact zero test
    assert not is_numerically_singular(np.eye(k))
    np.testing.assert_array_equal(charpoly_inverse(np.eye(k)), np.eye(k))
    assert is_numerically_singular(np.ones((k, k)))


def test_near_singular_matrix_is_inverted_exactly():
    # det = 2^-40: nonsingular in exact arithmetic, and each entry of the
    # result is the correctly rounded entry of the exact inverse
    e = 2.0**-40
    m = np.array([[1.0, 2.0], [2.0, 4.0 + e]])
    assert not is_numerically_singular(m)
    assert charpoly_free_coeff(m) == e
    np.testing.assert_array_equal(charpoly_inverse(m),
                                  np.array([[4.0 + e, -2.0], [-2.0, 1.0]]) / e)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("fn", [charpoly_coefficients, charpoly_free_coeff,
                                is_numerically_singular, charpoly_inverse,
                                greedy_row_basis, projection_rowspace])
def test_non_finite_entries_are_rejected(fn, bad):
    m = np.eye(3)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        fn(m)


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
def test_singularity_test_and_inverse_are_scale_free(scale):
    m = np.random.default_rng(10).standard_normal((4, 4))
    assert not is_numerically_singular(scale * m)
    assert is_numerically_singular(scale * np.array([[1.0, 2.0], [2.0, 4.0]]))
    x = charpoly_inverse(scale * m)
    assert np.linalg.norm((scale * m) @ x - np.eye(4)) <= 1e-7 * 4
    np.testing.assert_allclose(scale * x, charpoly_inverse(m), rtol=1e-8)
    # full rank, but the free coefficient 1e-400 rounds to 0.0
    assert charpoly_free_coeff(1e-200 * np.eye(2)) == 0.0
    assert not is_numerically_singular(1e-200 * np.eye(2))


def test_charpoly_overflow_is_a_named_error():
    m = np.random.default_rng(10).standard_normal((4, 4))
    with pytest.raises(CharpolyOverflowError):
        charpoly_coefficients(1e100 * m)
    assert np.isfinite(charpoly_coefficients(1e-100 * m)).all()


def test_greedy_basis_duplicate_rows():
    z = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0]])
    y = greedy_row_basis(z)
    assert y.shape == (1, 3)
    np.testing.assert_array_equal(y[0], z[0])


def test_greedy_basis_full_rank_keeps_all():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((3, 5))
    np.testing.assert_array_equal(greedy_row_basis(z), z)


def test_greedy_basis_rank_two():
    rng = np.random.default_rng(5)
    # small-integer factors: exactly rank 2, not only up to rounding
    factors = (rng.integers(-3, 4, (4, 2)).astype(float)
               @ rng.integers(-3, 4, (2, 6)))
    y = greedy_row_basis(factors)
    assert y.shape[0] == 2
    np.testing.assert_allclose(rowspace_projector_svd(y),
                               rowspace_projector_svd(factors), atol=1e-8)


def test_greedy_basis_zero_matrix():
    assert greedy_row_basis(np.zeros((3, 4))).shape == (0, 4)


def test_projection_reuses_the_last_kept_recurrence(monkeypatch):
    sizes = []
    fl = charpoly._fl

    def counting_fl(tr, m):
        sizes.append(len(m))
        return fl(tr, m)

    monkeypatch.setattr(charpoly, "_fl", counting_fl)
    z = np.random.default_rng(11).standard_normal((4, 6))
    np.testing.assert_allclose(projection_rowspace(z),
                               rowspace_projector_svd(z), atol=1e-10)
    assert sizes == [1, 2, 3, 4]


def test_projection_single_basis_row():
    z = np.zeros((1, 4))
    z[0, 0] = 1.0
    np.testing.assert_allclose(projection_rowspace(z), np.diag([1.0, 0, 0, 0]),
                               atol=1e-12)


def test_projection_orthonormal_rows():
    q = np.linalg.qr(np.random.default_rng(6).standard_normal((5, 3)))[0].T
    np.testing.assert_allclose(projection_rowspace(q), q.T @ q, atol=1e-10)


def test_projection_matches_pinv_route():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rank = int(rng.integers(1, 4))
        z = (rng.integers(-3, 4, (4, rank)).astype(float)
             @ rng.integers(-3, 4, (rank, 6)))
        np.testing.assert_allclose(projection_rowspace(z), pinv(z) @ z, atol=1e-7)


def test_projection_zero_matrix():
    np.testing.assert_array_equal(projection_rowspace(np.zeros((2, 3))),
                                  np.zeros((3, 3)))


def test_projection_idempotent_symmetric_and_fixes_rows():
    rng = np.random.default_rng(8)
    for _ in range(25):
        k, d = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        z = rng.standard_normal((k, d))
        p = projection_rowspace(z)
        assert np.abs(p @ p - p).max() < 1e-7
        assert np.abs(p - p.T).max() < 1e-7
        assert np.abs(z @ p - z).max() < 1e-7


def test_projection_invariant_under_row_permutation():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((4, 5))
    p_ref = projection_rowspace(z)
    for _ in range(5):
        perm = rng.permutation(4)
        assert np.abs(projection_rowspace(z[perm]) - p_ref).max() < 1e-7
