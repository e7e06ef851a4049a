"""Linear algebra kernel against independent numpy/enumeration oracles."""

from itertools import combinations

import numpy as np
import pytest

from specspan import linalg
from conftest import principal_minor_detk, random_psd


class TestSymEig:
    def test_identity(self):
        w, _ = linalg.sym_eig(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        w, _ = linalg.sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(w, [3.0, 2.0, 1.0])

    def test_random_gram_reconstruction(self, rng):
        for _ in range(10):
            a = random_psd(rng, 5)
            w, vecs = linalg.sym_eig(a)
            recon = (vecs * w) @ vecs.T
            norm_a = np.linalg.norm(a)
            assert np.linalg.norm(recon - a) <= 1e-9 * (1.0 + norm_a)
            assert np.linalg.norm(vecs.T @ vecs - np.eye(5)) <= 1e-9

    def test_matches_numpy_eigenvalues(self, rng):
        for d in (2, 3, 7, 12):
            a = random_psd(rng, d) - random_psd(rng, d)  # indefinite
            a = (a + a.T) / 2
            w, _ = linalg.sym_eig(a)
            ref = np.sort(np.linalg.eigvalsh(a))[::-1]
            assert np.allclose(w, ref, atol=1e-9 * (1 + np.linalg.norm(a)))

    def test_deterministic(self, rng):
        a = random_psd(rng, 6)
        w1, v1 = linalg.sym_eig(a)
        w2, v2 = linalg.sym_eig(a)
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)

    def test_one_dimensional(self):
        w, vecs = linalg.sym_eig(np.array([[4.0]]))
        assert w[0] == 4.0 and vecs[0, 0] == 1.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            linalg.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestDetK:
    def test_identity_binomial(self):
        assert linalg.det_k(np.eye(3), 2) == pytest.approx(3.0)

    def test_diagonal(self):
        assert linalg.det_k(np.diag([1.0, 2.0, 3.0]), 2) == pytest.approx(11.0)

    def test_random_gram_vs_minor_oracle(self, rng):
        a = random_psd(rng, 4)
        oracle = principal_minor_detk(a, 3)
        assert linalg.det_k(a, 3) == pytest.approx(oracle, rel=1e-8)

    def test_minor_oracle_sweep(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 7))
            a = random_psd(rng, d)
            for k in range(1, d + 1):
                oracle = principal_minor_detk(a, k)
                assert linalg.det_k(a, k) == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            linalg.det_k(np.eye(3), 0)
        with pytest.raises(ValueError):
            linalg.det_k(np.eye(3), 4)

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError):
            linalg.det_k(-np.eye(3), 2)

    def test_clamps_roundoff_negatives(self):
        a = np.diag([1.0, -1e-12])
        assert linalg.det_k(a, 2) == pytest.approx(0.0, abs=1e-12)


class TestCauchyBinet:
    def test_identity_over_subsets(self, rng):
        # det_k of the full Gram sum equals the sum over all k-subsets
        for _ in range(10):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(2, 6))
            k = int(rng.integers(1, d + 1))
            x = rng.standard_normal((n, d))
            a = x.T @ x
            lhs = linalg.det_k(a, k)
            rhs = 0.0
            for rows in combinations(range(n), k):
                sub = x[list(rows)]
                rhs += linalg.det_k(sub.T @ sub, k)
            floor = 1e-12 * (1.0 + float(np.trace(a))) ** k
            assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs), floor)


class TestOrderCheck:
    def test_trace_order(self):
        assert linalg.preceq_k(np.diag([1.0, 0.0]), np.diag([0.0, 2.0]), 1)

    def test_full_order_fails(self):
        assert not linalg.preceq_k(np.diag([1.0, 0.0]), np.diag([0.0, 2.0]), 2)

    def test_psd_shift_dominates_every_order(self, rng):
        a = random_psd(rng, 4)
        w = rng.standard_normal(4)
        b = a + np.outer(w, w)
        for k in range(1, 5):
            assert linalg.preceq_k(a, b, k)

    def test_agrees_with_psd_check_at_k_eq_d(self, rng):
        for _ in range(20):
            a = random_psd(rng, 3)
            b = random_psd(rng, 3)
            direct = float(np.min(np.linalg.eigvalsh(b - a))) >= -1e-9 * (
                1 + np.linalg.norm(a) + np.linalg.norm(b))
            assert linalg.preceq_k(a, b, 3) == direct

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.preceq_k(np.eye(2), np.eye(3), 1)

    def test_extremal_partial_trace(self, rng):
        # sum_i x_i^T L x_i >= sum of the n smallest eigenvalues of L
        for _ in range(20):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(1, d + 1))
            l = rng.standard_normal((d, d))
            l = (l + l.T) / 2
            x = linalg.gram_schmidt(rng.standard_normal((n, d)))
            assert x.shape[0] == n
            quad = float(sum(row @ l @ row for row in x))
            tail = float(np.sum(np.sort(np.linalg.eigvalsh(l))[:n]))
            assert quad >= tail - 1e-9

    def test_projection_sum_inequality(self, rng):
        # <(u+v)(u+v)^T, Pi> <= 2 <uu^T + vv^T, Pi> for any projection Pi
        for _ in range(20):
            d = 6
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            r = int(rng.integers(1, d + 1))
            basis = linalg.gram_schmidt(rng.standard_normal((r, d)))
            pi = basis.T @ basis
            s = u + v
            lhs = float(s @ pi @ s)
            rhs = 2.0 * float(u @ pi @ u + v @ pi @ v)
            assert lhs <= rhs + 1e-9


class TestProjection:
    def test_own_span_is_zero(self):
        e1 = np.array([1.0, 0.0])
        assert np.allclose(linalg.project_orth(e1, [e1]), 0.0)

    def test_partial(self):
        e1 = np.array([1.0, 0.0])
        out = linalg.project_orth(np.array([1.0, 1.0]), [e1])
        assert np.allclose(out, [0.0, 1.0])

    def test_random_orthogonality(self, rng):
        v = rng.standard_normal(6)
        basis = linalg.gram_schmidt(rng.standard_normal((3, 6)))
        out = linalg.project_orth(v, basis)
        assert np.all(np.abs(basis @ out) <= 1e-10)


class TestGramSchmidt:
    def test_duplicate_dropped(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        basis = linalg.gram_schmidt([e1, e1, e2])
        assert basis.shape == (2, 2)
        assert np.allclose(basis, [e1, e2])

    def test_normalization(self):
        basis = linalg.gram_schmidt([np.array([2.0, 0.0])])
        assert np.allclose(basis, [[1.0, 0.0]])

    def test_rank_of_generic_input(self, rng):
        basis = linalg.gram_schmidt(rng.standard_normal((5, 3)))
        assert basis.shape[0] == 3
        assert np.linalg.norm(basis @ basis.T - np.eye(3)) <= 1e-9

    def test_preserves_span(self, rng):
        x = rng.standard_normal((4, 6))
        basis = linalg.gram_schmidt(x)
        for row in x:  # every input is reproduced by its projection
            proj = basis.T @ (basis @ row)
            assert np.allclose(proj, row, atol=1e-9)


class TestCholeskyHelpers:
    def test_det_gram_matches_numpy(self, rng):
        for _ in range(10):
            a = random_psd(rng, 4)
            assert linalg.det_gram(a) == pytest.approx(float(np.linalg.det(a)), rel=1e-9)

    def test_det_gram_singular_is_zero(self, rng):
        a = random_psd(rng, 4, rank=2)
        assert linalg.det_gram(a) == 0.0

    def test_solve_spd(self, rng):
        a = random_psd(rng, 5) + np.eye(5)
        b = rng.standard_normal(5)
        x = linalg.solve_spd(a, b)
        assert np.allclose(a @ x, b, atol=1e-9)

    def test_inv_spd(self, rng):
        a = random_psd(rng, 4) + np.eye(4)
        assert np.allclose(linalg.inv_spd(a) @ a, np.eye(4), atol=1e-9)
