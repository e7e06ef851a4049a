"""Linear algebra kernel against independent numpy/enumeration oracles."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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

    def test_precomputed_factor_gives_same_bits(self, rng):
        a = random_psd(rng, 5) + np.eye(5)
        low = linalg.cholesky_spd(a)
        b = rng.standard_normal((5, 3))
        assert np.array_equal(linalg.solve_spd(a, b, low), linalg.solve_spd(a, b))
        assert np.array_equal(linalg.inv_spd(a, low), linalg.inv_spd(a))
        assert linalg.logdet_spd(low) == pytest.approx(math.log(np.linalg.det(a)), abs=1e-10)
        assert linalg.logdet_spd(None) == -math.inf


def gram_stack(rng, b: int, k: int, d: int, scale: float = 1.0) -> np.ndarray:
    rows = rng.standard_normal((b, k, d)) * scale
    return rows @ rows.transpose(0, 2, 1)


class TestStackedCholesky:
    @pytest.mark.parametrize("k", [1, 2, 5, 12, 16])
    def test_det_matches_numpy(self, rng, k):
        g = gram_stack(rng, 50, k, k + 3, scale=float(rng.uniform(0.1, 10.0)))
        dets = linalg.det_gram(g)
        assert dets.shape == (50,)
        assert np.allclose(dets, np.linalg.det(g), rtol=1e-9, atol=0.0)

    def test_factor_reconstructs(self, rng):
        g = gram_stack(rng, 20, 6, 9)
        low = linalg.cholesky_spd(g)
        assert np.array_equal(low, np.tril(low))
        assert np.allclose(low @ low.transpose(0, 2, 1), g, rtol=1e-12, atol=1e-12)

    def test_singular_members_are_zero_and_isolated(self, rng):
        g = gram_stack(rng, 9, 5, 8)
        g[[1, 4, 8]] = gram_stack(rng, 3, 5, 3)  # rank 3 < 5
        g[6] = 0.0
        low = linalg.cholesky_spd(g)
        dets = linalg.det_gram(g)
        for i in (1, 4, 6, 8):
            assert dets[i] == 0.0
            assert not np.any(low[i])
        for i in (0, 2, 3, 5, 7):
            assert dets[i] == pytest.approx(float(np.linalg.det(g[i])), rel=1e-9)

    def test_repeated_rows_score_zero(self, rng):
        # rounding draws may pick one vector twice: such a Gram is singular
        x = rng.standard_normal((6, 4))
        sets = np.array([[0, 1, 2], [3, 3, 1], [5, 2, 5], [4, 0, 1], [2, 2, 2]])
        xs = x[sets]
        dets = linalg.det_gram(xs @ xs.transpose(0, 2, 1))
        assert dets[1] == dets[2] == dets[4] == 0.0
        for i in (0, 3):
            rows = x[sets[i]]
            assert dets[i] == pytest.approx(float(np.linalg.det(rows @ rows.T)), rel=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 5, 12, 16])
    def test_member_bits_equal_batch_of_one(self, rng, k):
        g = gram_stack(rng, 300, k, k + 1, scale=float(rng.uniform(0.1, 10.0)))
        g[::7] = gram_stack(rng, len(g[::7]), k, max(k - 1, 1))  # some singular
        low = linalg.cholesky_spd(g)
        dets = linalg.det_gram(g)
        for i in range(len(g)):
            one = linalg.cholesky_spd(g[i])
            if one is None:
                assert not np.any(low[i])
            else:
                assert np.array_equal(one, low[i])
            assert linalg.det_gram(g[i]) == dets[i]

    def test_empty_matrices(self):
        assert linalg.det_gram(np.zeros((0, 0))) == 1.0
        assert np.array_equal(linalg.det_gram(np.zeros((3, 0, 0))), np.ones(3))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def one_rotation(rng, d: int) -> np.ndarray:
    """Diagonal but for one 2x2 block: one rotation diagonalizes it."""
    a = np.diag(rng.uniform(1.0, 5.0, size=d))
    a[0, 1] = a[1, 0] = 0.7
    return a


class TestStackedJacobi:
    def assert_members_are_lone_calls(self, stack):
        eig = linalg.sym_eig(stack)
        assert eig.eigenvalues.shape == stack.shape[:2]
        assert eig.eigenvectors.shape == stack.shape
        for i, a in enumerate(stack):
            w, vecs = linalg.sym_eig(a)
            assert same_bits(eig.eigenvalues[i], w)
            assert same_bits(eig.eigenvectors[i], vecs)

    @pytest.mark.parametrize("d", [2, 3, 5, 12, 16])
    def test_generic_members_are_lone_calls(self, rng, d):
        # every member takes every rotation of the first sweep
        self.assert_members_are_lone_calls(gram_stack(rng, 9, d, d + 2))

    @pytest.mark.parametrize("d", [2, 5, 12])
    def test_mixed_members_are_lone_calls(self, rng, d):
        members = [random_psd(rng, d) - random_psd(rng, d),  # indefinite
                   np.diag(rng.standard_normal(d)),          # already diagonal
                   one_rotation(rng, d),
                   np.zeros((d, d)),
                   1e6 * random_psd(rng, d, rank=1),          # rank one, large
                   1e-6 * random_psd(rng, d)]
        a = random_psd(rng, d)
        members.append(a + a[::-1, ::-1])                    # paired eigenvalues
        self.assert_members_are_lone_calls(np.array(members))

    def test_members_converge_at_different_sweeps(self, rng, monkeypatch):
        diag, single, generic = np.diag([3.0, 1.0, 2.0]), one_rotation(rng, 3), random_psd(rng, 3)
        stack = np.array([diag, single, generic])
        self.assert_members_are_lone_calls(stack)
        monkeypatch.setattr(linalg, "EIG_SWEEP_CAP", 1)
        linalg.sym_eig(diag)  # done within one sweep
        linalg.sym_eig(single)
        with pytest.raises(RuntimeError, match="sweep cap"):
            linalg.sym_eig(generic)
        with pytest.raises(RuntimeError, match="sweep cap"):
            linalg.sym_eig(stack)
        self.assert_members_are_lone_calls(stack[:2])

    def test_one_dimensional_members(self):
        eig = linalg.sym_eig(np.array([[[4.0]], [[-2.0]], [[0.0]]]))
        assert np.array_equal(eig.eigenvalues, [[4.0], [-2.0], [0.0]])
        assert np.array_equal(eig.eigenvectors, np.ones((3, 1, 1)))

    @pytest.mark.parametrize("d", [0, 4])
    def test_empty_stack(self, d):
        eig = linalg.sym_eig(np.zeros((0, d, d)))
        assert eig.eigenvalues.shape == (0, d)
        assert eig.eigenvectors.shape == (0, d, d)

    def test_upper_triangle_is_mirrored(self, rng):
        a = random_psd(rng, 4)
        b = a.copy()
        b[2, 0] += 1e-12  # within the symmetry tolerance
        eig = linalg.sym_eig(np.array([b, a]))
        assert same_bits(eig.eigenvalues[0], eig.eigenvalues[1])

    def test_validates_every_member(self, rng):
        a = random_psd(rng, 3)
        skew = a.copy()
        skew[0, 1] += 1.0
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.sym_eig(np.array([a, skew]))
        bad = a.copy()
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            linalg.sym_eig(np.array([a, bad]))
        with pytest.raises(ValueError, match="stack"):
            linalg.sym_eig(np.zeros((2, 3, 4)))


SPECTRUM_KINDS = ("clustered", "repeated", "wide")


@st.composite
def spectral_matrices(draw, signed: bool):
    """Q diag(lam) Q^T with a random orthogonal Q and a structured spectrum."""
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(SPECTRUM_KINDS))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "clustered":
        centers = gen.uniform(0.1, 10.0, size=2)
        lam = gen.choice(centers, d) * (1.0 + 1e-9 * gen.standard_normal(d))
    elif kind == "repeated":
        lam = gen.choice(gen.uniform(0.0, 10.0, size=2), d)
    else:
        lam = 10.0 ** gen.uniform(-8.0, 8.0, size=d)
    if signed:
        lam = lam * gen.choice([-1.0, 1.0], d)
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    a = (q * lam) @ q.T
    return (a + a.T) / 2.0


def elementary_symmetric(lam: np.ndarray, k: int) -> float:
    return abs(float(np.poly(lam)[k]))  # coefficients of prod(x - lam_i)


class TestSpectraAgainstNumpy:
    @given(spectral_matrices(signed=True))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_sym_eig(self, a):
        w, vecs = linalg.sym_eig(a)
        d, norm_a = a.shape[0], float(np.linalg.norm(a))
        assert np.allclose(w, np.linalg.eigvalsh(a)[::-1], rtol=0.0, atol=1e-10 * norm_a)
        assert np.linalg.norm((vecs * w) @ vecs.T - a) <= 1e-9 * norm_a
        assert np.linalg.norm(vecs.T @ vecs - np.eye(d)) <= 1e-9

    @given(spectral_matrices(signed=False), st.integers(1, 8))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_det_k(self, a, k):
        d = a.shape[0]
        k = min(k, d)
        lam = np.maximum(np.linalg.eigvalsh(a), 0.0)
        delta = 1e-9 * float(np.linalg.norm(a))  # both eigensolvers are this close
        lo = elementary_symmetric(np.maximum(lam - delta, 0.0), k)
        hi = elementary_symmetric(lam + delta, k)
        assert lo * (1 - 1e-9) <= linalg.det_k(a, k) <= hi * (1 + 1e-9)

    @given(spectral_matrices(signed=True), st.integers(1, 8))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_preceq_k(self, m, k):
        d = m.shape[0]
        k = min(k, d)
        base = np.diag(np.arange(1.0, d + 1.0))
        b = base + m
        norm_a, norm_b = float(np.linalg.norm(base)), float(np.linalg.norm(b))
        bar = -linalg.DEFAULT_ORDER_TOL * (1.0 + norm_a + norm_b)
        tail = float(np.sum(np.linalg.eigvalsh(b - base)[::-1][k - 1:]))
        assume(abs(tail - bar) > 1e-8 * (1.0 + norm_b))  # clear of the threshold
        assert linalg.preceq_k(base, b, k) == (tail >= bar)
