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

    @pytest.mark.parametrize("value", [4.0, -2.0, 0.0])
    def test_one_dimensional(self, value):
        w, vecs = linalg.sym_eig(np.array([[value]]))
        assert np.array_equal(w, [value]) and np.array_equal(vecs, [[1.0]])

    @pytest.mark.parametrize("d", [2, 5, 12])
    def test_zero_matrix(self, d):
        w, vecs = linalg.sym_eig(np.zeros((d, d)))
        assert np.array_equal(w, np.zeros(d)) and np.array_equal(vecs, np.eye(d))

    @pytest.mark.parametrize("d", [2, 5, 12])
    def test_large_rank_one(self, rng, d):
        a = 1e6 * random_psd(rng, d, rank=1)
        w, vecs = linalg.sym_eig(a)
        norm_a = float(np.linalg.norm(a))
        assert np.allclose(w, np.linalg.eigvalsh(a)[::-1], rtol=0.0, atol=1e-10 * norm_a)
        assert np.linalg.norm((vecs * w) @ vecs.T - a) <= 1e-9 * norm_a
        assert np.linalg.norm(vecs.T @ vecs - np.eye(d)) <= 1e-9

    def test_sweep_cap(self, rng, monkeypatch):
        diag = np.diag([3.0, 1.0, 2.0])
        single = np.diag([2.0, 4.0, 1.5])  # diagonal but for one 2x2 block
        single[0, 1] = single[1, 0] = 0.7
        monkeypatch.setattr(linalg, "EIG_SWEEP_CAP", 1)
        linalg.sym_eig(diag)  # done within one sweep
        linalg.sym_eig(single)
        with pytest.raises(RuntimeError, match="sweep cap"):
            linalg.sym_eig(random_psd(rng, 3))

    def test_upper_triangle_is_mirrored(self, rng):
        a = random_psd(rng, 4)
        b = a.copy()
        b[2, 0] += 1e-12  # within the symmetry tolerance
        for got, want in zip(linalg.sym_eig(b), linalg.sym_eig(a)):
            assert got.tobytes() == want.tobytes()

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, rng, bad):
        a = random_psd(rng, 3)
        a[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linalg.sym_eig(a)

    @pytest.mark.parametrize("shape", [(2, 3, 3), (0, 4, 4), (3, 4), (3,)])
    def test_rejects_non_square_input(self, shape):
        # one matrix at a time: a (b, d, d) stack is rejected like any other shape
        with pytest.raises(ValueError, match="expected a square matrix"):
            linalg.sym_eig(np.zeros(shape))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_argument_unchanged(self, rng, order):
        g = rng.standard_normal((6, 6))
        a = np.array(g + g.T, order=order)
        before = a.tobytes(order="A")
        linalg.sym_eig(a)
        assert a.tobytes(order="A") == before and a.flags.f_contiguous == (order == "F")

    def test_tolerance_read_at_call_time(self, rng, monkeypatch):
        # a target above any off-diagonal norm: no rotation runs
        a = random_psd(rng, 5)
        monkeypatch.setattr(linalg, "EIG_OFFDIAG_REL", 10.0)
        w, vecs = linalg.sym_eig(a)
        assert np.array_equal(w, np.sort(np.diag(a))[::-1])
        assert np.array_equal(np.abs(vecs).sum(axis=0), np.ones(5))

    @pytest.mark.parametrize("scale", [1e300, 1e-300, 1e-160])
    def test_accurate_at_the_ends_of_the_float_range(self, scale):
        # unscaled, the stop test's squares overflow (1e300) or underflow
        # (1e-300, 1e-160) and the sweeps stop early or never start
        x = np.random.default_rng(0).standard_normal((8, 5))
        m = scale * (x.T @ x)
        w, vecs = linalg.sym_eig(m)
        ref = np.linalg.eigvalsh(m)[::-1]
        assert np.max(np.abs(w - ref) / ref) <= 1e-13
        assert np.linalg.norm(vecs.T @ vecs - np.eye(5)) <= 1e-9


def _slice_jacobi(m: np.ndarray) -> np.ndarray:
    """Reference cyclic Jacobi: each rotation is a numpy update of whole rows
    and columns.  A frozen copy of the kernel's numpy form, kept to pin
    linalg._jacobi's bits."""
    d = m.shape[0]
    vecs = np.eye(d)
    target = linalg.EIG_OFFDIAG_REL * math.sqrt(float(np.sum(m * m)))
    for _ in range(linalg.EIG_SWEEP_CAP):
        off = math.sqrt(2.0 * float(np.sum(np.triu(m, k=1) ** 2)))
        if off <= target:
            return vecs
        skip = off / (d * d) * 1e-2
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = m[p, q]
                if abs(apq) <= skip:
                    continue
                app, aqq = m[p, p], m[q, q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                colp = m[:, p].copy()
                colq = m[:, q].copy()
                m[:, p] = m[p, :] = c * colp - s * colq
                m[:, q] = m[q, :] = s * colp + c * colq
                m[p, p] = app - t * apq
                m[q, q] = aqq + t * apq
                m[p, q] = 0.0
                m[q, p] = 0.0
                vp = vecs[:, p].copy()
                vq = vecs[:, q].copy()
                vecs[:, p] = c * vp - s * vq
                vecs[:, q] = s * vp + c * vq
    raise AssertionError("reference Jacobi did not converge")


def _kernel_inputs(rng: np.random.Generator, d: int):
    x = rng.standard_normal((d + 3, d))
    g = rng.standard_normal((d, d))
    v = rng.standard_normal(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return {
        "gram": x.T @ x,
        "indefinite": g + g.T,
        "diagonal": np.diag(rng.standard_normal(d)),
        "rank_one": np.outer(v, v),
        "zero": np.zeros((d, d)),
        "clustered": (q * (1.0 + 1e-9 * rng.choice([-1.0, 1.0], d))) @ q.T,
    }


@pytest.mark.parametrize("d", range(1, 17))
def test_jacobi_bits_match_slice_reference(d):
    rng = np.random.default_rng(1000 + d)
    for name, a in _kernel_inputs(rng, d).items():
        for scale in (1e-150, 1.0, 1e150):
            m = linalg.as_sym_matrix(scale * a)
            # the same exact power-of-two prescale as sym_eig, undone on the eigenvalues
            unit = linalg.unit_scale(m)
            ref = unit * m
            ref_vecs = _slice_jacobi(ref)
            ref_w = np.diag(ref) / unit
            order = np.argsort(-ref_w, kind="stable")
            w, vecs = linalg.sym_eig(m)
            assert w.tobytes() == ref_w[order].tobytes(), (name, scale)
            assert vecs.tobytes() == ref_vecs[:, order].tobytes(), (name, scale)


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

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
    def test_scale_free(self, rng, scale):
        # the row norms once underflowed below about 1e-154 (and overflowed
        # above 1e154), and the basis came out empty
        x = rng.standard_normal((4, 6))
        assert np.allclose(linalg.gram_schmidt(scale * x), linalg.gram_schmidt(x),
                           rtol=0.0, atol=1e-12)

    def test_keeps_a_row_far_below_the_largest(self):
        # scaled by the largest row's power of two, the short row's squares
        # once underflowed and it was dropped
        basis = linalg.gram_schmidt([[1.0, 0.0], [0.0, 1e-170]])
        assert np.array_equal(basis, np.eye(2))

    @pytest.mark.parametrize("sine", [1e-9, 3e-10])
    def test_orthonormal_with_a_nearly_dependent_row(self, sine):
        # the last row is at `sine` to the span of the rows before it; one
        # pass of the step leaves its unit vector about 6e-6 off orthogonal
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        x = rng.standard_normal((5, 5)) @ q[:, :5].T
        w = x.sum(axis=0) / np.linalg.norm(x.sum(axis=0))
        near = math.sqrt(1.0 - sine ** 2) * w + sine * q[:, 5]
        basis = linalg.gram_schmidt(np.vstack([x, near]))
        assert basis.shape == (6, 8)
        assert np.max(np.abs(basis @ basis.T - np.eye(6))) <= 1e-14

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8),
           st.integers(1, 6), st.lists(st.integers(-60, 60), min_size=8, max_size=8))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_rank_and_span_at_any_row_scale(self, seed, d, n, r, exps):
        # a row is kept against its own norm: rows far below the largest are
        # neither dropped for their size nor kept for their rounding noise
        gen = np.random.default_rng(seed)
        r = min(r, d, n)
        rows = gen.standard_normal((n, r)) @ gen.standard_normal((r, d))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        x = rows * np.ldexp(1.0, exps[:n])[:, None]
        basis = linalg.gram_schmidt(x)
        assert len(basis) == np.linalg.matrix_rank(rows)
        assert np.max(np.abs(basis @ basis.T - np.eye(len(basis))), initial=0.0) <= 1e-12
        resid = x - (x @ basis.T) @ basis
        assert np.all(np.linalg.norm(resid, axis=1) <= 1e-12 * np.linalg.norm(x, axis=1))


class TestUnitScale:
    def test_largest_row_near_unit_norm(self, rng):
        for _ in range(50):
            x = rng.standard_normal((int(rng.integers(1, 5)), 4))
            x *= 10.0 ** rng.uniform(-300, 300, size=(len(x), 1))
            for a in (x, x[0]):  # a matrix, and a vector
                s = linalg.unit_scale(a)
                assert math.frexp(s)[0] == 0.5  # a power of two
                top = float(np.max(np.linalg.norm(np.atleast_2d(s * a), axis=1)))
                assert 2.0 ** -0.5 <= top <= 2.0 ** 0.5

    def test_edge_inputs(self):
        assert linalg.unit_scale(np.eye(3)) == 1.0
        assert linalg.unit_scale(np.zeros((2, 3))) == 1.0
        # a subnormal input gets the largest factor, not an OverflowError
        assert linalg.unit_scale(np.array([5e-324, 0.0])) == 2.0 ** 1023
        # a norm above the float range, of finite entries: no OverflowError
        assert linalg.unit_scale([1.7e308, 1.7e308]) == 2.0 ** -1024
        assert linalg.unit_scale([[1.0, 0.0], [1.7e308, 1.7e308]]) == 2.0 ** -1024


class TestRowScales:
    def test_largest_entry_into_half_open_unit(self, rng):
        x = rng.standard_normal((40, 3)) * 10.0 ** rng.uniform(-300, 300, size=(40, 1))
        s = linalg.row_scales(x)
        assert np.all(np.frexp(s)[0] == 0.5)  # powers of two
        top = np.max(np.abs(s[:, None] * x), axis=1)
        assert np.all((0.5 <= top) & (top < 1.0))

    def test_edge_rows(self):
        s = linalg.row_scales([[0.0, 0.0], [5e-324, 0.0], [1.7e308, -1.7e308]])
        assert s.tolist() == [1.0, 2.0 ** 1022, 2.0 ** -1024]


class TestCholeskyHelpers:
    def test_det_gram_matches_numpy(self, rng):
        for _ in range(10):
            a = random_psd(rng, 4)
            assert linalg.det_gram(a) == pytest.approx(float(np.linalg.det(a)), rel=1e-9)

    def test_det_gram_singular_is_zero(self, rng):
        a = random_psd(rng, 4, rank=2)
        assert linalg.det_gram(a) == 0.0

    def test_det_gram_ignores_row_scales(self, rng):
        # the pivot floor compares each pivot with its own diagonal entry, so
        # rows of norm 1e8 beside rows of norm 1e-8 still factor
        x = rng.standard_normal((5, 7))
        g = x @ x.T
        scales = np.array([1e8, 1.0, 1e-8, 1e4, 1e-4])
        scaled = linalg.det_gram(g * np.outer(scales, scales))
        assert scaled == pytest.approx(linalg.det_gram(g) * float(np.prod(scales)) ** 2, rel=1e-9)
        assert linalg.cholesky_spd(np.diag([1e20, 1.0])) is not None

    def test_solve_spd(self, rng):
        a = random_psd(rng, 5) + np.eye(5)
        b = rng.standard_normal(5)
        x = linalg.solve_spd(a, b)
        assert np.allclose(a @ x, b, atol=1e-9)

    def test_solve_spd_singular_raises(self):
        with pytest.raises(ValueError, match="not positive definite"):
            linalg.solve_spd(np.diag([1.0, 0.0]), np.ones(2))

    def test_solve_upper(self, rng):
        a = random_psd(rng, 5) + np.eye(5)
        low = linalg.cholesky_spd(a)
        for y in (rng.standard_normal(5), rng.standard_normal((5, 3))):
            kept = y.copy()
            x = linalg.solve_upper(low, y)
            assert np.allclose(x, np.linalg.solve(low.T, y), rtol=1e-12, atol=1e-12)
            assert np.array_equal(y, kept)

    def test_precomputed_factor_gives_same_bits(self, rng):
        # the Frank-Wolfe steps reuse one factor for both substitutions
        a = random_psd(rng, 5) + np.eye(5)
        low = linalg.cholesky_spd(a)
        b = rng.standard_normal((5, 3))
        two_solves = linalg.solve_upper(low, linalg.solve_lower(low, b))
        assert np.array_equal(linalg.solve_spd(a, b), two_solves)
        assert linalg.logdet_spd(low) == pytest.approx(math.log(np.linalg.det(a)), abs=1e-10)


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

    @given(spectral_matrices(signed=True), st.integers(-900, 900))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_sym_eig_commutes_with_powers_of_two(self, a, j):
        w, vecs = linalg.sym_eig(a)
        w2, vecs2 = linalg.sym_eig(np.ldexp(a, j))
        assert w2.tobytes() == np.ldexp(w, j).tobytes()
        assert vecs2.tobytes() == vecs.tobytes()
