"""Spanner construction, verification, and certificate behavior."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specspan import hardgen, linalg, spanner
from specspan.lp import domination_check
from specspan.spanner import (NotInSpan, SpannerParams, build_d_spanner,
                              build_k_spanner, certify_all,
                              check_witness_dominance,
                              projection_domination_holds, strong_certificate,
                              verify_k_spanner, verify_weak, volume_greedy)
from specspan.vectorset import VectorSet
from conftest import enumerate_lp_vertices, unit_rows

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
I3 = np.eye(3)
SCREEN_SCALES = (1e-6, 1.0, 1e6)
ENTRY = st.floats(-2.0, 2.0).filter(lambda t: t == 0.0 or abs(t) >= 1e-3)


def default_alpha(d: int) -> float:
    return d * (1.0 + math.log(d)) ** 2


def k_order_by_certificates(x, sp, k: int, alpha: float, tol: float = 1e-7) -> bool:
    """vv^T <=_k alpha * E_mu[uu^T] over a plain d-spanner, mu each row's
    certificate, with the eigenvalue tail from numpy.linalg.eigvalsh."""
    d = x.shape[1]
    for v in x:
        try:
            cert = strong_certificate(v, sp.vectors, alpha)
        except NotInSpan:
            return False
        mix = sum(p * np.outer(sp.vectors[j], sp.vectors[j]) for j, p in cert.support)
        a, b = np.outer(v, v), alpha * mix
        tail = float(np.sum(np.linalg.eigvalsh(b - a)[:d - k + 1]))
        if tail < -tol * (1.0 + np.linalg.norm(a) + np.linalg.norm(b)):
            return False
    return True


class TestBuildDSpanner:
    def test_orthogonal_vectors_cover_only_themselves(self):
        for alpha in (1.0, 4.0, 50.0):
            sp = build_d_spanner(VectorSet(np.eye(4)), alpha)
            assert sp.indices == [0, 1, 2, 3]

    def test_hand_trace(self):
        vs = VectorSet(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
        sp = build_d_spanner(vs, 2.0)
        assert sp.indices == [1, 2]

    def test_singleton(self):
        sp = build_d_spanner(VectorSet(np.array([[3.0, 1.0]])), 2.0)
        assert sp.indices == [0]

    def test_postcondition_weak_coverage(self, rng):
        x = unit_rows(rng, 120, 5)
        alpha = default_alpha(5)
        sp = build_d_spanner(VectorSet(x), alpha)
        ok, violation = verify_weak(VectorSet(x), sp, alpha)
        assert ok and violation is None

    def test_deterministic(self, rng):
        x = unit_rows(rng, 60, 4)
        a = build_d_spanner(VectorSet(x), 10.0)
        b = build_d_spanner(VectorSet(x), 10.0)
        assert a.indices == b.indices
        assert np.array_equal(a.dspanner_witnesses, b.dspanner_witnesses)

    def test_duplicate_vector_never_grows_spanner(self, rng):
        x = unit_rows(rng, 40, 4)
        sp = build_d_spanner(VectorSet(x), 12.0)
        x_dup = np.vstack([x, x[sp.indices[0]]])
        sp_dup = build_d_spanner(VectorSet(x_dup), 12.0)
        assert sp_dup.size == sp.size

    def test_zero_vectors_dropped(self):
        vs = VectorSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
        sp = build_d_spanner(vs, 2.0)
        assert 0 not in sp.indices
        ok, _ = verify_weak(vs, sp, 2.0)
        assert ok

    def test_one_dimensional(self):
        vs = VectorSet(np.array([[1.0], [-2.0], [3.0]]))
        sp = build_d_spanner(vs, 1.0)
        assert sp.indices == [2]
        ok, _ = verify_weak(vs, sp, 1.0)
        assert ok

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            build_d_spanner(VectorSet(np.eye(2)), alpha)

    def test_max_size_cap(self, rng):
        x = unit_rows(rng, 50, 6)
        sp = build_d_spanner(VectorSet(x), 1.0, max_size=3)
        assert sp.size == 3

    def test_witness_dominance_holds(self, rng):
        for seed in range(3):
            x = unit_rows(np.random.default_rng(seed), 80, 6)
            sp = build_d_spanner(VectorSet(x), default_alpha(6))
            ok, worst = check_witness_dominance(sp)
            assert ok, f"dominance slack {worst}"

    def test_witness_dominance_ignores_witness_signs(self, rng):
        # a witness and its negation certify the same dominance, and a lone
        # pick has nothing to dominate
        sp = build_d_spanner(VectorSet(unit_rows(rng, 80, 6)), default_alpha(6))
        flipped = dataclasses.replace(sp, dspanner_witnesses=-sp.dspanner_witnesses)
        assert check_witness_dominance(flipped) == check_witness_dominance(sp)
        lone = dataclasses.replace(sp, dspanner_vectors=sp.dspanner_vectors[:1],
                                   dspanner_witnesses=sp.dspanner_witnesses[:1])
        assert check_witness_dominance(lone) == (True, 0.0)

    def test_size_bound_random_sphere(self, rng):
        for d in (4, 8):
            x = unit_rows(rng, 300, d)
            sp = build_d_spanner(VectorSet(x), default_alpha(d))
            assert sp.size <= 10 * d * (1.0 + math.log(d))


@st.composite
def screen_inputs(draw):
    """U in R^8 (generic, a 3-dim subspace, or duplicate rows) and rows X
    mixing combinations of U (exact and off by 1e-6 relative), copies of
    U rows and generic vectors; every row of both carries a scale of
    1e-6, 1 or 1e6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["generic", "subspace", "duplicates"]))
    n_u = draw(st.integers(1, 12))
    d = 8
    if kind == "generic":
        u = rng.standard_normal((n_u, d))
    elif kind == "subspace":
        u = rng.standard_normal((n_u, 3)) @ rng.standard_normal((3, d))
    else:
        u = rng.standard_normal((3, d))[rng.integers(0, 3, n_u)]
    u *= rng.choice(SCREEN_SCALES, size=(n_u, 1))
    alpha = draw(st.floats(1.0, 400.0))
    n_x = draw(st.integers(1, 10))
    combos = rng.uniform(-1.0, 1.0, (n_x, n_u)) * (2.0 * math.sqrt(alpha) / n_u)
    exact = combos @ u
    off = 1e-6 * np.linalg.norm(exact, axis=1, keepdims=True) * unit_rows(rng, n_x, d)
    x = np.vstack([exact, exact + off, u[rng.integers(0, n_u, n_x)],
                   rng.standard_normal((n_x, d))])
    x *= rng.choice(SCREEN_SCALES, size=(4 * n_x, 1))
    return x, u, alpha


class TestCoverageScreen:
    @given(screen_inputs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_marked_rows_have_small_l1_representation(self, case):
        x, u, alpha = case
        sv = np.linalg.svd(u, compute_uv=False)
        kept = sv[sv > 1e-10 * sv[0]]
        assume(kept[-1] >= 1e-4 * sv[0])  # the l2 oracle needs a sane frame
        marked = spanner._coverage_screen(x, u, linalg.gram_schmidt(u), alpha)
        for i in np.flatnonzero(marked):
            c = np.linalg.lstsq(u.T, x[i], rcond=None)[0]
            assert np.linalg.norm(u.T @ c - x[i]) <= 1e-8 * np.linalg.norm(x[i])
            assert np.sum(np.abs(c)) <= math.sqrt(alpha)

    def test_marks_inside_and_not_at_threshold(self):
        # min-l2 coefficients of (e1+e2)/2 over I3 have l1 norm 1; of e1+e2, 2
        x = np.array([[0.5, 0.5, 0.0], [1.0, 1.0, 0.0]])
        assert spanner._coverage_screen(x, I3, linalg.gram_schmidt(I3),
                                        4.0).tolist() == [True, False]

    def test_out_of_span_never_marked(self):
        x = np.array([[1.0, 0.0, 1e-6]])
        assert not spanner._coverage_screen(x, I3[:2], linalg.gram_schmidt(I3[:2]), 1e6)[0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_screen_only_saves_lps(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        hard = hardgen.gen_hard_instance(8, 1.0, 1e6, seed, n_override=48)
        plane = rng.standard_normal((100, 2)) @ rng.standard_normal((2, 8))
        scaled = unit_rows(rng, 150, 8) * np.exp(rng.uniform(-10.0, 10.0, (150, 1)))
        # the per-part builds of the lower-bound experiment, uncapped; rows in
        # a 2-plane that are in span(U) before U spans R^8; norms over e^20
        inputs = [VectorSet(unit_rows(rng, 150, 8)), *hard.x_sets,
                  VectorSet(np.vstack([plane, rng.standard_normal((50, 8))])),
                  VectorSet(scaled)]
        alpha = default_alpha(8)
        screen = spanner._coverage_screen
        frames = 0

        def frame_checked(x, u, basis, alpha):
            # the build's frame: orthonormal rows that span U
            nonlocal frames
            frames += 1
            assert np.max(np.abs(basis @ basis.T - np.eye(len(basis)))) <= 1e-12
            for row in u:
                c = np.linalg.lstsq(basis.T, row, rcond=None)[0]
                assert np.linalg.norm(basis.T @ c - row) <= 1e-9 * np.linalg.norm(row)
            return screen(x, u, basis, alpha)

        for vs in inputs:
            monkeypatch.setattr(spanner, "_coverage_screen", frame_checked)
            with_screen = build_d_spanner(vs, alpha)
            monkeypatch.setattr(spanner, "_coverage_screen",
                                lambda x, u, basis, alpha: np.zeros(len(x), dtype=bool))
            without = build_d_spanner(vs, alpha)
            monkeypatch.undo()
            assert with_screen.indices == without.indices
            assert np.array_equal(with_screen.dspanner_witnesses,
                                  without.dspanner_witnesses)
        assert frames >= len(inputs)

    def test_build_frame_spans_rows_far_apart_in_norm(self, monkeypatch):
        # unit rows picked after rows of norm 1e11: a drop rule against the
        # largest picked norm left their directions out of the frame
        g = np.random.default_rng(3).standard_normal((60, 4))
        unit = g / np.linalg.norm(g, axis=1, keepdims=True)
        flat = unit[:30] * [1.0, 1.0, 0.0, 0.0]
        x = np.vstack([1e11 * flat / np.linalg.norm(flat, axis=1, keepdims=True), unit[30:]])
        screen = spanner._coverage_screen
        frames = []

        def frame_kept(x, u, basis, alpha):
            frames.append((u, basis))
            return screen(x, u, basis, alpha)
        monkeypatch.setattr(spanner, "_coverage_screen", frame_kept)
        sp = build_d_spanner(VectorSet(x), default_alpha(4))
        assert np.linalg.matrix_rank(sp.vectors / np.linalg.norm(sp.vectors, axis=1,
                                                                 keepdims=True)) == 4
        u, basis = frames[-1]
        assert len(u) == sp.size and len(basis) == 4
        assert np.max(np.abs(basis @ basis.T - np.eye(4))) <= 1e-12

    def test_build_makes_no_frame_of_its_own(self, monkeypatch):
        # the screen reads the build's frame; no gram_schmidt call is left in
        # a d-spanner build, nor in the capped builds of the lower-bound
        # experiment (its local search makes one frame per round, outside
        # the builds; made before the patch: random_rotation orthonormalizes
        # with gram_schmidt)
        x = unit_rows(np.random.default_rng(0), 150, 8)
        hard = hardgen.gen_hard_instance(8, 1.0, 1e6, 0, n_override=48)
        inst = hardgen.gen_hard_instance(12, 1.0, 1e6, 3, n_override=96)
        build, frame = spanner.build_d_spanner, linalg.gram_schmidt
        building, built, framed = [], [], []

        def tracked(*args, **kwargs):
            building.append(True)
            try:
                return build(*args, **kwargs)
            finally:
                built.append(building.pop())

        def refuse(vs):
            if building:
                raise AssertionError("gram_schmidt called in a build")
            framed.append(vs)
            return frame(vs)
        monkeypatch.setattr(spanner, "build_d_spanner", tracked)
        monkeypatch.setattr(linalg, "gram_schmidt", refuse)
        for vs in [VectorSet(x), *hard.x_sets]:
            assert check_witness_dominance(spanner.build_d_spanner(vs, default_alpha(8)))[0]
        assert not framed
        assert hardgen.lowerbound_experiment(inst, 12).objective > 0.0
        assert len(built) == 1 + len(hard.x_sets) + len(inst.parts)  # one build per part
        assert framed  # by the local search on the union

    def test_screen_sees_only_uncovered_rows_in_span(self, monkeypatch):
        x = unit_rows(np.random.default_rng(0), 150, 8)
        screen, check = spanner._coverage_screen, spanner.domination_check
        received: list[np.ndarray] = []
        covered: list[np.ndarray] = []  # marked by the screen or by the LP

        def wrapped(rows, u, basis, alpha):
            for row in rows:
                assert not any(np.array_equal(row, seen) for seen in [*u, *covered])
                c = np.linalg.lstsq(u.T, row, rcond=None)[0]
                resid = np.linalg.norm(u.T @ c - row)
                assert resid <= spanner.NOT_IN_SPAN_REL * np.linalg.norm(row)
            out = screen(rows, u, basis, alpha)
            received.append(rows)
            covered.extend(rows[out])
            return out

        def wrapped_check(v, u, alpha):
            res = check(v, u, alpha)
            if res.covered:
                covered.append(v)
            return res

        monkeypatch.setattr(spanner, "_coverage_screen", wrapped)
        monkeypatch.setattr(spanner, "domination_check", wrapped_check)
        build_d_spanner(VectorSet(x), default_alpha(8))
        assert [len(rows) for rows in received] == [142]


class TestVerifyWeak:
    def test_build_output_passes(self, rng):
        x = unit_rows(rng, 50, 3)
        alpha = default_alpha(3)
        sp = build_d_spanner(VectorSet(x), alpha)
        assert verify_weak(VectorSet(x), sp, alpha)[0]

    # rows far below U once had squared norms that underflowed in the
    # screen, which then took E2 for a member of span(U)
    @pytest.mark.parametrize("v_scale, u_scale", [(1.0, 1.0), (1e-170, 1.0), (1e100, 1e300)])
    def test_missing_direction_fails_with_witness(self, v_scale, u_scale):
        vs = VectorSet(v_scale * np.array([E1, E2]))
        ok, violation = verify_weak(vs, u_scale * np.array([E1]), 16.0)
        assert not ok
        label, x = violation
        assert label == 1
        assert float(x @ vs.vectors[1]) ** 2 > 16.0 * float(x @ (u_scale * E1)) ** 2

    def test_analytic_cover(self):
        vs = VectorSet(np.array([E1 + E2]))
        ok, _ = verify_weak(vs, np.array([E1, E2]), 4.0)
        assert ok

    def test_partial_spanner_fails_at_any_scale(self):
        # a spanner of the first 100 of 200 rows; at 1e-170 the squared norms
        # once underflowed, every row counted as zero and both checks passed
        x = unit_rows(np.random.default_rng(3), 200, 8)
        sp = build_d_spanner(VectorSet(x[:100]), 4.0)
        for scale in (1.0, 1e-170):
            vs = VectorSet(scale * x)
            scaled = dataclasses.replace(sp, vectors=scale * sp.vectors)
            ok, (label, w) = verify_weak(vs, scaled, 4.0)
            assert not ok
            top = float(np.max((scaled.vectors @ w) ** 2))
            assert float(w @ vs.vectors[label]) ** 2 > 4.0 * top
            assert not all(c.passes(4.0) for c in certify_all(vs, scaled, 4.0))

    @pytest.mark.parametrize("scale", [1e-8, 1e-10, 1e-11])
    def test_tiny_row_beside_unit_rows(self, scale):
        # the l1 LP once scaled U by the tiny row's power of two, so U reached
        # the tableau at 1e8 or more and both checks raised lp.Unbounded
        x = np.vstack([unit_rows(np.random.default_rng(3), 60, 4),
                       scale * np.array([0.3, 0.1, -0.2, 0.9])])
        vs = VectorSet(x)
        sp = build_d_spanner(vs, 4.0)
        assert verify_weak(vs, sp, 4.0) == (True, None)
        certs = certify_all(vs, sp, 4.0)
        assert [c.vector_index for c in certs] == list(range(len(x)))
        for cert in certs:
            lbls = [lbl for lbl, _ in cert.support]
            p = np.array([prob for _, prob in cert.support])
            v = x[cert.vector_index]
            mix = (x[lbls].T * p) @ x[lbls]
            proj = mix @ np.linalg.pinv(mix) @ v
            assert np.allclose(proj, v, rtol=0.0, atol=1e-9 * np.linalg.norm(v))
            assert cert.passes(4.0)
            assert cert.delta * float(v @ np.linalg.pinv(mix) @ v) <= 1.0 + 1e-9

    def test_composability_union_of_spanners(self, rng):
        # union of per-half spanners weakly covers the whole input
        x = unit_rows(rng, 200, 5)
        alpha = default_alpha(5)
        sp1 = build_d_spanner(VectorSet(x[:100]), alpha)
        sp2 = build_d_spanner(VectorSet(x[100:]), alpha)
        union = np.vstack([sp1.vectors, sp2.vectors])
        ok, _ = verify_weak(VectorSet(x), union, alpha)
        assert ok

    def test_subnormal_row_is_zero_as_in_the_build(self):
        # the build drops (0, 1e-309) as zero; the weak check skips it by the
        # same test on the unscaled rows, though a joint scale would lift it
        x = np.array([[1e-300, 0.0], [0.0, 1e-309]])
        sp = build_d_spanner(VectorSet(x), 4.0)
        assert sp.size == 1
        assert verify_weak(VectorSet(x), sp, 4.0) == (True, None)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_row_past_the_float_range_below_u_fails(self):
        # |u|/|v| = 1e309: the witness leaves the float range in
        # domination_check, which overflows, but the row still fails
        ok, _ = verify_weak(VectorSet(np.array([[0.0, 1e-9]])), np.array([[1e300, 0.0]]), 4.0)
        assert not ok

    def test_screen_moves_no_verdict_nor_witness(self, weak_case, monkeypatch):
        # the screen marks only rows the domination LP covers too: with it
        # off, the verdict, the first failing row and its witness are the
        # same, bit for bit
        vs, u, alpha = weak_case
        screen, marked = spanner._coverage_screen, []

        def counted(*args):
            marked.extend(out := screen(*args))
            return out
        monkeypatch.setattr(spanner, "_coverage_screen", counted)
        ok, violation = verify_weak(vs, u, alpha)
        assert marked  # the screen saw the rows in span(U)
        monkeypatch.setattr(spanner, "_coverage_screen",
                            lambda x, u, basis, alpha: np.zeros(len(x), dtype=bool))
        ok_off, violation_off = verify_weak(vs, u, alpha)
        assert ok == ok_off and (violation is None) == (violation_off is None)
        if violation is not None:
            assert violation[0] == violation_off[0]
            assert violation[1].tobytes() == violation_off[1].tobytes()

    def test_runs_no_l1_lp_and_one_domination_lp_per_row(self, weak_case, monkeypatch):
        # coverage is the build's rule: the screen, then at most one
        # domination_check per nonzero row; the l1 LP is for certificates
        vs, u, alpha = weak_case
        x = np.vstack([vs.vectors, np.zeros(vs.dim)])  # a zero row is never checked
        checked = []

        def refuse(*args):
            raise AssertionError("verify_weak ran the l1 LP")

        def check(v, u, alpha):
            checked.append(v.tobytes())
            return domination_check(v, u, alpha)
        monkeypatch.setattr(spanner, "l1_representation", refuse)
        monkeypatch.setattr(spanner, "domination_check", check)
        verify_weak(VectorSet(x), u, alpha)
        assert len(checked) == len(set(checked)) <= len(x) - 1
        assert bytes(8 * vs.dim) not in checked


@pytest.fixture(params=["build-output", "half-spanner-1", "half-spanner-1e-170",
                        "all-ones-over-axes", "union-of-spanners"])
def weak_case(request):
    """(input, U, alpha) for the weak check: a build's own output (d = 8,
    n = 500), a spanner of the first half at two scales, E1+E2+E3 over the
    axes at alpha = 4, and a union of two spanners."""
    name = request.param
    if name == "build-output":
        x = unit_rows(np.random.default_rng(5), 500, 8)
        return VectorSet(x), build_d_spanner(VectorSet(x), default_alpha(8)), default_alpha(8)
    if name.startswith("half-spanner"):
        scale = float(name.removeprefix("half-spanner-"))
        x = unit_rows(np.random.default_rng(3), 200, 8)
        sp = build_d_spanner(VectorSet(x[:100]), 4.0)
        return VectorSet(scale * x), scale * sp.vectors, 4.0
    if name == "all-ones-over-axes":
        return VectorSet(I3.sum(axis=0)[None, :]), I3, 4.0
    x = unit_rows(np.random.default_rng(7), 200, 5)
    union = np.vstack([build_d_spanner(VectorSet(half), default_alpha(5)).vectors
                       for half in (x[:100], x[100:])])
    return VectorSet(x), union, default_alpha(5)


class TestStrongCertificate:
    def test_member_is_point_mass(self):
        cert = strong_certificate(E1, np.array([E1, E2]), 4.0)
        assert cert.delta == 1.0
        assert cert.support == [(0, 1.0)]

    def test_diagonal_pair_half_half(self):
        cert = strong_certificate(E1 + E2, np.array([E1, E2]), 4.0)
        assert cert.delta == pytest.approx(0.25, abs=1e-9)
        probs = dict(cert.support)
        assert probs[0] == pytest.approx(0.5, abs=1e-6)
        assert cert.passes(4.0)

    def test_out_of_span_raises(self):
        with pytest.raises(NotInSpan):
            strong_certificate(np.array([0.0, 0.0, 1.0]),
                               np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 4.0)

    @pytest.mark.parametrize("v, u", [([1e-170, 0.0], [[0.0, 1.0]]),
                                      ([1e-301, 0.0], [[0.0, 1e-301]])],
                             ids=["1e-170", "1e-301"])
    def test_tiny_out_of_span_raises(self, v, u):
        # both once passed with delta = 1: any |v| <= 1e-300 counted as zero,
        # and the squared residual of 1e-170 underflowed
        with pytest.raises(NotInSpan):
            strong_certificate(np.array(v), np.array(u), 4.0)

    def test_frame_coordinates_of_a_huge_vector_do_not_overflow(self):
        # v = (26 u1 + u2) / 27 lies in span(U), but its unscaled frame
        # coordinates overflow; they are taken on v times unit_scale(v)
        cert = strong_certificate(np.array([1.7e308, 1.6e308]),
                                  np.array([[1.7e308, 1.7e308], [1.7e308, -1e308]]), 4.0)
        assert cert.delta == pytest.approx(1.0, rel=1e-12)
        assert dict(cert.support) == pytest.approx({0: 26 / 27, 1: 1 / 27}, rel=1e-12)
        assert cert.passes(4.0)

    def test_all_ones_over_axes_fails_at_four(self):
        # the minimum-l1 representation of E1+E2+E3 over the axes is (1,1,1):
        # delta = 1/9 < 1/4, and the weak check finds a direction to match
        v = I3[0] + I3[1] + I3[2]
        cert = strong_certificate(v, I3, 4.0)
        assert cert.delta == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert cert.status == "fail" and not cert.passes(4.0)
        assert sorted(p for _, p in cert.support) == pytest.approx([1 / 3] * 3)
        ok, violation = verify_weak(VectorSet(np.array([v])), I3, 4.0)
        assert not ok
        label, x = violation
        assert label == 0
        assert float(x @ v) ** 2 > 4.0 * float(np.max((I3 @ x) ** 2))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.just(d), st.integers(d, 4).flatmap(lambda m: st.lists(
            ENTRY, min_size=(m + 1) * d, max_size=(m + 1) * d)))))
    def test_exact_against_vertex_enumeration(self, case):
        # ||c||_1 is the optimum of min 1^T z over [U^T, -U^T] z = v, z >= 0
        # (found by enumerating vertices); p = |c|/||c||_1 attains
        # v^T M(p)^+ v = ||c||_1^2, and t* of the domination LP is 1/||c||_1.
        # Entries are 0 or at least 1e-3 in size: the enumeration accepts
        # points within 1e-8 of feasible, so smaller entries blur its optimum
        d, flat = case
        arr = np.array(flat).reshape(-1, d)
        u, v = arr[:-1], arr[-1]
        m = len(u)
        assume(np.linalg.svd(u, compute_uv=False)[-1] >= 0.05)
        assume(np.linalg.norm(v) >= 0.05)
        assume(not any(np.array_equal(row, v) for row in u))
        _, ref = enumerate_lp_vertices(np.ones(2 * m), np.hstack([u.T, -u.T]), v,
                                       -np.eye(2 * m), np.zeros(2 * m))
        cert = strong_certificate(v, u, 4.0)
        lbls = [lbl for lbl, _ in cert.support]
        p = np.array([prob for _, prob in cert.support])
        assert np.all(p > 0.0) and float(np.sum(p)) == pytest.approx(1.0, abs=1e-12)
        assert cert.delta == pytest.approx(min(1.0, 1.0 / ref ** 2), rel=1e-9)
        quad = float(v @ np.linalg.pinv((u[lbls].T * p) @ u[lbls]) @ v)
        assert quad == pytest.approx(ref ** 2, rel=1e-9)
        if ref >= 1.0:
            assert quad == pytest.approx(1.0 / cert.delta, rel=1e-9)
        margin = domination_check(v, u, 4.0).margin
        assert margin == pytest.approx(1.0 / ref, rel=1e-9)

    @pytest.mark.parametrize("u, v, alpha", [
        (np.eye(2), (1.0 + 1e-6) * np.array([1.0, 1.0]), 4.0),
        (np.array([[1.0, 0.0], [1.0, 1e-4]]), E2, 1e6),
    ], ids=["just-outside", "large-alpha"])
    @pytest.mark.parametrize("above", [False, True])
    def test_one_coverage_rule_for_every_verifier(self, u, v, alpha, above):
        # U is square and invertible, so c = pinv(U^T) v is the one
        # representation and v is covered exactly when alpha >= ||c||_1^2;
        # all three verifiers must give that verdict just below and just
        # above the needed alpha
        need = float(np.sum(np.abs(np.linalg.pinv(u.T) @ v))) ** 2
        if above:
            alpha = need * (1.0 + 1e-6)
        covered = alpha >= need
        assert covered == above
        cert = strong_certificate(v, u, alpha)
        assert cert.passes(alpha) == covered
        assert cert.status == ("pass" if covered else "fail")
        assert verify_weak(VectorSet(v[None, :]), u, alpha)[0] == covered
        assert domination_check(v, u, alpha).covered == covered

    def test_weak_implies_strong(self, rng):
        # every vector of a built spanner's input earns a passing certificate
        x = unit_rows(rng, 60, 4)
        alpha = default_alpha(4)
        sp = build_d_spanner(VectorSet(x), alpha)
        certs = certify_all(VectorSet(x), sp, alpha)
        assert all(c.passes(alpha) for c in certs)
        assert all(c.status == "pass" for c in certs)

    def test_certify_all_is_one_certificate_per_row(self):
        # certify_all computes one span frame for every row; each row gets the
        # certificate of its own strong_certificate call, and a member of U
        # listed twice gets a point mass on its first copy
        x = unit_rows(np.random.default_rng(4), 80, 6)
        alpha = default_alpha(6)
        sp = build_d_spanner(VectorSet(x), alpha)
        sp = dataclasses.replace(sp, vectors=np.vstack([sp.vectors, sp.vectors[2]]),
                                 indices=sp.indices + [-1])
        certs = certify_all(VectorSet(x), sp, alpha)
        assert certs == [strong_certificate(v, sp.vectors, alpha, vector_index=i,
                                            labels=sp.indices)
                         for i, v in enumerate(x)]
        assert certs[sp.indices[2]].support == [(sp.indices[2], 1.0)]
        for cert in certs:
            lbls = [lbl for lbl, _ in cert.support]
            p = np.array([prob for _, prob in cert.support])
            assert -1 not in lbls and float(np.sum(p)) == pytest.approx(1.0)
            v = x[cert.vector_index]
            quad = float(v @ np.linalg.pinv((x[lbls].T * p) @ x[lbls]) @ v)
            assert cert.delta * quad <= 1.0 + 1e-9

    def test_certificate_is_feasible_distribution(self, rng):
        x = unit_rows(rng, 30, 3)
        alpha = default_alpha(3)
        sp = build_d_spanner(VectorSet(x), alpha)
        cert = strong_certificate(x[7], sp.vectors, alpha, labels=sp.indices)
        probs = np.array([p for _, p in cert.support])
        assert np.all(probs >= 0)
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-9)
        # delta * vv^T <= E_mu[uu^T] certified through the order check
        mix = sum(p * np.outer(x[lbl], x[lbl]) for lbl, p in cert.support)
        v = x[7]
        assert linalg.preceq_k(cert.delta * np.outer(v, v), mix, 3, 1e-7)


class TestSpannerParams:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            SpannerParams(alpha=alpha).resolve_alpha(4)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0])
    def test_rejects_bad_alpha_scale(self, scale):
        with pytest.raises(ValueError):
            SpannerParams(alpha_scale=scale).resolve_alpha(4)

    def test_zero_alpha_scale_floors_at_one(self):
        assert SpannerParams(alpha_scale=0.0).resolve_alpha(4) == 1.0

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.5])
    @pytest.mark.parametrize("entry", ["domination_check", "verify_weak",
                                       "strong_certificate", "certify_all",
                                       "verify_k_spanner", "build_d_spanner"])
    def test_every_entry_point_rejects_bad_alpha(self, entry, alpha):
        sp = build_d_spanner(VectorSet(I3), 4.0)
        calls = {
            "domination_check": lambda: domination_check(I3[0], I3[1:], alpha),
            "verify_weak": lambda: verify_weak(VectorSet(I3), sp, alpha),
            "strong_certificate": lambda: strong_certificate(I3[0], I3, alpha),
            "certify_all": lambda: certify_all(VectorSet(I3), sp, alpha),
            "verify_k_spanner": lambda: verify_k_spanner(VectorSet(I3), sp, 1, alpha),
            "build_d_spanner": lambda: build_d_spanner(VectorSet(I3), alpha),
        }
        with pytest.raises(ValueError, match="alpha must be finite and >= 1"):
            calls[entry]()


class TestVolumeGreedy:
    def test_orthonormal_in_order(self):
        sp = volume_greedy(VectorSet(np.eye(4)), 4)
        assert sp.indices == [0, 1, 2, 3]

    def test_tie_breaks_to_lowest_index(self):
        vs = VectorSet(np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        sp = volume_greedy(vs, 2)
        assert sp.indices == [0, 1]

    def test_stops_at_rank(self, rng):
        x = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 5))
        sp = volume_greedy(VectorSet(x), 5)
        assert sp.size == 3

    def test_all_tags_volume(self):
        sp = volume_greedy(VectorSet(np.eye(3)), 2)
        assert set(sp.stage_tags) == {"volume_greedy"}


class TestBuildKSpanner:
    def test_k_equals_d_degenerates_to_d_spanner(self, rng):
        x = unit_rows(rng, 40, 4)
        alpha = default_alpha(4)
        kd = build_k_spanner(VectorSet(x), 4, SpannerParams(alpha=alpha))
        dd = build_d_spanner(VectorSet(x), alpha)
        assert kd.indices == dd.indices

    def test_low_rank_input(self, rng):
        # vectors spanning a k-dim subspace still produce a valid spanner
        basis = rng.standard_normal((3, 10))
        x = rng.standard_normal((60, 3)) @ basis
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        sp = build_k_spanner(VectorSet(x), 3)
        ok, _ = verify_weak(VectorSet(x), sp, sp.alpha)
        assert ok

    def test_orthonormal_k1_trace_domination(self):
        d = 8
        sp = build_k_spanner(VectorSet(np.eye(d)), 1)
        m = SpannerParams().resolve_m(1, d)
        assert sp.size <= m
        mix = sp.vectors.T @ sp.vectors / sp.size
        alpha = 32.0
        for i in range(d):
            outer = np.zeros((d, d))
            outer[i, i] = 1.0
            assert linalg.preceq_k(outer, alpha * mix, 1, 1e-7)

    def test_nondegenerate_runs_both_stages(self, rng):
        x = unit_rows(rng, 300, 16)
        sp = build_k_spanner(VectorSet(x), 2)
        assert "volume_greedy" in set(sp.stage_tags)
        # the projected d-spanner stage ran; its picks may coincide with the
        # volume stage, but the trace records them
        assert len(sp.dspanner_vectors) > 0
        assert SpannerParams().resolve_m(2, 16) == 12

    @pytest.mark.parametrize("alpha", [None, 10.0])
    def test_record_lists_volume_picks_then_new_d_stage_picks(self, alpha):
        # at the default alpha every d-stage pick repeats a volume pick; at
        # alpha 10 the d stage also picks 5 new rows
        d, k = 16, 2
        x = unit_rows(np.random.default_rng(0), 300, d)
        sp = build_k_spanner(VectorSet(x), k, SpannerParams(alpha=alpha))
        m = SpannerParams().resolve_m(k, d)
        # volume greedy takes the largest residual against its picks, ties
        # (relative 1e-9) to the lowest index
        vol: list[int] = []
        for _ in range(m):
            resid = x.copy()
            if vol:
                q = np.linalg.qr(x[vol].T)[0]
                resid -= (x @ q) @ q.T
            norms = np.linalg.norm(resid, axis=1)
            vol.append(int(np.flatnonzero(norms >= norms.max() * (1.0 - 1e-9))[0]))
        # the d-stage trace in pick order, by label (input rows are distinct)
        trace = [int(np.flatnonzero(np.all(x == row, axis=1))[0])
                 for row in sp.dspanner_vectors]
        new = [lbl for lbl in trace if lbl not in vol]
        assert len(set(trace)) == len(trace) and len(new) < len(trace)
        assert sp.indices == vol + new
        assert sp.stage_tags == ["volume_greedy"] * m + ["d_spanner"] * len(new)
        assert np.array_equal(sp.vectors, x[sp.indices])
        assert np.array_equal(sp.dspanner_vectors, x[trace])
        # each lifted witness dominates its pick over the earlier trace rows
        u, w = sp.dspanner_vectors, sp.dspanner_witnesses
        assert w.shape == u.shape
        for i in range(len(u)):
            bound = abs(float(u[i] @ w[i])) / math.sqrt(sp.alpha) * (1.0 + 1e-9)
            assert np.all(np.abs(u[:i] @ w[i]) <= bound)

    @pytest.mark.parametrize("cap", [0, 1, 3, 5, 12, 14])
    def test_max_size_cap(self, cap):
        # m = 12 here, and caps below the volume stage once returned 12 rows
        x = np.random.default_rng(0).standard_normal((60, 16))
        full = build_k_spanner(VectorSet(x), 2)
        sp = build_k_spanner(VectorSet(x), 2, max_size=cap)
        assert SpannerParams().resolve_m(2, 16) == 12
        assert sp.size == min(cap, full.size)
        assert sp.indices == full.indices[:sp.size]

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_uniform_scale_keeps_picks(self, scale):
        # the volume stage's squared norms once under- or overflowed, and the
        # build raised "vector set is all zeros"
        x = unit_rows(np.random.default_rng(3), 100, 16)
        ref = build_k_spanner(VectorSet(x), 2)
        sp = build_k_spanner(VectorSet(scale * x), 2)
        assert sp.indices == ref.indices
        assert verify_k_spanner(VectorSet(scale * x), sp, 2, sp.alpha)


PLAIN_D_CASES = [
    (4, 2, 1.0 + 1e-9, False), (4, 2, 4.0, True), (4, 4, 4.0, False),
    (6, 1, 1.0 + 1e-9, True), (6, 3, 4.0, True), (6, 6, 10.0, False),
    (6, 6, 40.0, True)]
PROJECTION_SCALES = [1.0, 2.0 ** 600, 2.0 ** -600, 1e160, 1e-160]


@pytest.fixture
def jacobi_only(monkeypatch):
    """Turn the trace bound off: every k-order check goes to linalg.preceq_k."""
    monkeypatch.setattr(spanner, "TRACE_BOUND_REL", math.inf)


def count_sym_eig(monkeypatch) -> list:
    calls = []
    eig = linalg.sym_eig
    monkeypatch.setattr(linalg, "sym_eig", lambda a: calls.append(1) or eig(a))
    return calls


class TestOuterPreceqK:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(2, 8).flatmap(lambda d: st.tuples(
               st.integers(1, d), st.integers(1, 3 * d), st.integers(0, 2 ** 32 - 1),
               st.floats(0.0, 3.0), st.sampled_from([2.0 ** -200, 1.0, 2.0 ** 200]),
               st.just(d))))
    def test_a_pass_by_the_bound_is_a_true_pass(self, case):
        k, rows, seed, size, scale, d = case
        g = np.random.default_rng(seed)
        y = scale * g.standard_normal((rows, d))
        b = y.T @ y  # PSD at scale 2^-400, 1 or 2^400
        v = scale * size * math.sqrt(rows) * g.standard_normal(d)
        a = np.outer(v, v)
        tail = float(np.sum(np.linalg.eigvalsh(b - a)[:d - k + 1]))
        with mock.patch.object(linalg, "preceq_k", wraps=linalg.preceq_k) as jacobi:
            verdict = spanner._outer_preceq_k(v, b, k, linalg.DEFAULT_ORDER_TOL)
        if not jacobi.called:
            assert verdict and tail >= 0.0
        slack = 1e-6 * (np.linalg.norm(a) + np.linalg.norm(b))
        if abs(tail) > slack:
            assert verdict == linalg.preceq_k(a, b, k)


class TestVerifyKSpanner:
    def test_degenerate_passes_at_generous_alpha(self, rng):
        d, k = 8, 3
        x = unit_rows(rng, 80, d)
        sp = build_k_spanner(VectorSet(x), k)
        alpha = 32.0 * k * (1.0 + math.log(k)) ** 3
        assert verify_k_spanner(VectorSet(x), sp, k, alpha)

    def test_singleton_trivially_true(self):
        vs = VectorSet(np.array([[1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]))
        sp = build_k_spanner(vs, 2)
        assert verify_k_spanner(vs, sp, 2, 32.0)

    @pytest.mark.parametrize("d, k, alpha, verdict", PLAIN_D_CASES)
    def test_plain_d_spanner_matches_certificate_mixture(self, d, k, alpha, verdict):
        x = unit_rows(np.random.default_rng(d + k), 60, d)
        sp = build_d_spanner(VectorSet(x), default_alpha(d))
        assert k_order_by_certificates(x, sp, k, alpha) == verdict
        assert verify_k_spanner(VectorSet(x), sp, k, alpha) == verdict

    def test_fails_at_tiny_alpha(self, rng):
        x = unit_rows(rng, 50, 6)
        sp = build_k_spanner(VectorSet(x), 6)
        assert not verify_k_spanner(VectorSet(x), sp, 6, 1.0 + 1e-9)

    def test_nondegenerate_mixture_verifies(self, rng):
        d, k = 16, 2
        x = unit_rows(np.random.default_rng(5), 200, d)
        sp = build_k_spanner(VectorSet(x), k)
        # constructed mass: 2*gamma*(1 + 2/delta) + 4/delta with delta >= 1/alpha_m;
        # alpha = 6000 clears it for m = 12 (recorded from the shipped run)
        assert verify_k_spanner(VectorSet(x), sp, k, 6000.0)

    def test_projection_domination_property(self, rng):
        # the volume-greedy stage bound, checked at m > 2k
        for k in (1, 2):
            x = unit_rows(rng, 80, 8)
            assert projection_domination_holds(VectorSet(x), 2 * k + 2, k)

    @pytest.mark.parametrize("scale", PROJECTION_SCALES)
    def test_projection_domination_is_scale_free(self, scale):
        # its rows are scaled by linalg.unit_scale first, as verify_k_spanner's are
        x = unit_rows(np.random.default_rng(0), 40, 12)
        assert projection_domination_holds(VectorSet(scale * x), 8, 2)

    def test_certify_strong_shape_runs_no_jacobi(self, monkeypatch):
        # 2 unit rows in R^16, k = 2: every check is passed by the bound
        x = unit_rows(np.random.default_rng(7), 2, 16)
        sp = build_k_spanner(VectorSet(x), 2)
        calls = count_sym_eig(monkeypatch)
        assert verify_k_spanner(VectorSet(x), sp, 2, 32.0 * 2 * (1.0 + math.log(2)) ** 3)
        assert calls == []

    def test_a_fail_comes_from_jacobi(self, monkeypatch, rng):
        calls = count_sym_eig(monkeypatch)
        self.test_fails_at_tiny_alpha(rng)
        assert len(calls) >= 1

    @pytest.mark.parametrize("d, k, alpha, verdict", PLAIN_D_CASES)
    def test_plain_d_spanner_by_jacobi_alone(self, jacobi_only, d, k, alpha, verdict):
        self.test_plain_d_spanner_matches_certificate_mixture(
            d, k, alpha, verdict)

    def test_fails_at_tiny_alpha_by_jacobi_alone(self, jacobi_only, rng):
        self.test_fails_at_tiny_alpha(rng)

    @pytest.mark.parametrize("scale", PROJECTION_SCALES)
    def test_projection_domination_by_jacobi_alone(self, jacobi_only, scale):
        self.test_projection_domination_is_scale_free(scale)
