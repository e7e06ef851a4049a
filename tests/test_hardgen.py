"""Instance generators: sphere samples, Haar rotations, hard inputs, +-1 sets."""

import math

import numpy as np
import pytest

from specspan.hardgen import (DimensionTooSmall, SamplingFailed,
                              gen_hard_instance, gen_pm1_lowerbound,
                              lowerbound_experiment, random_rotation,
                              sample_sphere)


class TestSampleSphere:
    def test_unit_norms(self):
        vs = sample_sphere(50, 7, seed=1)
        norms = np.linalg.norm(vs.vectors, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_dim_one_is_signs(self):
        vs = sample_sphere(20, 1, seed=2)
        assert set(np.unique(vs.vectors)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("dim", [0, -1])
    def test_rejects_dim_below_one(self, dim):
        # at dim 0 every norm is 0, and the redraw loop once spun forever
        with pytest.raises(ValueError, match="dim must be >= 1"):
            sample_sphere(3, dim, seed=0)

    def test_deterministic(self):
        a = sample_sphere(10, 4, seed=3)
        b = sample_sphere(10, 4, seed=3)
        assert np.array_equal(a.vectors, b.vectors)

    def test_high_dim_near_orthogonality(self):
        vs = sample_sphere(500, 101, seed=4)
        inners = np.abs(vs.vectors @ vs.vectors.T)
        np.fill_diagonal(inners, 0.0)
        peak = float(np.max(inners))
        # loose sanity bound; the typical value is ~4/sqrt(101) ~ 0.4
        assert peak <= 0.9


class TestRandomRotation:
    def test_orthogonality(self):
        q = random_rotation(8, seed=5)
        assert np.linalg.norm(q.T @ q - np.eye(8)) <= 1e-9

    def test_determinant_unit(self):
        for seed in range(4):
            q = random_rotation(5, seed=seed)
            assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-9

    def test_preserves_norms(self, rng):
        q = random_rotation(6, seed=9)
        for _ in range(5):
            v = rng.standard_normal(6)
            assert np.linalg.norm(q @ v) == pytest.approx(np.linalg.norm(v), abs=1e-10)

    def test_seeds_differ(self):
        a = random_rotation(5, seed=1)
        b = random_rotation(5, seed=2)
        assert np.linalg.norm(a - b) > 0.1

    def test_haar_first_column_moments(self):
        # <Q e_1, v> over many seeds: near-zero mean, variance close to 1/d
        d = 8
        v = np.zeros(d)
        v[0] = 1.0
        samples = np.array([float(random_rotation(d, seed=s)[:, 0] @ v)
                            for s in range(1000)])
        assert abs(float(np.mean(samples))) <= 0.1
        var = float(np.var(samples))
        assert var <= 3.0 / d and var >= 1.0 / (3.0 * d)


class TestHardInstance:
    def test_shape_arithmetic_d16(self):
        inst = gen_hard_instance(16, 1.0, 1e6, seed=7, n_override=256)
        assert inst.m == math.ceil(16 / math.log(16)) == 6
        assert len(inst.x_sets) == 10 and len(inst.y_sets) == 6
        assert all(len(xs) == 256 for xs in inst.x_sets)
        assert all(len(ys) == 1 for ys in inst.y_sets)

    def test_planted_vectors_exact(self):
        inst = gen_hard_instance(16, 1.0, 1e6, seed=3, n_override=128)
        q = inst.rotation
        for i, (xs, planted) in enumerate(zip(inst.x_sets, inst.planted)):
            axis = q[:, inst.m + i]
            inners = np.abs(xs.vectors @ axis)
            big = np.flatnonzero(inners >= 1.0 - 1e-9)
            assert len(big) == 1
            assert int(xs.labels[big[0]]) == planted

    def test_x_vectors_unit_norm(self):
        inst = gen_hard_instance(16, 1.0, 1e6, seed=5, n_override=64)
        for xs in inst.x_sets:
            norms = np.linalg.norm(xs.vectors, axis=1)
            assert np.all(np.abs(norms - 1.0) <= 1e-9)

    def test_y_singletons_have_norm_m(self):
        inst = gen_hard_instance(16, 1.0, 1e3, seed=5, n_override=64)
        for ys in inst.y_sets:
            assert np.linalg.norm(ys.vectors[0]) == pytest.approx(1e3, rel=1e-12)

    def test_hidden_axis_leakage_bound(self):
        # non-planted mass along hidden axes stays within max pairwise inner^2
        inst = gen_hard_instance(16, 1.0, 1e6, seed=11, n_override=128)
        q = inst.rotation
        hidden = q[:, inst.m:]
        bound = inst.max_pair_inner ** 2 + 1e-9
        for xs, planted in zip(inst.x_sets, inst.planted):
            mass = np.einsum("ij,ij->i", xs.vectors @ hidden, xs.vectors @ hidden)
            keep = xs.labels != planted
            assert np.all(mass[keep] <= bound)

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooSmall):
            gen_hard_instance(4, 1.0, 1e6, seed=0)


class TestPm1Lowerbound:
    def test_small_batch_properties(self):
        vs = gen_pm1_lowerbound(64, 3, seed=1)
        x = vs.vectors
        assert set(np.unique(x)) <= {-1.0, 1.0}
        assert np.all(np.einsum("ij,ij->i", x, x) == 64.0)
        inners = np.abs(x @ x.T)
        np.fill_diagonal(inners, 0.0)
        assert float(np.max(inners)) <= math.sqrt(64 ** 1.5 / 2.0)

    def test_defeats_spanning_at_feasible_scale(self):
        # an excluded vector self-witnesses: <v,v>^2 > d^(1/2) max_u <u,v>^2
        d = 64
        vs = gen_pm1_lowerbound(d, 3, seed=2)
        x = vs.vectors
        for drop in range(3):
            others = np.delete(x, drop, axis=0)
            v = x[drop]
            lhs = float(v @ v) ** 2
            rhs = math.sqrt(d) * float(np.max((others @ v) ** 2))
            assert lhs > rhs

    def test_sampling_failure_raises(self):
        # d=4 makes the pairwise bound sqrt(4) = 2 < any aligned pair, so at
        # most 8 rows (one per +-pair of the 16 sign vectors) can be packed;
        # with 50 requested the greedy packing stalls and the draw budget runs out
        with pytest.raises(SamplingFailed):
            gen_pm1_lowerbound(4, 50, seed=3)

    def test_count_guard(self):
        with pytest.raises(ValueError):
            gen_pm1_lowerbound(64, 10**4 + 1, seed=0)

    def test_dimension_guard(self):
        for d in (0, -1):
            with pytest.raises(ValueError):
                gen_pm1_lowerbound(d, 2, seed=0)

    def test_acceptance_scale_postcondition(self):
        # criterion 11 checks non-coverage for 20 excluded rows only; this
        # checks the generator's own promise on the whole d=64, count=200 set
        d, count = 64, 200
        a = gen_pm1_lowerbound(d, count, seed=1101)
        b = gen_pm1_lowerbound(d, count, seed=1101)
        x = a.vectors
        assert x.shape == (count, d)
        assert set(np.unique(x)) <= {-1.0, 1.0}
        inners = np.abs(x @ x.T)
        np.fill_diagonal(inners, 0.0)
        assert float(np.max(inners)) <= math.sqrt(d ** 1.5 / 2.0)
        assert x.tobytes() == b.vectors.tobytes()

    def test_deterministic(self):
        a = gen_pm1_lowerbound(32, 2, seed=9)
        b = gen_pm1_lowerbound(32, 2, seed=9)
        assert np.array_equal(a.vectors, b.vectors)


class TestLowerboundExperiment:
    def test_single_seed_report(self):
        inst = gen_hard_instance(16, 1.0, 1e6, seed=17, n_override=128)
        rep = lowerbound_experiment(inst, 16, seed=17)
        assert len(rep.survived) == 10
        assert rep.planted_value == pytest.approx(1e72)
        assert 0.0 <= rep.ratio <= 1.0 + 1e-9
        assert all(s <= 16 for s in rep.coreset_sizes)

    def test_solution_keeps_all_y_vectors(self):
        # dropping any Y vector collapses the determinant by M^2
        inst = gen_hard_instance(16, 1.0, 1e6, seed=23, n_override=64)
        rep = lowerbound_experiment(inst, 16, seed=23)
        from specspan import detmax
        full = inst.parts.union
        label_pos = {int(l): i for i, l in enumerate(full.labels)}
        union_positions = []
        from specspan.spanner import SpannerParams, build_k_spanner
        for part in inst.parts.parts:
            sp = build_k_spanner(part, 16, params=SpannerParams(), max_size=16)
            union_positions.extend(label_pos[l] for l in sp.indices)
        union = full.subset(union_positions)
        sol = detmax.greedy_local_search(union, 16)
        y_labels = {int(ys.labels[0]) for ys in inst.y_sets}
        assert y_labels <= set(sol.indices)

    def test_instance_that_broke_the_ratio_test(self):
        # one capped build on this instance once raised lp.Unbounded from a
        # ray whose reduced cost and entries were rounding noise
        d, big_m, cap = 12, 1e6, 12
        inst = gen_hard_instance(d, 1.0, big_m, seed=68483824, n_override=96)
        rep = lowerbound_experiment(inst, cap)
        assert len(rep.survived) == d - inst.m
        assert all(s <= cap for s in rep.coreset_sizes)
        assert rep.ratio == pytest.approx(rep.objective / big_m ** (2 * inst.m), rel=1e-12)
        x = inst.parts.union.vectors
        assert 0.0 < rep.objective <= float(np.linalg.det(x.T @ x)) * (1.0 + 1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ratio_does_not_depend_on_m(self, seed):
        # the Y rows and the unit X rows are far apart in scale but not near
        # dependent; a pivot floor relative to the largest diagonal once
        # scored every full-rank set 0 for M above about 3e6
        ratios = []
        for big_m in (1e6, 1e7, 1e8):
            inst = gen_hard_instance(12, 1.0, big_m, seed=seed, n_override=96)
            rep = lowerbound_experiment(inst, 12, seed=seed)
            assert rep.objective > 0.0
            ratios.append(rep.ratio)
        assert ratios == pytest.approx([ratios[0]] * 3, rel=1e-9)

    def test_ratio_holds_at_far_scales(self):
        # the unit X rows sit 1e-10 or more below the Y rows; a drop rule
        # against the largest row once left the seed set rank 7 of 12 at
        # M = 1e10 and 1e12, and the ratio read 0.0
        ratios = [lowerbound_experiment(gen_hard_instance(12, 1.0, big_m, seed=0,
                                                          n_override=96), 12).ratio
                  for big_m in (1e6, 1e8, 1e10, 1e12)]
        assert ratios == pytest.approx([ratios[0]] * 4, rel=1e-9)
        assert ratios[0] > 0.0
