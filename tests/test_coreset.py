"""Partitioning and the composable core-set pipeline."""

import math

import numpy as np
import pytest

from specspan.coreset import (BadPartColumn, PartitionedInput, PartitionScheme,
                              Solver, partition, run_pipeline, stream_pipeline)
from specspan.spanner import SpannerParams, build_k_spanner, verify_weak
from specspan.vectorset import VectorSet
from conftest import unit_rows


class TestPartition:
    def test_round_robin_stride(self):
        vs = VectorSet(np.arange(12.0).reshape(6, 2))
        pin = partition(vs, 3, PartitionScheme.ROUND_ROBIN)
        assert [len(p) for p in pin.parts] == [2, 2, 2]
        assert list(pin.parts[0].labels) == [0, 3]

    def test_single_part(self):
        vs = VectorSet(np.eye(4))
        pin = partition(vs, 1)
        assert len(pin) == 1 and len(pin.parts[0]) == 4

    def test_from_file(self):
        vs = VectorSet(np.eye(3))
        pin = partition(vs, 2, PartitionScheme.FROM_FILE,
                        part_ids=np.array([0, 0, 1]))
        assert [len(p) for p in pin.parts] == [2, 1]

    def test_from_file_requires_column(self):
        with pytest.raises(BadPartColumn):
            partition(VectorSet(np.eye(3)), 2, PartitionScheme.FROM_FILE)

    def test_from_file_rejects_negative(self):
        with pytest.raises(BadPartColumn):
            partition(VectorSet(np.eye(3)), 2, PartitionScheme.FROM_FILE,
                      part_ids=np.array([0, -1, 1]))

    def test_hash_deterministic(self, rng):
        vs = VectorSet(rng.standard_normal((20, 3)))
        a = partition(vs, 4, PartitionScheme.HASH, seed=7)
        b = partition(vs, 4, PartitionScheme.HASH, seed=7)
        assert all(np.array_equal(x.labels, y.labels)
                   for x, y in zip(a.parts, b.parts))

    def test_union_round_trips(self, rng):
        vs = VectorSet(rng.standard_normal((15, 3)))
        pin = partition(vs, 4, PartitionScheme.HASH, seed=3)
        union = pin.union
        order = np.argsort(union.labels)
        assert np.array_equal(union.vectors[order], vs.vectors)


class TestRunPipeline:
    def test_orthonormal_split_across_d_parts(self):
        d = 4
        vs = VectorSet(np.eye(d))
        pin = partition(vs, d, PartitionScheme.ROUND_ROBIN)
        rep = run_pipeline(pin, d, solver=Solver.BRUTE)
        assert rep.ratio == pytest.approx(1.0)
        assert rep.coreset_sizes == [1, 1, 1, 1]

    def test_brute_ratio_and_guarantee(self):
        x = np.random.default_rng(11).standard_normal((60, 4))
        pin = partition(VectorSet(x), 3, PartitionScheme.ROUND_ROBIN)
        rep = run_pipeline(pin, 4, solver=Solver.BRUTE, seed=9)
        assert rep.ratio <= 1.0 + 1e-9
        assert rep.ratio >= rep.guarantee
        alpha = 4 * (1 + math.log(4)) ** 2
        assert rep.guarantee == pytest.approx((math.e * alpha) ** -4)

    def test_communication_bytes_exact(self):
        x = np.random.default_rng(2).standard_normal((30, 3))
        pin = partition(VectorSet(x), 2, PartitionScheme.ROUND_ROBIN)
        rep = run_pipeline(pin, 3, solver=Solver.GREEDY_LOCAL)
        assert rep.comm_bytes == 8 * 3 * sum(rep.coreset_sizes)

    def test_union_spanner_weakly_covers_everything(self):
        x = unit_rows(np.random.default_rng(4), 90, 4)
        vs = VectorSet(x)
        pin = partition(vs, 3, PartitionScheme.ROUND_ROBIN)
        rep = run_pipeline(pin, 4, solver=Solver.GREEDY_LOCAL)
        union_positions = rep.config["union_labels"]
        ok, _ = verify_weak(vs, x[union_positions], rep.config["alpha"])
        assert ok

    def test_permutation_robustness(self):
        # reshuffling rows among parts never drives ratio below the guarantee
        gen = np.random.default_rng(21)
        x = gen.standard_normal((45, 3))
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(45)
            pin = partition(VectorSet(x[perm]), 3, PartitionScheme.ROUND_ROBIN)
            rep = run_pipeline(pin, 3, solver=Solver.BRUTE, seed=seed)
            assert rep.guarantee <= rep.ratio <= 1.0 + 1e-9

    def test_fw_round_solver(self):
        x = np.random.default_rng(8).standard_normal((24, 3))
        pin = partition(VectorSet(x), 2, PartitionScheme.ROUND_ROBIN)
        rep = run_pipeline(pin, 3, solver=Solver.FW_ROUND, seed=5, trials=400)
        assert rep.objective > 0
        assert rep.reference_kind == "fw-round"

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(14).standard_normal((40, 4))
        pin = partition(VectorSet(x), 2, PartitionScheme.ROUND_ROBIN)
        a = run_pipeline(pin, 4, solver=Solver.FW_ROUND, seed=3, trials=300)
        b = run_pipeline(pin, 4, solver=Solver.FW_ROUND, seed=3, trials=300)
        assert a.objective == b.objective and a.ratio == b.ratio

    def test_more_parts_than_rows(self):
        pin = partition(VectorSet(np.eye(3)), 5, PartitionScheme.ROUND_ROBIN)
        rep = run_pipeline(pin, 3, solver=Solver.BRUTE)
        assert rep.coreset_sizes == [1, 1, 1, 0, 0]
        assert rep.ratio == pytest.approx(1.0)

    def test_independent_of_thread_count(self, monkeypatch):
        x = np.random.default_rng(31).standard_normal((48, 4))
        pin = partition(VectorSet(x), 4, PartitionScheme.ROUND_ROBIN)
        results = []
        for threads in ("1", "4"):
            monkeypatch.setenv("THREADS", threads)
            rep = run_pipeline(pin, 4, solver=Solver.GREEDY_LOCAL, seed=2)
            results.append((rep.coreset_sizes, rep.objective, rep.ratio,
                            rep.config["union_labels"]))
        assert results[0] == results[1]


class TestReportedAlpha:
    """The guarantee must rest on the alpha every part was actually built with."""

    d, k = 16, 2

    def rows(self):
        return VectorSet(unit_rows(np.random.default_rng(0), 120, self.d))

    def test_unequal_parts_report_the_largest_alpha(self):
        vs = self.rows()
        pin = partition(vs, 2, PartitionScheme.FROM_FILE,
                        part_ids=np.array([0] * 6 + [1] * 114))
        alphas = [build_k_spanner(part, self.k).alpha for part in pin.parts]
        assert alphas[0] < alphas[1]  # the small part spans fewer directions
        rep = run_pipeline(pin, self.k, solver=Solver.GREEDY_LOCAL)
        assert rep.config["alpha"] == max(alphas)
        assert rep.guarantee == pytest.approx((math.e * max(alphas)) ** -self.k)

    def test_stream_reports_the_alpha_its_blocks_used(self):
        vs = self.rows()
        rep = stream_pipeline(vs, 60, self.k, solver=Solver.GREEDY_LOCAL)
        alphas = [build_k_spanner(vs.subset(np.arange(s, s + 60)), self.k).alpha
                  for s in (0, 60)]
        assert rep.config["alpha"] == max(alphas)
        assert rep.config["alpha"] != SpannerParams().resolve_alpha(self.d)
        assert rep.guarantee == pytest.approx((math.e * max(alphas)) ** -self.k)


class TestStreamPipeline:
    def test_big_block_equals_single_part(self):
        x = np.random.default_rng(6).standard_normal((30, 3))
        vs = VectorSet(x)
        stream = stream_pipeline(vs, 100, 3, solver=Solver.BRUTE)
        single = run_pipeline(PartitionedInput([vs]), 3, solver=Solver.BRUTE)
        assert stream.objective == pytest.approx(single.objective)
        assert stream.ratio == pytest.approx(single.ratio)

    def test_orthonormal_any_split_is_exact(self):
        vs = VectorSet(np.eye(5))
        for block in (1, 2, 3, 5):
            rep = stream_pipeline(vs, block, 5, solver=Solver.BRUTE)
            assert rep.ratio == pytest.approx(1.0)

    def test_peak_retained_bound(self):
        x = np.random.default_rng(12).standard_normal((100, 4))
        rep = stream_pipeline(VectorSet(x), 20, 4, solver=Solver.GREEDY_LOCAL)
        assert rep.peak_retained <= 20 + 5 * max(rep.coreset_sizes) * len(rep.coreset_sizes)
        assert rep.ratio >= rep.guarantee
