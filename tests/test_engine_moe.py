"""Tests for the MoE latency model (Sec. V mechanisms)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import MoEInferenceEngine, MoELatencyModel
from repro.hardware import dgx_a100_cluster
from repro.model import MOE_PARALLELISM, MOE_ZOO

CLUSTER = dgx_a100_cluster(32)  # 256 GPUs


def mk(name, optimized=True):
    return MoELatencyModel(MOE_ZOO[name], CLUSTER, MOE_PARALLELISM[name],
                           optimized=optimized)


class TestBreakdown:
    def test_components_positive_and_sum(self):
        b = mk("24b-moe-128").token_step(batch=8)
        parts = [b.dense_time, b.gating_time, b.expert_time,
                 b.alltoall_time, b.allreduce_time]
        assert all(p >= 0 for p in parts)
        assert b.total == pytest.approx(sum(parts))

    def test_gating_optimization_factor(self):
        """Sec. V-C claims ~6x lower MoE kernel latency."""
        opt = mk("24b-moe-128").token_step(batch=8)
        base = mk("24b-moe-128", optimized=False).token_step(batch=8)
        factor = base.moe_kernel_time / opt.moe_kernel_time
        assert factor > 4.0

    def test_pcc_shrinks_alltoall(self):
        opt = mk("24b-moe-128").token_step(batch=8)
        base = mk("24b-moe-128", optimized=False).token_step(batch=8)
        assert opt.alltoall_time < base.alltoall_time / 3

    def test_expert_slicing_speeds_experts(self):
        # 24b-moe uses expert-slicing 2; the baseline cannot use it.
        opt = mk("24b-moe-128").token_step(batch=8)
        base = mk("24b-moe-128", optimized=False).token_step(batch=8)
        assert opt.expert_time < base.expert_time

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            mk("1.3b-moe-128").token_step(batch=0)

    def test_non_moe_model_rejected(self):
        from repro.model import DENSE_ZOO

        with pytest.raises(ValueError, match="not an MoE"):
            MoELatencyModel(DENSE_ZOO["gpt-13b"], CLUSTER,
                            MOE_PARALLELISM["1.3b-moe-128"])

    def test_cluster_too_small_rejected(self):
        small = dgx_a100_cluster(2)
        with pytest.raises(ValueError, match="GPUs"):
            MoELatencyModel(MOE_ZOO["24b-moe-128"], small,
                            MOE_PARALLELISM["24b-moe-128"])


class TestLatencyShape:
    @pytest.mark.parametrize("name", list(MOE_ZOO))
    def test_optimized_beats_baseline(self, name):
        opt = mk(name).token_latency(batch=8)
        base = mk(name, optimized=False).token_latency(batch=8)
        assert base / opt > 2.0

    def test_latency_grows_with_model_size(self):
        a = mk("1.3b-moe-128").token_latency(batch=8)
        b = mk("47b-moe-128").token_latency(batch=8)
        assert b > a

    def test_bandwidth_metric_higher_when_optimized(self):
        opt = mk("1.3b-moe-128").effective_bandwidth_per_gpu(batch=8)
        base = mk("1.3b-moe-128", optimized=False).effective_bandwidth_per_gpu(8)
        assert opt > 2 * base
        assert opt < CLUSTER.gpu.mem_bw  # never above peak

    def test_aggregate_bandwidth_scales_with_gpus(self):
        m = mk("24b-moe-128")
        assert m.aggregate_bandwidth(batch=8) == pytest.approx(
            m.effective_bandwidth_per_gpu(8) * 256
        )


class TestFacade:
    def test_engine_defaults_to_table2(self):
        eng = MoEInferenceEngine("24b-moe-128")
        assert eng.parallelism.num_gpus == 256
        assert eng.token_latency() > 0

    def test_dense_model_rejected(self):
        with pytest.raises(ValueError):
            MoEInferenceEngine("gpt-13b")


class TestVectorTokenStep:
    """``token_step_times`` is the decode-run path: one kernel evaluation
    per layer kind for a whole span of KV lengths. It must equal
    ``token_step(...).total`` at each length by IEEE bits."""

    MODELS = {(name, opt): mk(name, optimized=opt)
              for name in ("1.3b-moe-128", "24b-moe-128")
              for opt in (True, False)}

    @settings(max_examples=80, deadline=None)
    @given(key=st.sampled_from(sorted(MODELS)),
           batch=st.integers(1, 64),
           kvs=st.lists(st.integers(1, 4096), min_size=1, max_size=16),
           load_ratio=st.one_of(st.just(1.0), st.floats(1.0, 4.0)),
           stall=st.one_of(st.just(0.0), st.floats(0.0, 1e-3)))
    def test_matches_token_step_total(self, key, batch, kvs, load_ratio,
                                      stall):
        model = self.MODELS[key]
        got = model.token_step_times(batch, kvs, load_ratio=load_ratio,
                                     stall_time=stall)
        want = [model.token_step(batch, kv, load_ratio=load_ratio,
                                 stall_time=stall).total for kv in kvs]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    @pytest.mark.parametrize("kw", [{"load_ratio": float("nan")},
                                    {"load_ratio": 0.5},
                                    {"stall_time": float("nan")},
                                    {"stall_time": -1.0}])
    def test_shares_token_step_validation(self, kw):
        model = self.MODELS[("1.3b-moe-128", True)]
        with pytest.raises(ValueError, match="must be finite"):
            model.token_step_times(4, [100], **kw)
        with pytest.raises(ValueError, match="must be finite"):
            model.token_step(4, 100, **kw)
