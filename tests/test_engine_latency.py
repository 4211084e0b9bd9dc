"""Tests for the dense end-to-end latency model."""

import pytest

from repro.engine import DenseLatencyModel, InferenceEngine, Workload
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO

CLUSTER = dgx_a100_cluster(8)


class TestWorkload:
    def test_token_accounting(self):
        w = Workload(batch=4, prompt_len=128, gen_tokens=8)
        assert w.total_tokens == 4 * 136
        assert w.generated_tokens == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload(batch=0, prompt_len=1, gen_tokens=1)
        with pytest.raises(ValueError):
            Workload(batch=1, prompt_len=0, gen_tokens=1)
        with pytest.raises(ValueError):
            Workload(batch=1, prompt_len=1, gen_tokens=-1)

    @pytest.mark.parametrize("field,bad", [("batch", float("nan")),
                                           ("prompt_len", float("nan")),
                                           ("gen_tokens", 2.5)])
    def test_fields_must_be_integers(self, field, bad):
        # These used to construct and fail later inside LayerShape.
        kw = {"batch": 1, "prompt_len": 1, "gen_tokens": 1, field: bad}
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            Workload(**kw)


class TestSingleGPU:
    def setup_method(self):
        self.model = DenseLatencyModel(DENSE_ZOO["gpt2-1.5b"], CLUSTER,
                                       tp=1, pp=1)

    def test_report_is_consistent(self):
        r = self.model.estimate(Workload(batch=1, prompt_len=128, gen_tokens=8))
        assert r.total_latency == pytest.approx(
            r.prompt_latency + 8 * r.token_latency
        )
        assert r.tokens_per_second == pytest.approx(8 / r.total_latency)

    def test_token_latency_bounded_by_weight_read(self):
        cfg = DENSE_ZOO["gpt2-1.5b"]
        r = self.model.estimate(Workload(batch=1, prompt_len=128, gen_tokens=1))
        ideal = cfg.param_bytes() / CLUSTER.gpu.mem_bw
        assert r.token_latency >= ideal
        assert r.token_latency < 10 * ideal  # and not absurdly above

    def test_no_tp_comm_on_single_gpu(self):
        r = self.model.estimate(Workload(batch=1, prompt_len=16, gen_tokens=1))
        assert r.comm_time_per_step == 0.0

    def test_larger_batch_more_throughput(self):
        r1 = self.model.estimate(Workload(batch=1, prompt_len=128, gen_tokens=8))
        r8 = self.model.estimate(Workload(batch=8, prompt_len=128, gen_tokens=8))
        assert r8.tokens_per_second > r1.tokens_per_second
        assert r8.token_latency < 4 * r1.token_latency  # sublinear latency growth


class TestTensorParallel:
    def test_tp_cuts_latency_but_adds_comm(self):
        cfg = DENSE_ZOO["gpt-neox-20b"]
        w = Workload(batch=1, prompt_len=128, gen_tokens=8)
        t1 = DenseLatencyModel(cfg, CLUSTER, tp=1).estimate(w)
        t4 = DenseLatencyModel(cfg, CLUSTER, tp=4).estimate(w)
        assert t4.token_latency < t1.token_latency
        assert t4.comm_time_per_step > 0
        # Scaling efficiency: below ideal 4x, above 1.5x.
        speedup = t1.token_latency / t4.token_latency
        assert 1.5 < speedup < 4.0

    def test_cross_node_tp_pays_inter_node_comm(self):
        """TP=16 spans two nodes (Fig. 6's 175B config); its all-reduce must
        cost visibly more than a single-node TP=8 one."""
        cfg = DENSE_ZOO["lm-175b"]
        w = Workload(batch=1, prompt_len=16, gen_tokens=1)
        r8 = DenseLatencyModel(cfg, CLUSTER, tp=8).estimate(w)
        r16 = DenseLatencyModel(cfg, CLUSTER, tp=16).estimate(w)
        assert r16.comm_time_per_step > r8.comm_time_per_step

    def test_flat_allreduce_slower_across_nodes(self):
        cfg = DENSE_ZOO["lm-175b"]
        w = Workload(batch=24, prompt_len=128, gen_tokens=1)
        hier = DenseLatencyModel(cfg, CLUSTER, tp=16).estimate(w)
        flat = DenseLatencyModel(cfg, CLUSTER, tp=16,
                                 hierarchical_comm=False).estimate(w)
        assert flat.comm_time_per_step > hier.comm_time_per_step

    def test_oversized_deployment_rejected(self):
        with pytest.raises(ValueError, match="GPUs"):
            DenseLatencyModel(DENSE_ZOO["lm-175b"], CLUSTER, tp=8, pp=32)

    def test_diminishing_returns_at_high_tp(self):
        cfg = DENSE_ZOO["gpt-j-6b"]  # small model: comm/overhead dominate
        w = Workload(batch=1, prompt_len=16, gen_tokens=1)
        t2 = DenseLatencyModel(cfg, CLUSTER, tp=2).estimate(w).token_latency
        t8 = DenseLatencyModel(cfg, CLUSTER, tp=8).estimate(w).token_latency
        assert t8 > t2 / 4  # nowhere near ideal scaling for a 6B model


class TestPipelineParallel:
    def setup_method(self):
        self.cfg = DENSE_ZOO["lm-175b"]
        self.w = Workload(batch=16, prompt_len=128, gen_tokens=16)

    def test_dynamic_beats_lockstep_generation(self):
        ds = DenseLatencyModel(self.cfg, CLUSTER, tp=8, pp=2)
        ft = DenseLatencyModel(self.cfg, CLUSTER, tp=8, pp=2,
                               lockstep_generation=True)
        rds, rft = ds.estimate(self.w), ft.estimate(self.w)
        assert rds.total_latency < rft.total_latency

    def test_hybrid_cuts_prompt_latency(self):
        plain = DenseLatencyModel(self.cfg, CLUSTER, tp=8, pp=2)
        hybrid = DenseLatencyModel(self.cfg, CLUSTER, tp=8, pp=2,
                                   hybrid_prompt_factor=4)
        rp, rh = plain.estimate(self.w), hybrid.estimate(self.w)
        assert rh.prompt_latency < rp.prompt_latency

    def test_more_stages_than_layers_rejected(self):
        with pytest.raises(ValueError):
            DenseLatencyModel(DENSE_ZOO["gpt2-1.5b"], CLUSTER, tp=1, pp=64)

    def test_gpu_count(self):
        m = DenseLatencyModel(self.cfg, CLUSTER, tp=8, pp=2)
        assert m.num_gpus == 16


class TestInferenceEngineFacade:
    def test_auto_planning(self):
        eng = InferenceEngine("lm-175b", CLUSTER)
        assert eng.tp == 8 and eng.pp == 2
        assert eng.num_gpus == 16

    def test_explicit_config_respected(self):
        eng = InferenceEngine("gpt-13b", CLUSTER, tp=2, pp=1)
        assert (eng.tp, eng.pp) == (2, 1)

    def test_estimate_and_best_throughput(self):
        eng = InferenceEngine("gpt-13b", CLUSTER, tp=1, pp=1)
        r = eng.estimate(batch=1, prompt_len=128, gen_tokens=8)
        assert r.total_latency > 0
        pt = eng.best_throughput(prompt_len=128, gen_tokens=8)
        assert pt.batch >= 1
        assert pt.tokens_per_second >= r.tokens_per_second
