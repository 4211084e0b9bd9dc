"""Tests for sharded on-disk checkpoints."""

import numpy as np
import pytest

from repro.model import ModelConfig
from repro.model.checkpoint import load_checkpoint, save_checkpoint
from repro.model.dense import DenseTransformer
from repro.model.checkpoint import checkpoint_layer_file

CFG = ModelConfig(name="ckpt-test", hidden=32, layers=3, heads=4, vocab=47,
                  max_seq=24)


class TestCheckpointRoundtrip:
    def test_logits_identical_after_roundtrip(self, tmp_path):
        model = DenseTransformer(CFG, seed=7)
        save_checkpoint(model, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        ids = np.array([[1, 2, 3, 4]])
        np.testing.assert_array_equal(loaded.forward(ids), model.forward(ids))

    def test_config_restored(self, tmp_path):
        model = DenseTransformer(CFG, seed=1)
        save_checkpoint(model, tmp_path / "c")
        loaded = load_checkpoint(tmp_path / "c")
        assert loaded.config.hidden == CFG.hidden
        assert loaded.config.layers == CFG.layers
        assert loaded.config.name == CFG.name

    def test_one_file_per_layer(self, tmp_path):
        model = DenseTransformer(CFG, seed=2)
        d = save_checkpoint(model, tmp_path / "c")
        for i in range(CFG.layers):
            assert checkpoint_layer_file(d, i).exists()
        assert (d / "embeddings.npz").exists()
        assert (d / "manifest.json").exists()

    def test_float32_dtype_preserved(self, tmp_path):
        model = DenseTransformer(CFG, seed=3, dtype=np.float32)
        save_checkpoint(model, tmp_path / "c")
        loaded = load_checkpoint(tmp_path / "c")
        assert loaded.layers[0].w_qkv.dtype == np.float32

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_checkpoint(tmp_path)

    def test_missing_layer_shard_detected(self, tmp_path):
        model = DenseTransformer(CFG, seed=4)
        d = save_checkpoint(model, tmp_path / "c")
        checkpoint_layer_file(d, 1).unlink()
        with pytest.raises(FileNotFoundError, match="layer_0001"):
            load_checkpoint(d)

    def test_bad_format_rejected(self, tmp_path):
        model = DenseTransformer(CFG, seed=5)
        d = save_checkpoint(model, tmp_path / "c")
        manifest = d / "manifest.json"
        manifest.write_text(manifest.read_text().replace(
            "repro-sharded-v1", "mystery-v9"))
        with pytest.raises(ValueError, match="unknown checkpoint format"):
            load_checkpoint(d)

    def test_generation_identical(self, tmp_path):
        model = DenseTransformer(CFG, seed=6)
        save_checkpoint(model, tmp_path / "c")
        loaded = load_checkpoint(tmp_path / "c")
        prompt = np.array([[5, 6]])
        np.testing.assert_array_equal(
            loaded.generate(prompt, 4), model.generate(prompt, 4)
        )
