import re

import numpy as np
import pytest

import bpcse.diffcore as dc
from bpcse import dsp
from bpcse.se_model import SeConfig, SeModel, se_loss, sinusoidal_positions

TINY = SeConfig(d_model=8, heads=2, ff_dim=16, attention_blocks=2)


def log1p_spec(rng, t):
    return dsp.Spectrogram(rng.uniform(0, 2, (t, 257)), kind="log1p")


class TestForwardContracts:
    @pytest.mark.parametrize("t", [1, 4, 33])
    def test_output_shape_matches_input(self, t):
        model = SeModel(TINY, seed=0)
        rng = np.random.default_rng(t)
        out = model.enhance(log1p_spec(rng, t))
        assert out.frames.shape == (t, 257)
        assert out.kind == "log1p"

    def test_outputs_nonnegative(self):
        model = SeModel(TINY, seed=1)
        rng = np.random.default_rng(0)
        out = model.enhance(log1p_spec(rng, 12))
        assert np.all(out.frames >= 0)

    def test_wrong_bin_count_rejected(self):
        model = SeModel(TINY, seed=0)
        with pytest.raises(ValueError, match="257"):
            model.forward(dc.Tensor(np.zeros((4, 100))))

    def test_paper_defaults(self):
        cfg = SeConfig()
        assert (cfg.conv_layers, cfg.attention_blocks) == (4, 8)
        assert cfg.ff_dim == 4 * cfg.d_model

    def test_dmodel_heads_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            SeConfig(d_model=10, heads=4)


class TestResidualPathOracle:
    def test_zeroed_blocks_reduce_to_conv_stem_path(self):
        """With attention and FF output weights zeroed, each pre-norm block is
        an exact identity, so the model must equal an independently computed
        stem -> positions -> final norm -> projection -> softplus pipeline."""
        cfg = TINY
        model = SeModel(cfg, seed=3)
        for i in range(cfg.attention_blocks):
            for name in (f"block{i}.wo", f"block{i}.bo", f"block{i}.ff.w2", f"block{i}.ff.b2"):
                model.params[name].data[:] = 0.0

        rng = np.random.default_rng(4)
        x = rng.uniform(0, 2, (6, 257))

        # independent numpy re-computation
        h = x
        for i in range(cfg.conv_layers):
            w = model.params[f"conv{i}.w"].data
            b = model.params[f"conv{i}.b"].data
            hp = np.pad(h, ((1, 1), (0, 0)))
            conv = np.zeros((6, cfg.d_model))
            for t in range(6):
                for o in range(cfg.d_model):
                    conv[t, o] = np.sum(hp[t : t + 3].T * w[o]) + b[o]
            h = np.maximum(conv, 0.0)
        h = h + sinusoidal_positions(6, cfg.d_model)
        mu = h.mean(axis=1, keepdims=True)
        var = h.var(axis=1, keepdims=True)
        h = (h - mu) / np.sqrt(var + 1e-5)
        h = h * model.params["final_ln.g"].data + model.params["final_ln.b"].data
        proj = h @ model.params["out.w"].data + model.params["out.b"].data
        expected = np.logaddexp(0.0, proj)

        got = model.forward(dc.Tensor(x)).data
        assert np.max(np.abs(got - expected)) < 1e-10


class TestSeLoss:
    def test_identical_is_zero(self):
        x = dc.Tensor(np.ones((3, 257)))
        assert se_loss(x, np.ones((3, 257))).item() == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(5)
        clean = rng.uniform(0, 1, (4, 257))
        assert abs(se_loss(dc.Tensor(clean + 1.0), clean).item() - 1.0) < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 2, (3, 257))
        b = rng.uniform(0, 2, (3, 257))
        total = 0.0
        for i in range(3):
            for j in range(257):
                total += abs(a[i, j] - b[i, j])
        assert abs(se_loss(dc.Tensor(a), b).item() - total / (3 * 257)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            se_loss(dc.Tensor(np.zeros((2, 257))), np.zeros((3, 257)))


class TestBatchIndependence:
    def test_permuting_batch_permutes_outputs(self):
        model = SeModel(TINY, seed=7)
        rng = np.random.default_rng(8)
        batch = [log1p_spec(rng, t) for t in (3, 5, 4)]
        outs = model.enhance_batch(batch)
        perm = [2, 0, 1]
        permuted = model.enhance_batch([batch[i] for i in perm])
        for got, expect_idx in zip(permuted, perm):
            assert np.array_equal(got.frames, outs[expect_idx].frames)


class TestGradients:
    def test_se_gradcheck_on_four_frames(self):
        cfg = SeConfig(d_model=6, heads=2, ff_dim=8, conv_layers=2, attention_blocks=1)
        model = SeModel(cfg, seed=9)
        rng = np.random.default_rng(10)
        x = dc.Tensor(rng.uniform(0, 1.5, (4, 257)))
        clean = rng.uniform(0, 1.5, (4, 257))
        tensors = list(model.params.values())

        worst = dc.gradcheck(
            lambda: se_loss(model.forward(x), clean),
            tensors,
            max_coords=6,
            rng=np.random.default_rng(0),
        )
        assert worst < 1e-4

    def test_training_reduces_validation_loss(self):
        cfg = SeConfig(d_model=12, heads=2, ff_dim=24, conv_layers=2, attention_blocks=1)
        model = SeModel(cfg, seed=11)
        rng = np.random.default_rng(12)
        # tiny mapping task: denoise a fixed spectral pattern
        clean = [rng.uniform(0, 1, (6, 257)) for _ in range(4)]
        noisy = [c + rng.uniform(0, 0.5, c.shape) for c in clean]
        val_clean = clean[-1]
        val_noisy = noisy[-1]

        def val_loss():
            return se_loss(model.forward(dc.Tensor(val_noisy)), val_clean).item()

        before = val_loss()
        opt = dc.Adam(model.params, lr=3e-3)
        for _ in range(8):
            for c, n in zip(clean[:-1], noisy[:-1]):
                opt.zero_grad()
                loss = se_loss(model.forward(dc.Tensor(n)), c)
                loss.backward()
                opt.step()
        assert val_loss() < before


class TestCheckpoint:
    def _saved(self, tmp_path, edit=None):
        path = tmp_path / "se.ckpt"
        SeModel(TINY, seed=2).save(path, seed=2)
        if edit is not None:
            arrays, meta = dc.load_checkpoint(path)
            edit(arrays)
            dc.save_checkpoint(path, arrays, meta)
        return path

    def test_roundtrip(self, tmp_path):
        back = SeModel.load(self._saved(tmp_path))
        model = SeModel(TINY, seed=2)
        assert back.cfg == model.cfg
        for n, p in model.params.items():
            assert np.array_equal(back.params[n].data, p.data)

    def test_missing_tensor_rejected(self, tmp_path):
        name = sorted(SeModel(TINY).params)[-1]
        path = self._saved(tmp_path, lambda arrays: arrays.pop(name))
        with pytest.raises(ValueError, match=rf"se\.ckpt.*lacks tensor '{name}'"):
            SeModel.load(path)

    def test_broadcastable_shape_rejected(self, tmp_path):
        name, shape = next((n, p.shape) for n, p in SeModel(TINY).params.items() if p.data.ndim == 1)
        path = self._saved(tmp_path, lambda arrays: arrays.update({name: np.ones(1)}))
        with pytest.raises(ValueError, match=rf"se\.ckpt.*'{name}' has shape \(1,\).*{shape}"):
            SeModel.load(path)
