import re

import numpy as np
import pytest

import bpcse.diffcore as dc
from bpcse import dsp, se_model
from bpcse.se_model import SeConfig, SeModel, se_loss, sinusoidal_positions
from memory import traced

TINY = SeConfig(d_model=8, heads=2, attention_blocks=2)


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
        assert (cfg.conv_layers, cfg.attention_blocks, cfg.d_model, cfg.heads) == (4, 8, 256, 4)

    def test_fixed_widths(self):
        params = SeModel(TINY, seed=0).params
        assert params["conv0.w"].shape == (8, dsp.N_BINS, se_model.CONV_KERNEL)
        assert params["block0.ff.w1"].shape == (8, 32)
        assert params["out.w"].shape == (8, dsp.N_BINS)

    @pytest.mark.parametrize("field", ["n_bins", "ff_dim", "conv_kernel"])
    def test_fixed_settings_are_not_config_fields(self, field):
        with pytest.raises(TypeError, match=field):
            SeConfig(**{field: 3})

    def test_keys_carry_no_bias(self):
        # softmax over keys is shift-invariant, so a key bias would get no gradient
        params = SeModel(TINY, seed=0).params
        assert not [n for n in params if n.endswith(".bk")]
        assert {f"block{i}.bq" for i in range(TINY.attention_blocks)} <= set(params)

    @pytest.mark.parametrize("field", ["conv_layers", "attention_blocks", "d_model", "heads"])
    @pytest.mark.parametrize("bad", [0, -1, 2.0, True, "4", None])
    def test_size_that_is_not_a_positive_int_named(self, field, bad):
        problem = rf"SeConfig\.{field} is {re.escape(repr(bad))}; it must be a positive int"
        with pytest.raises(ValueError, match=problem):
            SeConfig(**{field: bad})

    def test_dmodel_heads_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            SeConfig(d_model=10, heads=4)

    def test_input_longer_than_max_frames_rejected(self, monkeypatch):
        model = SeModel(TINY, seed=0)
        monkeypatch.setattr(se_model, "MAX_FRAMES", 6)
        assert model.forward(dc.Tensor(np.zeros((6, 257)))).shape == (6, 257)
        with pytest.raises(ValueError, match=r"7 frames.*MAX_FRAMES = 6"):
            model.forward(dc.Tensor(np.zeros((7, 257))))
        with pytest.raises(ValueError, match=r"7 frames.*MAX_FRAMES = 6"):
            model.enhance(log1p_spec(np.random.default_rng(0), 7))

    def test_max_frames_is_well_above_ten_seconds(self):
        assert se_model.MAX_FRAMES * dsp.HOP >= 3 * 10 * dsp.SAMPLE_RATE


def op_counts(root):
    """How many nodes of each op kind the graph reachable from ``root`` holds."""
    counts, seen, stack = {}, {id(root)}, [root]
    while stack:
        node = stack.pop()
        counts[node._op] = counts.get(node._op, 0) + 1
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return counts


class TestInference:
    def test_enhance_equals_forward_bit_for_bit(self):
        model = SeModel(TINY, seed=5)
        spec = log1p_spec(np.random.default_rng(6), 9)
        assert np.array_equal(model.enhance(spec).frames, model.forward(dc.Tensor(spec.frames)).data)

    def test_one_attention_node_per_block(self):
        model = SeModel(TINY, seed=5)
        x = dc.Tensor(np.random.default_rng(7).uniform(0, 2, (5, 257)))
        counts = op_counts(se_loss(model.forward(x), np.zeros((5, 257))))
        assert counts["attention_sublayer"] == counts["feed_forward_sublayer"] == TINY.attention_blocks
        # inside the blocks there is nothing else: the one layer norm is the final one, the relus are the stem's
        assert counts["layer_norm"] == 1 and counts["relu"] == TINY.conv_layers
        assert not {"matmul", "attention", "softmax", "slice", "transpose", "concat"} & set(counts)

    def test_enhance_holds_one_block_of_scores(self):
        cfg = SeConfig(d_model=8, heads=4, conv_layers=1, attention_blocks=1)
        model = SeModel(cfg, seed=5)
        t = 16 * dc.ATTENTION_ROWS - 24
        spec = log1p_spec(np.random.default_rng(8), t)
        _, peak, _ = traced(lambda: model.enhance(spec))
        full_scores = cfg.heads * t * t * 8
        assert peak < full_scores, f"enhance peaked at {peak / full_scores:.2f} of one full score matrix"

    def test_enhance_frees_each_sublayer_input(self):
        """A block's input is freed once its attention sublayer has run, so enhance peaks in the
        feed-forward at six (T, d) arrays: its input, its layer-norm output and the 4d-wide hidden layer."""
        cfg = SeConfig(d_model=256, heads=1, conv_layers=1, attention_blocks=1)
        model = SeModel(cfg, seed=5)
        t = 3 * dc.ATTENTION_ROWS + 5
        spec = log1p_spec(np.random.default_rng(10), t)
        _, peak, _ = traced(lambda: model.enhance(spec))
        array = 8 * t * cfg.d_model
        assert peak <= 6.5 * array, f"enhance peaked at {peak / array:.2f} (T, d) arrays"


def held_after_forward(cfg, x):
    """Bytes that ``SeModel(cfg).forward(x)`` leaves allocated while its graph is alive."""
    model = SeModel(cfg, seed=5)
    out, _, held = traced(lambda: model.forward(dc.Tensor(x)))
    assert out.requires_grad
    return held


class TestTrainingMemory:
    def test_forward_holds_only_the_designed_arrays_per_block(self):
        t, d, heads = 70, 32, 2
        x = np.random.default_rng(9).uniform(0, 2, (t, 257))
        one, three = (
            held_after_forward(SeConfig(d_model=d, heads=heads, conv_layers=1, attention_blocks=n), x) for n in (1, 3)
        )
        per_block = (three - one) / 2
        # attention: q, k, v, weights, attention output, LN1 mean and inverse std, the sublayer's output;
        # feed-forward: the rectified hidden layer, LN2 mean and inverse std, the sublayer's output
        attention = 4 * t * d + heads * t * t + 2 * t + t * d
        feed_forward = 4 * t * d + 2 * t + t * d
        designed = 8 * (attention + feed_forward)
        # 8 KiB covers the Python objects of the two nodes (tensors, closures, array headers), about 4.5 KiB
        assert per_block <= designed + 8192, f"a block holds {per_block:.0f} bytes, designed {designed}"


@pytest.mark.parametrize("t, d", [(1, 1), (1, 2), (6, 5), (33, 9), (50, 256), (2048, 256), (17, 255)])
def test_sinusoidal_positions_equal_the_full_angle_formula(t, d):
    """sin on even columns, cos on odd ones, bit for bit what evaluating both on every angle gives."""
    pos = np.arange(t)[:, None]
    i = np.arange(d)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / d)
    want = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    assert np.array_equal(sinusoidal_positions(t, d), want)


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
        outs = [model.enhance(s) for s in batch]
        perm = [2, 0, 1]
        permuted = [model.enhance(batch[i]) for i in perm]
        for got, expect_idx in zip(permuted, perm):
            assert np.array_equal(got.frames, outs[expect_idx].frames)


class TestGradients:
    def test_se_gradcheck_on_four_frames(self):
        cfg = SeConfig(d_model=6, heads=2, conv_layers=2, attention_blocks=1)
        model = SeModel(cfg, seed=9)
        rng = np.random.default_rng(10)
        x = dc.Tensor(rng.uniform(0, 1.5, (4, 257)))
        clean = rng.uniform(0, 1.5, (4, 257))
        tensors = list(model.params.values())

        worst = dc.gradcheck(
            lambda: se_loss(model.forward(x), clean),
            tensors,
            max_coords=6,
        )
        assert worst < 1e-4

    def test_training_reduces_validation_loss(self):
        cfg = SeConfig(d_model=12, heads=2, conv_layers=2, attention_blocks=1)
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

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda meta: meta.pop("config"), "lacks the 'config' field"),
            (lambda meta: meta.update(config=[1, 2]), r"'config' is \[1, 2\]; it must be a JSON object"),
            (lambda meta: meta["config"].update(extra=1), r"'config' is invalid: .*'extra'"),
            (lambda meta: meta["config"].update(n_bins=257), r"'config' is invalid: .*'n_bins'"),
            (lambda meta: meta["config"].update(heads=0), r"'config' is invalid: SeConfig\.heads is 0"),
        ],
        ids=["missing", "list", "unknown_field", "removed_field", "zero_heads"],
    )
    def test_bad_config_rejected(self, tmp_path, edit, problem):
        path = self._saved(tmp_path)
        arrays, meta = dc.load_checkpoint(path)
        edit(meta)
        dc.save_checkpoint(path, arrays, meta)
        with pytest.raises(ValueError, match=rf"se\.ckpt: checkpoint meta.*{problem}"):
            SeModel.load(path)

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
