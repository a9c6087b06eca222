import hashlib
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import bpcse.diffcore as dc
from bpcse import dsp, se_model
from bpcse.se_model import SeConfig, SeModel, se_loss, sinusoidal_positions
from gradcheck_ops import ReadRecorder, gradcheck, graph_nodes, init_params_by_weights, weights_digest
from memory import packed, traced

TINY = SeConfig(d_model=8, heads=2, attention_blocks=2)
PAPER = SeConfig()


def se_layouts(cfg):
    """The layout table of ``SeModel``, written out: stem convs, blocks, final layer norm and output layer."""
    d = cfg.d_model
    layouts = {f"conv{i}": dc.conv1d_layout(dsp.N_BINS if i == 0 else d, d, 3) for i in range(cfg.conv_layers)}
    layouts |= {f"block{i}": dc.attention_layout(d) | dc.feed_forward_layout(d, 4 * d) for i in range(cfg.attention_blocks)}
    return layouts | {"final_ln": dc.layer_norm_layout(d), "out": dc.linear_layout(d, dsp.N_BINS)}


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

    @pytest.mark.parametrize("shape", [(257,), (4, 257, 1)])
    def test_input_of_another_rank_named(self, shape):
        model = SeModel(TINY, seed=0)
        with pytest.raises(ValueError, match=rf"of shape \(T, 257\), got shape {re.escape(str(shape))}"):
            model.forward(dc.Tensor(np.zeros(shape)))

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

    def test_initial_weights_are_pinned(self):
        """Recorded when each weight was still created by a line of its own: a change to the names, the
        draw order or the init rule of any weight changes the digest."""
        digest = "12b721f5b6c4a1639a2fef73a0a4bc615baacb7db73b2b7f6aa8de8d5238b1b9"
        assert weights_digest(SeModel(TINY, seed=0).params) == digest

    def test_forward_reads_every_weight(self):
        model = SeModel(TINY, seed=0)
        model.params = ReadRecorder(model.params)
        model.forward(dc.Tensor(np.random.default_rng(2).uniform(0, 2, (5, 257))))
        assert model.params.read == set(model.params)

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
        # inside the blocks there is nothing else: the one layer norm is the final one, and each stem layer is one node
        assert counts["layer_norm"] == 1 and counts["conv1d_relu"] == TINY.conv_layers
        assert not {"matmul", "relu", "attention", "softmax", "slice", "transpose", "concat"} & set(counts)

    def test_paper_forward_is_24_graph_nodes(self):
        """Four stem layers, the positions' add, two sublayers in each of 8 blocks, the final layer norm, the
        output's linear and its softplus: every other node is a leaf."""
        model = SeModel(SeConfig(), seed=0)
        out = model.forward(dc.Tensor(np.random.default_rng(7).uniform(0, 2, (3, 257))))
        assert len([n for n in graph_nodes(out) if n._backward is not None]) == 24

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
    def test_each_stem_layer_holds_one_array(self):
        """A stem layer's graph node keeps its rectified output, which its backward masks the grad with."""
        t, d = 70, 32
        x = np.random.default_rng(9).uniform(0, 2, (t, 257))
        one, two = (held_after_forward(SeConfig(d_model=d, heads=2, conv_layers=n, attention_blocks=1), x) for n in (1, 2))
        # 2 KiB covers the Python objects of the node (tensor, closure, array header)
        assert two - one <= 8 * t * d + 2048, f"a stem layer holds {(two - one) / (8 * t * d):.2f} (T, d) arrays"

    def test_forward_holds_only_the_designed_arrays_per_block(self):
        t, d, heads = 70, 32, 2
        x = np.random.default_rng(9).uniform(0, 2, (t, 257))
        one, three = (
            held_after_forward(SeConfig(d_model=d, heads=heads, conv_layers=1, attention_blocks=n), x) for n in (1, 3)
        )
        per_block = (three - one) / 2
        # attention: q, k, v, weights, attention output, the sublayer's output; feed-forward: the rectified
        # hidden layer, the sublayer's output. Neither keeps anything of its layer norm
        attention = 4 * t * d + heads * t * t + t * d
        feed_forward = 4 * t * d + t * d
        designed = 8 * (attention + feed_forward)
        # 8 KiB covers the Python objects of the two nodes (tensors, closures, array headers), about 4.5 KiB
        assert per_block <= designed + 8192, f"a block holds {per_block:.0f} bytes, designed {designed}"


@pytest.mark.parametrize("t, d", [(1, 1), (1, 2), (6, 5), (33, 9), (50, 256), (2048, 256), (17, 255)])
def test_sinusoidal_positions_equal_the_full_angle_formula(t, d):
    """sin on even columns, cos on odd ones, bit for bit what evaluating both on every angle gives,
    and what dividing the positions by the rates once for sin and once for cos gives."""
    pos = np.arange(t)[:, None]
    i = np.arange(d)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / d)
    want = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    rates = np.power(10000.0, np.arange(0, d, 2) / d)
    two_rates = np.empty((t, d))
    two_rates[:, 0::2] = np.sin(pos / rates)
    two_rates[:, 1::2] = np.cos(pos / rates[: d // 2])
    got = sinusoidal_positions(t, d)
    assert np.array_equal(got, want) and np.array_equal(got, two_rates)


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

        worst = gradcheck(
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


class TestWeightBuffer:
    @pytest.mark.parametrize("cfg", [TINY, PAPER], ids=["tiny", "paper"])
    def test_weights_equal_the_per_weight_draws(self, cfg):
        """Names in layout-table order, shapes and bytes."""
        params = SeModel(cfg, seed=5).params
        want = init_params_by_weights(np.random.default_rng(5), se_layouts(cfg))
        assert list(params) == list(want)
        for n, p in params.items():
            assert p.shape == want[n].shape and p.data.tobytes() == want[n].tobytes(), n

    @pytest.mark.parametrize("cfg", [TINY, PAPER], ids=["tiny", "paper"])
    def test_weights_are_views_of_one_buffer_in_table_order(self, cfg):
        assert packed(p.data for p in SeModel(cfg).params.values())

    def test_paper_model_makes_one_large_allocation(self):
        """Its weights, with nothing else of 1 MiB or more alive at the end or allocated on the way."""
        tracemalloc.start()
        try:
            model = SeModel(PAPER)
            large = [trace.size for trace in tracemalloc.take_snapshot().traces if trace.size >= 2**20]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        weights = sum(p.data.nbytes for p in model.params.values())
        assert large == [weights]
        assert peak < weights + 2**20

    def test_saved_checkpoint_is_pinned(self, tmp_path):
        """Recorded when each weight was still drawn into an array of its own."""
        path = tmp_path / "se.ckpt"
        SeModel(TINY, seed=2).save(path, seed=2)
        digest = "6c01afb45d5b6b2462d41d722631ce6ea6aa1981fe385a518ecb4de3fe55351f"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCheckpoint:
    def _saved(self, tmp_path, edit=lambda params, meta: None):
        """A checkpoint of ``SeModel(TINY, seed=2)``, its params and meta edited by ``edit`` before the save."""
        path = tmp_path / "se.ckpt"
        model = SeModel(TINY, seed=2)
        params, meta = dict(model.params), {"kind": "se", "config": asdict(model.cfg), "seed": 2}
        edit(params, meta)
        dc.save_checkpoint(path, params, meta)
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
        path = self._saved(tmp_path, lambda params, meta: edit(meta))
        with pytest.raises(ValueError, match=rf"se\.ckpt: checkpoint meta.*{problem}"):
            SeModel.load(path)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "se.ckpt"
        model = SeModel(TINY, seed=2)
        model.save(path, seed=2)
        back = SeModel.load(path)
        assert type(back) is SeModel and back.cfg == model.cfg and list(back.params) == list(model.params)
        for n, p in model.params.items():
            assert isinstance(back.params[n], dc.Parameter) and np.array_equal(back.params[n].data, p.data)
        assert packed(p.data for p in back.params.values())
        spec = log1p_spec(np.random.default_rng(3), 5)
        assert np.array_equal(back.enhance(spec).frames, model.enhance(spec).frames)

    def test_missing_tensor_rejected(self, tmp_path):
        name = sorted(SeModel(TINY).params)[-1]
        path = self._saved(tmp_path, lambda params, meta: params.pop(name))
        with pytest.raises(ValueError, match=rf"se\.ckpt.*lacks tensor '{name}'"):
            SeModel.load(path)

    def test_broadcastable_shape_rejected(self, tmp_path):
        name, shape = next((n, p.shape) for n, p in SeModel(TINY).params.items() if p.data.ndim == 1)
        path = self._saved(tmp_path, lambda params, meta: params.update({name: dc.Parameter(np.ones(1))}))
        with pytest.raises(ValueError, match=rf"se\.ckpt.*'{name}' has shape \(1,\).*{shape}"):
            SeModel.load(path)

    def test_header_in_another_order_rejected(self, tmp_path):
        """The payload is read in table order, so a header that lists the same tensors otherwise is refused."""
        path = self._saved(tmp_path, lambda params, meta: params.update({"conv0.w": params.pop("conv0.w")}))
        problem = "checkpoint tensor 'conv0.b' is at position 0, where the model has 'conv0.w'"
        with pytest.raises(ValueError, match=rf"se\.ckpt: {re.escape(problem)}"):
            SeModel.load(path)

    def test_paper_load_reads_into_one_buffer(self, tmp_path):
        """One allocation of the weights' size (54.7 MiB), no weight drawn, and the loaded weights are packed."""
        path = tmp_path / "se.ckpt"
        SeModel(PAPER, seed=4).save(path)
        tracemalloc.start()
        try:
            back = SeModel.load(path)
            large = [trace.size for trace in tracemalloc.take_snapshot().traces if trace.size >= 2**20]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        weights = sum(p.data.nbytes for p in back.params.values())
        assert weights == 8 * 7_170_817 and large == [weights]
        assert peak < weights + 2**20
        assert packed(p.data for p in back.params.values())
        want = SeModel(PAPER, seed=4).params
        assert all(np.array_equal(p.data, want[n].data) for n, p in back.params.items())
