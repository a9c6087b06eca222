import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bpcse.diffcore as dc
from bpcse import asr_model as am
from bpcse import dsp
from bpcse.se_model import SeConfig, SeModel
from gradcheck_ops import (
    ReadRecorder,
    attention_decoder_by_steps,
    gradcheck,
    graph_nodes,
    init_params_by_weights,
    tsum,
    weights_digest,
)
from memory import packed

MEL = dsp.N_MEL_FILTERS  # the recognizer's input width


def tiny_cfg(**kw):
    defaults = dict(
        vocab=am.make_vocab(("A", "B", "C")),
        encoder_hidden=4,
        proj_dim=6,
        embed_dim=3,
    )
    defaults.update(kw)
    return am.AsrConfig(**defaults)


def asr_layouts(cfg):
    """The layout table of ``AsrModel``, written out: two BLSTM layers, projection, CTC head and decoder."""
    h, d, v = cfg.encoder_hidden, cfg.proj_dim, len(cfg.vocab)
    return {"enc0": dc.blstm_layout(MEL, h), "enc1": dc.blstm_layout(2 * h, h), "proj": dc.linear_layout(2 * h, d),
            "ctc": dc.linear_layout(d, v), "dec": dc.decoder_layout(v, cfg.embed_dim, d)}


def collapse_oracle(path, blank=0):
    """Independent CTC collapse: groupby-dedupe then strip blanks."""
    return [k for k, _ in itertools.groupby(path) if k != blank]


def decode_oracle(path, blank=0):
    """Collapse, strip blanks, then merge duplicates again (BPC label space)."""
    return [k for k, _ in itertools.groupby(collapse_oracle(path, blank))]


def brute_force_ctc(logits, labels, blank=0):
    """Sum path probabilities over the full V^T path space."""
    logp = logits - np.log(np.exp(logits - logits.max(1, keepdims=True)).sum(1, keepdims=True)) - logits.max(1, keepdims=True)
    t_len, v = logits.shape
    total = 0.0
    for path in itertools.product(range(v), repeat=t_len):
        if collapse_oracle(path, blank) == list(labels):
            total += math.exp(sum(logp[t, s] for t, s in enumerate(path)))
    return -math.log(total)


def ctc_by_two_recursions(logits, labels):
    """Oracle for ``ctc_loss``: separate alpha and beta recursions, each frame's shifts built by concatenation."""
    t_len, v = logits.shape
    ext = np.array([am.BLANK, *itertools.chain.from_iterable((l, am.BLANK) for l in labels)])
    s_len = len(ext)
    logp = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))

    neg = -np.inf
    # transition s-2 -> s allowed when ext[s] is a label differing from ext[s-2]
    skip_ok = np.zeros(s_len, dtype=bool)
    skip_ok[2:] = (ext[2:] != am.BLANK) & (ext[2:] != ext[:-2])

    alpha = np.full((t_len, s_len), neg)
    alpha[0, 0] = logp[0, ext[0]]
    if s_len > 1:
        alpha[0, 1] = logp[0, ext[1]]
    for t in range(1, t_len):
        prev = alpha[t - 1]
        move = np.concatenate(([neg], prev[:-1]))
        if s_len > 2:
            skip = np.where(skip_ok, np.concatenate(([neg, neg], prev[:-2])), neg)
        else:
            skip = np.full(s_len, neg)
        alpha[t] = np.logaddexp(np.logaddexp(prev, move), skip) + logp[t, ext]

    log_z = alpha[-1, -1] if s_len == 1 else np.logaddexp(alpha[-1, -1], alpha[-1, -2])

    def backward(g):
        beta = np.full((t_len, s_len), neg)
        beta[-1, -1] = 0.0
        if s_len > 1:
            beta[-1, -2] = 0.0
        for t in range(t_len - 2, -1, -1):
            q = beta[t + 1] + logp[t + 1, ext]
            stay = q
            move = np.concatenate((q[1:], [neg]))
            if s_len > 2:
                skip = np.concatenate((np.where(skip_ok[2:], q[2:], neg), [neg, neg]))
            else:
                skip = np.full(s_len, neg)
            beta[t] = np.logaddexp(np.logaddexp(stay, move), skip)
        occupancy = np.exp(alpha + beta - log_z)  # (T, S)
        gamma = np.zeros((t_len, v))
        for s in range(s_len):
            gamma[:, ext[s]] += occupancy[:, s]
        dc._accum(logits, g * (np.exp(logp) - gamma))

    return dc._node(-log_z, (logits,), backward, "ctc_loss")


BAD_CONFIGS = [
    (lambda meta: meta.pop("config"), "lacks the 'config' field"),
    (lambda meta: meta.update(config=[1, 2]), r"'config' is \[1, 2\]; it must be a JSON object"),
    (lambda meta: meta["config"].update(extra=1), r"'config' is invalid: .*'extra'"),
    (lambda meta: meta["config"].update(ctc_weight=0.5), r"'config' is invalid: .*'ctc_weight'"),
    (lambda meta: meta["config"]["vocab"].append("B"), r"'config' is invalid: .*'B' at position 6 repeats position 4"),
    (lambda meta: meta["config"]["vocab"].append(7), r"'config' is invalid: .*label 7 at position 6 is not a string"),
    (lambda meta: meta["config"].update(proj_dim=0), r"'config' is invalid: AsrConfig\.proj_dim is 0"),
]


class TestCtcLoss:
    def test_single_frame_uniform(self):
        logits = dc.Tensor(np.zeros((1, 2)))
        loss = dc.ctc_loss(logits, [1])
        assert abs(loss.item() - (-math.log(0.5))) < 1e-12

    def test_certain_path_zero_loss(self):
        logits = np.full((3, 3), -100.0)
        logits[:, 1] = 100.0
        loss = dc.ctc_loss(dc.Tensor(logits), [1])
        assert abs(loss.item()) < 1e-6

    def test_matches_brute_force_small_batch(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            t_len = int(rng.integers(1, 6))
            v = int(rng.integers(2, 5))
            n_lab = int(rng.integers(0, min(3, t_len) + 1))
            labels = list(rng.integers(1, v, n_lab))
            if t_len < dc.min_frames_for(labels):
                continue
            logits = rng.normal(0, 2, (t_len, v))
            got = dc.ctc_loss(dc.Tensor(logits), labels).item()
            want = brute_force_ctc(logits, labels)
            assert abs(got - want) < 1e-6

    def test_infeasible_alignment_rejected(self):
        with pytest.raises(ValueError, match="no valid alignment"):
            dc.ctc_loss(dc.Tensor(np.zeros((1, 3))), [1, 2])
        # repeated labels need a separating blank frame
        with pytest.raises(ValueError, match="no valid alignment"):
            dc.ctc_loss(dc.Tensor(np.zeros((2, 3))), [1, 1])

    def test_blank_in_labels_rejected(self):
        with pytest.raises(ValueError, match="blank"):
            dc.ctc_loss(dc.Tensor(np.zeros((3, 3))), [0])

    @pytest.mark.parametrize("bad", [3.9, 2.0, np.float64(1.5), "1"])
    def test_non_integer_label_named(self, bad):
        with pytest.raises(ValueError, match=rf"ctc_loss: label id {re.escape(repr(bad))} is not an integer"):
            dc.ctc_loss(dc.Tensor(np.zeros((4, 5))), [1, bad])

    def test_numpy_integer_labels_accepted(self):
        logits = np.random.default_rng(3).normal(0, 1, (6, 5))
        want = dc.ctc_loss(dc.Tensor(logits), [1, 3, 3]).item()
        for labels in (np.array([1, 3, 3]), [np.int32(1), np.uint8(3), 3]):
            assert dc.ctc_loss(dc.Tensor(logits), labels).item() == want

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        logits = dc.Parameter(rng.normal(0, 1, (5, 4)))
        worst = gradcheck(lambda: dc.ctc_loss(logits, [1, 2]), [logits])
        assert worst < 1e-4

    def test_plain_array_is_lifted(self):
        logits = np.random.default_rng(4).normal(0, 1, (4, 5))
        loss = dc.ctc_loss(logits, [1, 2])
        assert not loss.requires_grad
        assert loss.item() == dc.ctc_loss(dc.Tensor(logits), [1, 2]).item()

    @given(seed=st.integers(0, 100000))
    @settings(max_examples=40, deadline=None)
    def test_no_nans_for_bounded_logits(self, seed):
        rng = np.random.default_rng(seed)
        t_len = int(rng.integers(3, 12))
        logits = dc.Parameter(rng.uniform(-50, 50, (t_len, 5)))
        labels = list(rng.integers(1, 5, min(3, t_len)))
        if t_len < dc.min_frames_for(labels):
            labels = labels[:1]
        loss = dc.ctc_loss(logits, labels)
        loss.backward()
        assert np.isfinite(loss.data)
        assert np.all(np.isfinite(logits.grad))

    @given(
        t_len=st.integers(1, 40),
        v=st.integers(2, 8),
        draws=st.lists(st.integers(1, 7), max_size=12),
        scale=st.sampled_from([0.1, 1.0, 3.0, 8.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    @example(t_len=2, v=2, draws=[1], scale=3.0, seed=757861)  # grads of 1.4e-6, each a difference of near-ones
    def test_equals_two_recursions(self, t_len, v, draws, scale, seed):
        labels = [1 + d % (v - 1) for d in draws]  # repeats are common at small vocab sizes
        while dc.min_frames_for(labels) > t_len:
            labels.pop()
        arrays = np.random.default_rng(seed).normal(0, scale, (t_len, v))
        results = []
        for run in (dc.ctc_loss, ctc_by_two_recursions):
            logits = dc.Parameter(arrays.copy())
            loss = run(logits, labels)
            loss.backward()
            results.append((loss.data, logits.grad))
        (loss, grad), (want_loss, want_grad) = results
        assert loss.tobytes() == want_loss.tobytes()
        # each grad is softmax - occupancy, so it is bounded by its parts, not by its possibly cancelled size
        probabilities = np.exp(arrays - arrays.max(axis=1, keepdims=True))
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(probabilities)

    def test_empty_labels_all_blank_probability(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(0, 1, (4, 3))
        got = dc.ctc_loss(dc.Tensor(logits), []).item()
        want = brute_force_ctc(logits, [])
        assert abs(got - want) < 1e-9


class TestDecodeGreedy:
    def test_all_blank(self):
        logits = np.zeros((4, 3))
        logits[:, 0] = 5.0
        assert am.decode_greedy(logits) == []

    def test_collapse_rule(self):
        # frames argmax: a a blank b  ->  [a, b]
        v = 3
        frames = [1, 1, 0, 2]
        logits = np.full((4, v), -5.0)
        for t, s in enumerate(frames):
            logits[t, s] = 5.0
        assert am.decode_greedy(logits) == [1, 2]

    @given(seed=st.integers(0, 100000))
    @settings(max_examples=50, deadline=None)
    def test_matches_collapse_oracle(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 1, (int(rng.integers(1, 15)), 4))
        got = am.decode_greedy(logits)
        want = decode_oracle(np.argmax(logits, axis=1))
        assert got == want
        assert 0 not in got
        assert all(a != b for a, b in zip(got, got[1:]))


class TestEncoder:
    def test_default_proj_dim_is_320(self):
        cfg = am.AsrConfig(vocab=am.make_vocab(("A",)))
        assert cfg.proj_dim == 320

    @pytest.mark.parametrize(
        "labels, problem",
        [
            (("A", "A", "B"), r"label 'A' at position 4 repeats position 3"),
            (("A", "<blank>"), r"label '<blank>' at position 4 repeats position 0"),
            (("A", 3), r"label 3 at position 4 is not a string"),
            ((None,), r"label None at position 3 is not a string"),
        ],
    )
    def test_bad_vocab_label_named(self, labels, problem):
        with pytest.raises(ValueError, match=problem):
            am.AsrConfig(vocab=am.make_vocab(labels))

    @pytest.mark.parametrize("field", ["encoder_hidden", "proj_dim", "embed_dim"])
    @pytest.mark.parametrize("bad", [0, -1, 2.0, True, "4", None])
    def test_size_that_is_not_a_positive_int_named(self, field, bad):
        problem = rf"AsrConfig\.{field} is {re.escape(repr(bad))}; it must be a positive int"
        with pytest.raises(ValueError, match=problem):
            am.AsrConfig(vocab=am.make_vocab(("A",)), **{field: bad})

    @pytest.mark.parametrize("field", ["n_mels", "encoder_layers", "ctc_weight", "scheme_name"])
    def test_fixed_settings_are_not_config_fields(self, field):
        with pytest.raises(TypeError, match=field):
            am.AsrConfig(vocab=am.make_vocab(("A",)), **{field: 1})

    def test_output_width(self):
        model = am.AsrModel(tiny_cfg(), seed=0)
        out = model.encode(dc.Tensor(np.zeros((7, MEL))))
        assert out.shape == (7, 6)

    def test_zero_weights_zero_input_zero_features(self):
        model = am.AsrModel(tiny_cfg(), seed=0)
        for p in model.params.values():
            p.data[:] = 0.0
        out = model.encode(dc.Tensor(np.zeros((4, MEL))))
        assert np.all(out.data == 0)

    def test_wrong_input_dim_rejected(self):
        model = am.AsrModel(tiny_cfg(), seed=0)
        with pytest.raises(ValueError, match=f"{MEL}-dim"):
            model.encode(dc.Tensor(np.zeros((4, 7))))

    @pytest.mark.parametrize("shape", [(MEL,), (4, MEL, 1)])
    def test_input_of_another_rank_named(self, shape):
        model = am.AsrModel(tiny_cfg(), seed=0)
        with pytest.raises(ValueError, match=rf"of shape \(T, {MEL}\), got shape {re.escape(str(shape))}"):
            model.encode(dc.Tensor(np.zeros(shape)))

    def test_gradcheck_two_layers_three_frames(self):
        model = am.AsrModel(tiny_cfg(), seed=1)
        rng = np.random.default_rng(3)
        x = dc.Parameter(rng.normal(0, 1, (3, MEL)))
        tensors = [x, *model.params.values()]
        worst = gradcheck(
            lambda: tsum(model.encode(x) * model.encode(x)),
            tensors,
            max_coords=4,
        )
        assert worst < 1e-4


class TestWeights:
    def test_initial_weights_are_pinned(self):
        """Recorded when each weight was still created by a line of its own: a change to the names, the
        draw order or the init rule of any weight changes the digest."""
        digest = "82ba67c1f6a95daac429ab580a9d24b252d294df198325104426ba022b0d21a9"
        assert weights_digest(am.AsrModel(tiny_cfg(), seed=0).params) == digest

    @pytest.mark.parametrize("paper", [False, True], ids=["tiny", "paper"])
    def test_weights_equal_the_per_weight_draws(self, paper):
        """Names in layout-table order, shapes and bytes."""
        cfg = am.AsrConfig(vocab=tiny_cfg().vocab) if paper else tiny_cfg()
        params = am.AsrModel(cfg, seed=5).params
        want = init_params_by_weights(np.random.default_rng(5), asr_layouts(cfg))
        assert list(params) == list(want)
        for n, p in params.items():
            assert p.shape == want[n].shape and p.data.tobytes() == want[n].tobytes(), n

    def test_weights_are_views_of_one_buffer_in_table_order(self):
        assert packed(p.data for p in am.AsrModel(tiny_cfg()).params.values())

    def test_saved_checkpoint_is_pinned(self, tmp_path):
        """Recorded when each weight was still drawn into an array of its own."""
        path = tmp_path / "asr.ckpt"
        am.AsrModel(tiny_cfg(), seed=2).save(path, seed=2)
        digest = "a7a10c477fcfbd3f1ae68d042467277f060b9356028a1b7c9fc90cefb9fb2bd6"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_encode_and_asr_loss_read_every_weight(self):
        model = am.AsrModel(tiny_cfg(), seed=0)
        model.params = ReadRecorder(model.params)
        hidden = model.encode(dc.Tensor(np.random.default_rng(10).normal(0, 1, (6, MEL))))
        model.asr_loss(hidden, [3, 4], lam=0.5)
        assert model.params.read == set(model.params)


class TestAttentionDecoder:
    def test_uniform_outputs_log_vocab(self):
        model = am.AsrModel(tiny_cfg(), seed=2)
        model.params["dec.out.w"].data[:] = 0.0
        model.params["dec.out.b"].data[:] = 0.0
        rng = np.random.default_rng(4)
        hidden = model.encode(dc.Tensor(rng.normal(0, 1, (5, MEL))))
        loss = model.attention_loss(hidden, [3, 4])
        assert abs(loss.item() - math.log(len(model.cfg.vocab))) < 1e-12

    def test_empty_labels_rejected(self):
        model = am.AsrModel(tiny_cfg(), seed=0)
        hidden = model.encode(dc.Tensor(np.zeros((3, MEL))))
        with pytest.raises(ValueError, match="nonempty"):
            model.attention_loss(hidden, [])

    def test_equals_step_graph_oracle(self):
        model = am.AsrModel(tiny_cfg(), seed=3)
        hidden = dc.Tensor(np.random.default_rng(5).normal(0, 1, (6, 6)))
        p = model.params
        operands = [p[n] for n in ("dec.embed", "dec.lstm.W", "dec.lstm.U", "dec.lstm.b", "dec.out.w", "dec.out.b")]
        want = attention_decoder_by_steps(hidden, *operands, [am.SOS, 3, 5, 3], [3, 5, 3, am.EOS]).item()
        assert abs(model.attention_loss(hidden, [3, 5, 3]).item() - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("bad", [-1, 6, 99])
    def test_label_outside_vocab_named(self, bad):
        model = am.AsrModel(tiny_cfg(), seed=0)
        hidden = model.encode(dc.Tensor(np.zeros((3, MEL))))
        with pytest.raises(ValueError, match=rf"label id {bad} outside vocab of size 6"):
            model.attention_loss(hidden, [3, bad])

    def test_non_integer_label_named(self):
        model = am.AsrModel(tiny_cfg(), seed=0)
        hidden = model.encode(dc.Tensor(np.zeros((3, MEL))))
        with pytest.raises(ValueError, match=r"attention_decoder: label id 3\.9 is not an integer"):
            model.attention_loss(hidden, [4, 3.9])

    def test_graph_size_does_not_grow_with_labels(self):
        model = am.AsrModel(tiny_cfg(), seed=1)
        model.freeze()
        feats = dc.Parameter(np.random.default_rng(6).normal(0, 1, (12, MEL)))
        sizes = {len(graph_nodes(model.asr_loss(model.encode(feats), [3, 4, 5][:n] * 2, lam=0.5))) for n in (1, 2, 3)}
        assert len(sizes) == 1

    def test_gradcheck_four_frames_two_labels(self):
        model = am.AsrModel(tiny_cfg(), seed=4)
        rng = np.random.default_rng(6)
        x = dc.Parameter(rng.normal(0, 1, (4, MEL)))
        tensors = [x, *model.params.values()]
        worst = gradcheck(
            lambda: model.attention_loss(model.encode(x), [3, 5]),
            tensors,
            max_coords=4,
        )
        assert worst < 1e-4


class TestAsrLoss:
    def setup_method(self):
        self.model = am.AsrModel(tiny_cfg(), seed=5)
        rng = np.random.default_rng(7)
        self.hidden = self.model.encode(dc.Tensor(rng.normal(0, 1, (6, MEL))))
        self.labels = [3, 4]

    def test_lambda_one_is_ctc(self):
        want = dc.ctc_loss(self.model.ctc_logits(self.hidden), self.labels).item()
        assert self.model.asr_loss(self.hidden, self.labels, lam=1.0).item() == want

    def test_lambda_zero_is_attention(self):
        want = self.model.attention_loss(self.hidden, self.labels).item()
        assert self.model.asr_loss(self.hidden, self.labels, lam=0.0).item() == want

    def test_lambda_half_is_mean(self):
        c = dc.ctc_loss(self.model.ctc_logits(self.hidden), self.labels).item()
        a = self.model.attention_loss(self.hidden, self.labels).item()
        got = self.model.asr_loss(self.hidden, self.labels, lam=0.5).item()
        assert abs(got - (0.5 * c + 0.5 * a)) < 1e-12

    def test_invalid_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            self.model.asr_loss(self.hidden, self.labels, lam=1.5)

    @pytest.mark.parametrize("labels, bad", [([1, 2, 3], 1), ([3, np.int64(2)], np.int64(2)), ([4, 0], 0)])
    def test_special_id_in_transcript_named(self, labels, bad):
        """``<blank>``, ``<sos>`` and ``<eos>`` are no BPC labels; both losses reject them before either head runs."""
        problem = re.escape(f"label id {bad!r} is {am.SPECIALS[bad]!r}, not a transcript label")
        with pytest.raises(ValueError, match=problem):
            self.model.asr_loss(self.hidden, labels, lam=0.5)
        with pytest.raises(ValueError, match=problem):
            self.model.attention_loss(self.hidden, labels)

    def test_frozen_params_still_pass_gradient_to_inputs(self):
        self.model.freeze()
        assert not any(p.requires_grad for p in self.model.params.values())
        rng = np.random.default_rng(8)
        x = dc.Parameter(rng.normal(0, 1, (6, MEL)))
        loss = self.model.asr_loss(self.model.encode(x), self.labels, lam=0.5)
        loss.backward()
        assert np.any(x.grad != 0)
        opt = dc.Adam(self.model.params, lr=0.1)
        before = {n: p.data.copy() for n, p in self.model.params.items()}
        opt.step()
        for n, p in self.model.params.items():
            assert np.array_equal(p.data, before[n])


    def test_frozen_recognizer_gets_no_grads_and_input_grad_is_unchanged(self):
        """Stage two: SE output -> fixed bridge -> recognizer; freezing changes no SE grad."""
        se = SeModel(SeConfig(d_model=8, heads=2, conv_layers=1, attention_blocks=1), seed=2)
        rng = np.random.default_rng(9)
        noisy = dc.Tensor(rng.uniform(0, 2, (6, 257)))
        bridge = dc.Tensor(rng.normal(0, 0.1, (257, MEL)))
        se_grads = []
        for freeze in (False, True):
            if freeze:
                self.model.freeze()
            for p in [*se.params.values(), *self.model.params.values()]:
                p.grad = None
            hidden = self.model.encode(dc.matmul(se.forward(noisy), bridge))
            self.model.asr_loss(hidden, self.labels, lam=0.5).backward()
            se_grads.append({n: p.grad for n, p in se.params.items()})
        assert all(p.grad is None for p in self.model.params.values())
        for n, g in se_grads[0].items():
            assert np.array_equal(se_grads[1][n], g), n


def biased_products(root):
    """The ``add`` nodes reachable from ``root`` that add a Parameter to a ``matmul`` output."""
    found, seen, stack = [], {id(root)}, [root]
    while stack:
        node = stack.pop()
        parents = node._parents
        if node._op == "add" and any(p._op == "matmul" for p in parents) and any(
            isinstance(p, dc.Parameter) for p in parents
        ):
            found.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return found


class TestOneWayToAddABias:
    """Every bias is added by ``diffcore.linear``; no ``matmul(..) + b`` pair is left in either model."""

    def graphs(self):
        rng = np.random.default_rng(10)
        se = SeModel(SeConfig(d_model=8, heads=2, conv_layers=1, attention_blocks=2), seed=3)
        model = am.AsrModel(tiny_cfg(), seed=6)
        hidden = model.encode(dc.Parameter(rng.normal(0, 1, (6, MEL))))
        return {
            "se.forward": se.forward(dc.Tensor(rng.uniform(0, 2, (5, 257)))),
            "encode": hidden,
            "ctc_logits": model.ctc_logits(hidden),
            "attention_loss": model.attention_loss(hidden, [3, 4, 3]),
        }

    def test_no_add_joins_a_matmul_and_a_parameter(self):
        for name, root in self.graphs().items():
            assert root._parents, name
            assert biased_products(root) == [], name


class TestDeepFeatures:
    def test_identical_zero(self):
        x = dc.Tensor(np.ones((4, 6)))
        assert am.deep_feature_loss(x, dc.Tensor(np.ones((4, 6)))).item() == 0.0

    def test_constant_offset(self):
        a = dc.Tensor(np.zeros((3, 6)))
        b = dc.Tensor(np.full((3, 6), 2.0))
        assert abs(am.deep_feature_loss(a, b).item() - 2.0) < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (3, 4))
        total = sum(abs(a[i, j] - b[i, j]) for i in range(3) for j in range(4))
        got = am.deep_feature_loss(dc.Tensor(a), dc.Tensor(b)).item()
        assert abs(got - total / 12) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            am.deep_feature_loss(dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.zeros((3, 3))))


class TestUtilities:
    def test_levenshtein(self):
        assert am.levenshtein("abc", "abc") == 0
        assert am.levenshtein("abc", "axc") == 1
        assert am.levenshtein(["x"], []) == 1
        assert am.levenshtein([], ["y", "z"]) == 2
        assert am.levenshtein(["a", "b"], ["b", "a"]) == 2

    def test_label_error_rate(self):
        assert am.label_error_rate(["a", "b"], ["a"]) == 0.5
        assert am.label_error_rate([], ["a"]) == 1.0

    def test_vocab_roundtrip(self):
        model = am.AsrModel(tiny_cfg(), seed=0)
        assert model.labels_to_ids(["A", "C"]) == [3, 5]
        assert model.ids_to_labels([3, 5]) == ["A", "C"]
        with pytest.raises(ValueError, match="not in vocab"):
            model.labels_to_ids(["Z"])

    @pytest.mark.parametrize("special", am.SPECIALS)
    def test_special_label_is_not_a_transcript_label(self, special):
        model = am.AsrModel(tiny_cfg(), seed=0)
        with pytest.raises(ValueError, match=rf"label {re.escape(repr(special))} not in vocab as a transcript label"):
            model.labels_to_ids([special, "A"])

    def test_checkpoint_with_row_vector_lstm_bias_rejected(self, tmp_path):
        """Checkpoints once stored each LSTM bias as (1, 4H); the bias is (4H,) now, and such a file does not load."""
        model = am.AsrModel(tiny_cfg(), seed=0)
        arrays = dict(model.params)
        arrays["enc0.fwd.b"] = dc.Parameter(arrays["enc0.fwd.b"].data.reshape(1, -1))
        path = tmp_path / "old.ckpt"
        dc.save_checkpoint(path, arrays, {"kind": "asr", "config": dataclasses.asdict(model.cfg), "seed": 0})
        problem = r"old\.ckpt: checkpoint tensor 'enc0\.fwd\.b' has shape \(1, 16\), the model expects \(16,\)"
        with pytest.raises(ValueError, match=problem):
            am.AsrModel.load(path)

    def test_checkpoint_roundtrip(self, tmp_path):
        model = am.AsrModel(tiny_cfg(), seed=6)
        path = tmp_path / "asr.ckpt"
        model.save(path, seed=6)
        back = am.AsrModel.load(path)
        assert back.cfg == model.cfg
        for n, p in model.params.items():
            assert np.array_equal(back.params[n].data, p.data)

    def _tampered_checkpoint(self, tmp_path, edit):
        path = tmp_path / "asr.ckpt"
        am.AsrModel(tiny_cfg(), seed=6).save(path, seed=6)
        arrays, meta = dc.load_checkpoint(path)
        edit(arrays)
        dc.save_checkpoint(path, {n: dc.Parameter(a) for n, a in arrays.items()}, meta)
        return path

    def test_checkpoint_missing_tensor_rejected(self, tmp_path):
        path = self._tampered_checkpoint(tmp_path, lambda arrays: arrays.pop("dec.out.b"))
        with pytest.raises(ValueError, match=r"asr\.ckpt.*lacks tensor 'dec\.out\.b'"):
            am.AsrModel.load(path)

    def test_checkpoint_broadcastable_shape_rejected(self, tmp_path):
        path = self._tampered_checkpoint(tmp_path, lambda arrays: arrays.update({"ctc.b": np.ones(1)}))
        with pytest.raises(ValueError, match=r"asr\.ckpt.*'ctc\.b' has shape \(1,\)"):
            am.AsrModel.load(path)

    @pytest.mark.parametrize(
        "edit, problem",
        BAD_CONFIGS,
        ids=["missing", "list", "unknown_field", "removed_field", "repeated_label", "non_string_label", "zero_width"],
    )
    def test_checkpoint_bad_config_rejected(self, tmp_path, edit, problem):
        path = tmp_path / "asr.ckpt"
        am.AsrModel(tiny_cfg(), seed=6).save(path, seed=6)
        arrays, meta = dc.load_checkpoint(path)
        edit(meta)
        dc.save_checkpoint(path, {n: dc.Parameter(a) for n, a in arrays.items()}, meta)
        with pytest.raises(ValueError, match=rf"asr\.ckpt: checkpoint meta.*{problem}"):
            am.AsrModel.load(path)

    def test_decode_matches_graph_computation(self):
        model = am.AsrModel(tiny_cfg(), seed=7)
        rng = np.random.default_rng(11)
        feats = dc.Parameter(rng.normal(0, 2, (8, MEL)))
        hidden = model.encode(feats)
        ids = am.decode_greedy(model.ctc_logits(hidden).data)
        assert ids
        assert model.decode(hidden) == ids
