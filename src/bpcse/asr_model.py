"""Broad-class recognizer: BLSTM encoder, CTC head, attention decoder.

The encoder is ``ENCODER_LAYERS`` (2) BLSTM layers over the
``dsp.N_MEL_FILTERS``-dim log-mel fbank. Each layer is a single
``diffcore.blstm_layer`` graph node with a hand-written BPTT backward, the
CTC loss is one ``diffcore.ctc_loss`` node (alpha-beta occupancies for its
gradient), and the whole teacher-forced attention decoder, its
cross-entropy included, is one ``diffcore.attention_decoder`` node, so the
recognizer adds the same handful of nodes to the graph whatever the
utterance length and label count. The projection and the CTC head are each
one ``diffcore.linear`` node, which adds the bias in place. The model makes
its weights from the op tables ``AsrModel.layouts`` gathers, in one
``diffcore.init_params`` call or ``load``, as views of one buffer; the CTC
blank id is ``diffcore.BLANK``.

The encoder output (projected to ``proj_dim``, 320 in the paper-faithful
setting) doubles as the "deep features" used by the deep-feature training
mode. ``asr_loss`` mixes the two heads as
``lam * CTC + (1 - lam) * attention``; every caller passes ``lam``. Decoding is greedy CTC (per-frame
argmax, collapse repeats, drop blanks), run under ``diffcore.no_grad()``.
``freeze()`` turns ``requires_grad`` off on every parameter, so a frozen
recognizer computes no weight grads but still passes gradient on to input
features that require one (in stage two, the SE network's output).
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import diffcore as dc
from . import dsp
from .diffcore import BLANK

ENCODER_LAYERS = 2
SOS = 1
EOS = 2
SPECIALS = ("<blank>", "<sos>", "<eos>")


def make_vocab(labels) -> tuple:
    return (*SPECIALS, *labels)


@dataclass
class AsrConfig:
    vocab: tuple
    encoder_hidden: int = 96  # per direction
    proj_dim: int = 320  # deep-feature width
    embed_dim: int = 32

    def __post_init__(self):
        dc.check_sizes(self, ("encoder_hidden", "proj_dim", "embed_dim"))
        self.vocab = tuple(self.vocab)
        if self.vocab[:3] != SPECIALS:
            raise ValueError(f"vocab must start with {SPECIALS}, got {self.vocab[:3]}")
        for i, label in enumerate(self.vocab):
            if not isinstance(label, str):
                raise ValueError(f"vocab label {label!r} at position {i} is not a string")
            if self.vocab.index(label) != i:
                raise ValueError(f"vocab label {label!r} at position {i} repeats position {self.vocab.index(label)}")


class AsrModel:
    def __init__(self, cfg: AsrConfig, seed: int = 0):
        self.cfg = cfg
        self.params: dict[str, dc.Parameter] = dc.init_params(np.random.default_rng(seed), self.layouts(cfg))

    @staticmethod
    def layouts(cfg: AsrConfig) -> dict:
        """``{prefix: layout}`` of every op's weights, in the order they lie in the buffer and in a checkpoint."""
        h, d, v = cfg.encoder_hidden, cfg.proj_dim, len(cfg.vocab)
        dins = [dsp.N_MEL_FILTERS] + [2 * h] * (ENCODER_LAYERS - 1)
        layouts = {f"enc{layer}": dc.blstm_layout(din, h) for layer, din in enumerate(dins)}
        layouts["proj"] = dc.linear_layout(2 * h, d)
        layouts["ctc"] = dc.linear_layout(d, v)
        layouts["dec"] = dc.decoder_layout(v, cfg.embed_dim, d)
        return layouts

    def freeze(self):
        """Stop gradient at every parameter; an input that requires a grad still gets it."""
        for p in self.params.values():
            p.requires_grad = False

    def encode(self, feats: dc.Tensor) -> dc.Tensor:
        """BLSTM stack then linear projection: (T, N_MEL_FILTERS) -> (T, proj_dim)."""
        if len(feats.shape) != 2 or feats.shape[1] != dsp.N_MEL_FILTERS:
            n = dsp.N_MEL_FILTERS
            raise ValueError(f"expected {n}-dim features of shape (T, {n}), got shape {feats.shape}")
        h = feats
        for layer in range(ENCODER_LAYERS):
            h = dc.blstm_layer(h, self.params, f"enc{layer}")
        return dc.linear(h, self.params, "proj")

    def ctc_logits(self, hidden: dc.Tensor) -> dc.Tensor:
        return dc.linear(hidden, self.params, "ctc")

    def attention_loss(self, hidden: dc.Tensor, labels):
        """Teacher-forced decoder cross-entropy, averaged over steps: one ``diffcore.attention_decoder`` node."""
        if len(labels) == 0:
            raise ValueError("attention decoder needs a nonempty label sequence")
        for label in labels:
            if isinstance(label, numbers.Integral) and 0 <= label < len(SPECIALS):
                raise ValueError(f"label id {label!r} is {SPECIALS[label]!r}, not a transcript label")
        return dc.attention_decoder(hidden, self.params, "dec", [SOS, *labels], [*labels, EOS])

    def asr_loss(self, hidden: dc.Tensor, labels, lam) -> dc.Tensor:
        """lam * CTC + (1 - lam) * attention loss; the attention loss, made first, checks the labels."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
        attention = self.attention_loss(hidden, labels)
        return lam * dc.ctc_loss(self.ctc_logits(hidden), labels) + (1.0 - lam) * attention

    def decode(self, hidden: dc.Tensor):
        """Greedy CTC label ids; builds no graph."""
        with dc.no_grad():
            return decode_greedy(self.ctc_logits(hidden).data)

    def ids_to_labels(self, ids):
        return [self.cfg.vocab[i] for i in ids]

    def labels_to_ids(self, labels):
        index = {s: i for i, s in enumerate(self.cfg.vocab) if i >= len(SPECIALS)}
        try:
            return [index[l] for l in labels]
        except KeyError as e:
            raise ValueError(f"label {e.args[0]!r} not in vocab as a transcript label") from None

    def save(self, path, seed=None):
        dc.save_checkpoint(path, self.params, {"kind": "asr", "config": asdict(self.cfg), "seed": seed})

    @classmethod
    def load(cls, path) -> "AsrModel":
        return dc.load_model(path, "asr", cls, AsrConfig)


def decode_greedy(logits: np.ndarray):
    """Per-frame argmax, collapse repeats, remove blanks.

    Labels that CTC would keep separate across a blank (a, blank, a) are
    merged too: references here are duplicate-merged BPC transcripts, so
    hypotheses live in the same normalized space.
    """
    best = np.argmax(logits, axis=1)
    out = []
    for b in best:
        if b != BLANK and (not out or out[-1] != b):
            out.append(int(b))
    return out


def deep_feature_loss(df_clean: dc.Tensor, df_enhanced: dc.Tensor) -> dc.Tensor:
    """Mean absolute distance between encoder deep features."""
    return dc.l1_loss(df_enhanced, df_clean)


def levenshtein(ref, hyp) -> int:
    m, n = len(ref), len(hyp)
    dist = np.arange(n + 1)
    for i in range(1, m + 1):
        prev_diag = dist[0]
        dist[0] = i
        for j in range(1, n + 1):
            cur = dist[j]
            cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            dist[j] = min(dist[j] + 1, dist[j - 1] + 1, prev_diag + cost)
            prev_diag = cur
    return int(dist[n])


def label_error_rate(ref, hyp) -> float:
    return levenshtein(ref, hyp) / max(1, len(ref))
