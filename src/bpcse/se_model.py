"""Transformer-encoder enhancement network: noisy log1p spectra in, enhanced out.

Four rectified 1-D "same" convolutions of width ``CONV_KERNEL`` (3) embed
the ``dsp.N_BINS``-bin spectrum into d_model channels, sinusoidal positions
are added, then eight pre-norm attention blocks (multi-head self-attention plus
a feed-forward of width ``4 * d_model``, each with a residual connection
and layer norm) refine the sequence. Keys have no bias: softmax over keys
is shift-invariant, so one would do nothing. A final linear projection with
softplus keeps outputs non-negative, as log1p features must be. Every
affine projection outside the blocks is one ``diffcore.linear`` node, which
adds its bias in place. Each op reads its weights from ``params`` by prefix.
The model makes all its weights in one ``diffcore.init_params`` call, from
each op's own layout table, as views of one buffer.
Inputs longer than ``MAX_FRAMES`` are rejected, because the T x T attention
weights a training step keeps would otherwise grow without bound.

Each stem layer is one graph node, ``diffcore.conv1d_relu``, which applies
its ReLU in place. Each block is two: ``diffcore.attention_sublayer`` (layer
norm, projections, all heads' attention, output projection and residual)
and ``diffcore.feed_forward_sublayer`` (layer norm, both feed-forward
layers and residual), each with a hand-written backward. ``enhance`` runs
the forward pass under ``diffcore.no_grad()``, so inference builds no graph,
frees each activation as soon as the next layer has used it (a block's
input before its feed-forward half runs), makes the attention scores
``diffcore.ATTENTION_ROWS`` query rows at a time and runs the feed-forward
layers ``diffcore.FEED_FORWARD_ROWS`` rows at a time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import diffcore as dc
from . import dsp

# Longest input, in STFT frames (about 33 s at the 16 ms hop). Training is
# quadratic in T: one block's attention weights take heads * T^2 * 8 bytes,
# 134 MB at T = 2048 and the paper's 4 heads, and a training step keeps them
# for all 8 blocks, about 1.1 GB, until backward() frees each block's as it
# passes it. Inference is linear in T: it holds heads * ATTENTION_ROWS * T
# scores at a time, 4.2 MB at T = 2048, and one FEED_FORWARD_ROWS-row block
# of the 4 * d_model-wide hidden layer, 2.1 MB. Enhance at T = 2048 has at
# most 21.2 MB allocated at once (tracemalloc, paper config), nearly all of
# it five (T, d_model) arrays of 4.2 MB in an attention sublayer: its input,
# q, k, v and LN1's output or one block of scores.
MAX_FRAMES = 2048
CONV_KERNEL = 3


@dataclass
class SeConfig:
    conv_layers: int = 4
    attention_blocks: int = 8
    d_model: int = 256
    heads: int = 4

    def __post_init__(self):
        dc.check_sizes(self, ("conv_layers", "attention_blocks", "d_model", "heads"))
        if self.d_model % self.heads:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")


def sinusoidal_positions(t: int, d: int) -> np.ndarray:
    """(t, d) positions: column 2i is sin(pos / 10000^(2i/d)), column 2i + 1 its cos."""
    angles = np.arange(t)[:, None] / np.power(10000.0, np.arange(0, d, 2) / d)
    pe = np.empty((t, d))
    np.sin(angles, out=pe[:, 0::2])
    np.cos(angles[:, : d // 2], out=pe[:, 1::2])
    return pe


class SeModel:
    def __init__(self, cfg: SeConfig, seed: int = 0):
        self.cfg = cfg
        d = cfg.d_model
        cins = [dsp.N_BINS] + [d] * (cfg.conv_layers - 1)
        layouts = {f"conv{i}": dc.conv1d_layout(cin, d, CONV_KERNEL) for i, cin in enumerate(cins)}
        for i in range(cfg.attention_blocks):
            layouts[f"block{i}"] = dc.attention_layout(d) | dc.feed_forward_layout(d, 4 * d)
        layouts["final_ln"] = dc.layer_norm_layout(d)
        layouts["out"] = dc.linear_layout(d, dsp.N_BINS)
        self.params: dict[str, dc.Parameter] = dc.init_params(np.random.default_rng(seed), layouts)

    def forward(self, x: dc.Tensor) -> dc.Tensor:
        """Enhanced log1p spectrum, same (T, 257) shape as the input; T is at most ``MAX_FRAMES``."""
        p = self.params
        cfg = self.cfg
        if len(x.shape) != 2 or x.shape[1] != dsp.N_BINS:
            raise ValueError(f"expected {dsp.N_BINS} bins, an input of shape (T, {dsp.N_BINS}), got shape {x.shape}")
        if x.shape[0] > MAX_FRAMES:
            raise ValueError(f"input has {x.shape[0]} frames; SE accepts at most MAX_FRAMES = {MAX_FRAMES}")
        h = x
        for i in range(cfg.conv_layers):
            h = dc.conv1d_relu(h, p, f"conv{i}")
        h = h + dc.Tensor(sinusoidal_positions(h.shape[0], cfg.d_model))
        for i in range(cfg.attention_blocks):
            b = f"block{i}"
            h = dc.attention_sublayer(h, p, b, cfg.heads)
            h = dc.feed_forward_sublayer(h, p, b)  # without a graph, the block's input is freed by now
        h = dc.layer_norm(h, p, "final_ln")
        return dc.softplus(dc.linear(h, p, "out"))

    def enhance(self, spec: dsp.Spectrogram) -> dsp.Spectrogram:
        """Inference on a log1p spectrogram under ``diffcore.no_grad()``: no graph is kept."""
        if spec.kind != "log1p":
            raise ValueError(f"enhance expects a log1p spectrogram, got {spec.kind!r}")
        with dc.no_grad():
            out = self.forward(dc.Tensor(spec.frames))
        return dsp.Spectrogram(out.data, kind="log1p")

    def save(self, path, seed=None):
        dc.save_checkpoint(path, self.params, {"kind": "se", "config": asdict(self.cfg), "seed": seed})

    @classmethod
    def load(cls, path) -> "SeModel":
        return dc.load_model(path, "se", cls, SeConfig)


def se_loss(enhanced: dc.Tensor, clean) -> dc.Tensor:
    """Mean absolute spectral difference."""
    return dc.l1_loss(enhanced, clean)
