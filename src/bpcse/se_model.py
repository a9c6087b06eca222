"""Transformer-encoder enhancement network: noisy log1p spectra in, enhanced out.

Four 1-D "same" convolutions of width ``CONV_KERNEL`` (3) embed the
``dsp.N_BINS``-bin spectrum into d_model channels, sinusoidal positions are
added, then eight pre-norm attention blocks (multi-head self-attention plus
a feed-forward of width ``4 * d_model``, each with a residual connection
and layer norm) refine the sequence. Keys have no bias: softmax over keys
is shift-invariant, so one would do nothing. A final linear projection with
softplus keeps outputs non-negative, as log1p features must be. Every
affine projection outside the blocks is one ``diffcore.linear`` node, which
adds its bias in place. Inputs longer than ``MAX_FRAMES`` are rejected,
because the T x T attention weights a training step keeps would otherwise
grow without bound.

Each block is two graph nodes: ``diffcore.attention_sublayer`` (layer
norm, projections, all heads' attention, output projection and residual)
and ``diffcore.feed_forward_sublayer`` (layer norm, both feed-forward
layers and residual), each with a hand-written backward. ``enhance`` runs
the forward pass under ``diffcore.no_grad()``, so inference builds no graph,
frees each activation as soon as the next layer has used it (a block's
input before its feed-forward half runs), and makes the attention scores
``diffcore.ATTENTION_ROWS`` query rows at a time.
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
# scores at a time, 4.2 MB at T = 2048, and enhance at T = 2048 has at most
# 25.3 MB allocated at once (tracemalloc, paper config), nearly all of it the
# feed-forward's input, its layer-norm output and its 4 * d_model-wide hidden
# layer.
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
    pos = np.arange(t)[:, None]
    rates = np.power(10000.0, np.arange(0, d, 2) / d)
    pe = np.empty((t, d))
    pe[:, 0::2] = np.sin(pos / rates)
    pe[:, 1::2] = np.cos(pos / rates[: d // 2])
    return pe


class SeModel:
    def __init__(self, cfg: SeConfig, seed: int = 0):
        self.cfg = cfg
        self.params: dict[str, dc.Parameter] = {}
        rng = np.random.default_rng(seed)

        def glorot(name, *shape):
            fan_in, fan_out = shape[-1], shape[0] if len(shape) > 1 else shape[-1]
            if len(shape) == 3:  # conv weight (out, in, k)
                fan_in, fan_out = shape[1] * shape[2], shape[0] * shape[2]
            elif len(shape) == 2:
                fan_in, fan_out = shape[0], shape[1]
            s = np.sqrt(6.0 / (fan_in + fan_out))
            self.params[name] = dc.Parameter(rng.uniform(-s, s, shape), name)

        def zeros(name, *shape):
            self.params[name] = dc.Parameter(np.zeros(shape), name)

        def ones(name, *shape):
            self.params[name] = dc.Parameter(np.ones(shape), name)

        d, ff = cfg.d_model, 4 * cfg.d_model
        for i in range(cfg.conv_layers):
            glorot(f"conv{i}.w", d, dsp.N_BINS if i == 0 else d, CONV_KERNEL)
            zeros(f"conv{i}.b", d)
        for i in range(cfg.attention_blocks):
            p = f"block{i}"
            for m in ("wq", "wk", "wv", "wo"):
                glorot(f"{p}.{m}", d, d)
            for m in ("bq", "bv", "bo"):
                zeros(f"{p}.{m}", d)
            ones(f"{p}.ln1.g", d)
            zeros(f"{p}.ln1.b", d)
            glorot(f"{p}.ff.w1", d, ff)
            zeros(f"{p}.ff.b1", ff)
            glorot(f"{p}.ff.w2", ff, d)
            zeros(f"{p}.ff.b2", d)
            ones(f"{p}.ln2.g", d)
            zeros(f"{p}.ln2.b", d)
        ones("final_ln.g", d)
        zeros("final_ln.b", d)
        glorot("out.w", d, dsp.N_BINS)
        zeros("out.b", dsp.N_BINS)

    def forward(self, x: dc.Tensor) -> dc.Tensor:
        """Enhanced log1p spectrum, same (T, 257) shape as the input; T is at most ``MAX_FRAMES``."""
        p = self.params
        cfg = self.cfg
        if x.shape[1] != dsp.N_BINS:
            raise ValueError(f"expected {dsp.N_BINS} bins, got input shape {x.shape}")
        if x.shape[0] > MAX_FRAMES:
            raise ValueError(f"input has {x.shape[0]} frames; SE accepts at most MAX_FRAMES = {MAX_FRAMES}")
        h = x
        for i in range(cfg.conv_layers):
            h = dc.relu(dc.conv1d(h, p[f"conv{i}.w"], p[f"conv{i}.b"]))
        h = h + dc.Tensor(sinusoidal_positions(h.shape[0], cfg.d_model))
        for i in range(cfg.attention_blocks):
            b = f"block{i}"
            h = dc.attention_sublayer(h, p, b, cfg.heads)
            h = dc.feed_forward_sublayer(h, p, b)  # without a graph, the block's input is freed by now
        h = dc.layer_norm(h, p["final_ln.g"], p["final_ln.b"])
        return dc.softplus(dc.linear(h, p["out.w"], p["out.b"]))

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
    return dc.l1_loss(enhanced, clean if isinstance(clean, dc.Tensor) else dc.Tensor(clean))
