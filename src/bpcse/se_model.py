"""Transformer-encoder enhancement network: noisy log1p spectra in, enhanced out.

Four 1-D convolutions embed the 257-bin spectrum into d_model channels,
sinusoidal positions are added, then eight pre-norm attention blocks
(multi-head self-attention plus a two-layer feed-forward, each with a
residual connection and layer norm) refine the sequence. A final linear
projection with softplus keeps outputs non-negative, as log1p features
must be. Every affine projection is one ``diffcore.linear`` node, which
adds its bias in place. Inputs longer than ``MAX_FRAMES`` are rejected,
because the T x T attention weights would otherwise grow without bound.

The attention of each block, all heads together, is one
``diffcore.attention`` graph node. ``enhance`` runs the forward pass under
``diffcore.no_grad()``, so inference builds no graph and each activation,
the T x T attention weights included, is freed as soon as the next layer
has used it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import diffcore as dc
from . import dsp

# Longest input, in STFT frames (about 33 s at the 16 ms hop). Attention is
# quadratic in T: one block's weights take heads * T^2 * 8 bytes, 134 MB at
# T = 2048 and the paper's 4 heads, and a training step keeps them for all
# 8 blocks, about 1.1 GB.
MAX_FRAMES = 2048


@dataclass
class SeConfig:
    n_bins: int = dsp.N_BINS
    conv_layers: int = 4
    attention_blocks: int = 8
    d_model: int = 256
    heads: int = 4
    ff_dim: int = 0  # 0 means 4 * d_model
    conv_kernel: int = 3

    def __post_init__(self):
        if self.ff_dim == 0:
            self.ff_dim = 4 * self.d_model
        if self.d_model % self.heads:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.conv_kernel % 2 == 0:
            raise ValueError("conv_kernel must be odd to preserve length")


def sinusoidal_positions(t: int, d: int) -> np.ndarray:
    pos = np.arange(t)[:, None]
    i = np.arange(d)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / d)
    pe = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
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

        d, k = cfg.d_model, cfg.conv_kernel
        for i in range(cfg.conv_layers):
            glorot(f"conv{i}.w", d, cfg.n_bins if i == 0 else d, k)
            zeros(f"conv{i}.b", d)
        for i in range(cfg.attention_blocks):
            p = f"block{i}"
            for m in ("wq", "wk", "wv", "wo"):
                glorot(f"{p}.{m}", d, d)
            for m in ("bq", "bk", "bv", "bo"):
                zeros(f"{p}.{m}", d)
            ones(f"{p}.ln1.g", d)
            zeros(f"{p}.ln1.b", d)
            glorot(f"{p}.ff.w1", d, cfg.ff_dim)
            zeros(f"{p}.ff.b1", cfg.ff_dim)
            glorot(f"{p}.ff.w2", cfg.ff_dim, d)
            zeros(f"{p}.ff.b2", d)
            ones(f"{p}.ln2.g", d)
            zeros(f"{p}.ln2.b", d)
        ones("final_ln.g", d)
        zeros("final_ln.b", d)
        glorot("out.w", d, cfg.n_bins)
        zeros("out.b", cfg.n_bins)

    def _attend(self, x, block):
        p = self.params
        q = dc.linear(x, p[f"{block}.wq"], p[f"{block}.bq"])
        k = dc.linear(x, p[f"{block}.wk"], p[f"{block}.bk"])
        v = dc.linear(x, p[f"{block}.wv"], p[f"{block}.bv"])
        return dc.linear(dc.attention(q, k, v, self.cfg.heads), p[f"{block}.wo"], p[f"{block}.bo"])

    def forward(self, x: dc.Tensor) -> dc.Tensor:
        """Enhanced log1p spectrum, same (T, 257) shape as the input; T is at most ``MAX_FRAMES``."""
        p = self.params
        cfg = self.cfg
        if x.shape[1] != cfg.n_bins:
            raise ValueError(f"expected {cfg.n_bins} bins, got input shape {x.shape}")
        if x.shape[0] > MAX_FRAMES:
            raise ValueError(f"input has {x.shape[0]} frames; SE accepts at most MAX_FRAMES = {MAX_FRAMES}")
        h = x
        for i in range(cfg.conv_layers):
            h = dc.relu(dc.conv1d(h, p[f"conv{i}.w"], p[f"conv{i}.b"], pad=cfg.conv_kernel // 2))
        h = h + dc.Tensor(sinusoidal_positions(h.shape[0], cfg.d_model))
        for i in range(cfg.attention_blocks):
            b = f"block{i}"
            h = h + self._attend(dc.layer_norm(h, p[f"{b}.ln1.g"], p[f"{b}.ln1.b"]), b)
            ff_in = dc.layer_norm(h, p[f"{b}.ln2.g"], p[f"{b}.ln2.b"])
            ff = dc.linear(dc.relu(dc.linear(ff_in, p[f"{b}.ff.w1"], p[f"{b}.ff.b1"])), p[f"{b}.ff.w2"], p[f"{b}.ff.b2"])
            h = h + ff
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
