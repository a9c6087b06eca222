"""Broad-class recognizer: BLSTM encoder, CTC head, attention decoder.

Each direction of each encoder layer is a single ``diffcore.lstm_sequence``
graph node with a hand-written BPTT backward, so the encoder adds a handful
of nodes per layer to the graph whatever the utterance length; the attention
decoder still steps ``diffcore.lstm_cell`` once per output label.

The encoder output (projected to ``proj_dim``, 320 in the paper-faithful
setting) doubles as the "deep features" used by the deep-feature training
mode. The CTC loss is a custom graph op: forward alpha recursion in log
space for the value, alpha-beta occupancies for the analytic gradient.
Decoding is greedy CTC (per-frame argmax, collapse repeats, drop blanks)
with optional attention rescoring of the hypothesis.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import diffcore as dc

BLANK = 0
SOS = 1
EOS = 2
SPECIALS = ("<blank>", "<sos>", "<eos>")


def make_vocab(labels) -> tuple:
    return (*SPECIALS, *labels)


@dataclass
class AsrConfig:
    vocab: tuple
    n_mels: int = 26
    encoder_layers: int = 2
    encoder_hidden: int = 96  # per direction
    proj_dim: int = 320  # deep-feature width
    ctc_weight: float = 0.5
    embed_dim: int = 32
    scheme_name: str = ""

    def __post_init__(self):
        self.vocab = tuple(self.vocab)
        if self.vocab[:3] != SPECIALS:
            raise ValueError(f"vocab must start with {SPECIALS}, got {self.vocab[:3]}")
        if not 0.0 <= self.ctc_weight <= 1.0:
            raise ValueError(f"ctc_weight must be in [0, 1], got {self.ctc_weight}")


class AsrModel:
    def __init__(self, cfg: AsrConfig, seed: int = 0):
        self.cfg = cfg
        self.params: dict[str, dc.Parameter] = {}
        rng = np.random.default_rng(seed)
        h = cfg.encoder_hidden
        for layer in range(cfg.encoder_layers):
            din = cfg.n_mels if layer == 0 else 2 * h
            self.params.update(dc.init_lstm_params(rng, din, h, f"enc{layer}.fwd"))
            self.params.update(dc.init_lstm_params(rng, din, h, f"enc{layer}.bwd"))

        def glorot(name, rows, cols):
            s = np.sqrt(6.0 / (rows + cols))
            self.params[name] = dc.Parameter(rng.uniform(-s, s, (rows, cols)), name)

        def zeros(name, *shape):
            self.params[name] = dc.Parameter(np.zeros(shape), name)

        v = len(cfg.vocab)
        glorot("proj.w", 2 * h, cfg.proj_dim)
        zeros("proj.b", cfg.proj_dim)
        glorot("ctc.w", cfg.proj_dim, v)
        zeros("ctc.b", v)
        glorot("dec.embed", v, cfg.embed_dim)
        self.params.update(
            dc.init_lstm_params(rng, cfg.embed_dim + cfg.proj_dim, cfg.proj_dim, "dec.lstm")
        )
        glorot("dec.out.w", 2 * cfg.proj_dim, v)
        zeros("dec.out.b", v)

    def freeze(self):
        for p in self.params.values():
            p.frozen = True

    @property
    def frozen(self):
        return all(p.frozen for p in self.params.values())

    def encode(self, feats: dc.Tensor) -> dc.Tensor:
        """BLSTM stack then linear projection: (T, n_mels) -> (T, proj_dim)."""
        if feats.shape[1] != self.cfg.n_mels:
            raise ValueError(f"expected {self.cfg.n_mels}-dim features, got shape {feats.shape}")
        h = feats
        for layer in range(self.cfg.encoder_layers):
            h = dc.blstm_layer(h, self.params, f"enc{layer}")
        return dc.matmul(h, self.params["proj.w"]) + self.params["proj.b"]

    def ctc_logits(self, hidden: dc.Tensor) -> dc.Tensor:
        return dc.matmul(hidden, self.params["ctc.w"]) + self.params["ctc.b"]

    def attention_loss(self, hidden: dc.Tensor, labels, return_attention=False):
        """Teacher-forced decoder cross-entropy, averaged over steps.

        A single-layer LSTM consumes the previous label embedding plus the
        previous attention context; dot-product attention over the encoder
        frames produces the next context; both feed the output layer.
        """
        if len(labels) == 0:
            raise ValueError("attention decoder needs a nonempty label sequence")
        p = self.params
        cfg = self.cfg
        tokens_in = [SOS, *labels]
        targets = [*labels, EOS]
        d = cfg.proj_dim
        h_dec = dc.Tensor(np.zeros((1, d)))
        c_dec = dc.Tensor(np.zeros((1, d)))
        ctx = dc.Tensor(np.zeros((1, d)))
        rows = []
        attention = []
        for tok in tokens_in:
            emb = p["dec.embed"][[tok]]
            step_in = dc.concat([emb, ctx], axis=1)
            h_dec, c_dec = dc.lstm_cell(
                step_in, h_dec, c_dec, p["dec.lstm.W"], p["dec.lstm.U"], p["dec.lstm.b"]
            )
            weights = dc.softmax(dc.matmul(h_dec, dc.transpose(hidden)))
            ctx = dc.matmul(weights, hidden)
            rows.append(dc.matmul(dc.concat([h_dec, ctx], axis=1), p["dec.out.w"]) + p["dec.out.b"])
            attention.append(weights.data[0])
        loss = dc.cross_entropy(dc.concat(rows, axis=0), targets)
        if return_attention:
            return loss, np.array(attention)
        return loss

    def asr_loss(self, hidden: dc.Tensor, labels, lam=None) -> dc.Tensor:
        """lam * CTC + (1 - lam) * attention loss."""
        lam = self.cfg.ctc_weight if lam is None else lam
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
        if lam == 1.0:
            return ctc_loss(self.ctc_logits(hidden), labels)
        if lam == 0.0:
            return self.attention_loss(hidden, labels)
        return lam * ctc_loss(self.ctc_logits(hidden), labels) + (1.0 - lam) * self.attention_loss(
            hidden, labels
        )

    def decode(self, hidden: dc.Tensor, rescore=False):
        """Greedy CTC labels, optionally with CTC/attention hypothesis scores."""
        logits = self.ctc_logits(hidden)
        ids = decode_greedy(logits.data)
        if not rescore:
            return ids
        scores = {"ctc_logprob": -float(ctc_loss(logits, ids).data) if ids else 0.0}
        if ids:
            att = self.attention_loss(hidden, ids)
            scores["attention_logprob"] = -float(att.data) * (len(ids) + 1)
        return ids, scores

    def ids_to_labels(self, ids):
        return [self.cfg.vocab[i] for i in ids]

    def labels_to_ids(self, labels):
        index = {s: i for i, s in enumerate(self.cfg.vocab)}
        try:
            return [index[l] for l in labels]
        except KeyError as e:
            raise ValueError(f"label {e.args[0]!r} not in vocab") from None

    def save(self, path, seed=None):
        meta = {"kind": "asr", "config": {**asdict(self.cfg), "vocab": list(self.cfg.vocab)}, "seed": seed}
        dc.save_checkpoint(path, self.params, meta)

    @classmethod
    def load(cls, path) -> "AsrModel":
        arrays, meta = dc.load_checkpoint(path)
        if meta.get("kind") != "asr":
            raise ValueError(f"{path}: not an ASR checkpoint (kind={meta.get('kind')!r})")
        model = cls(AsrConfig(**meta["config"]))
        dc.restore_params(path, model.params, arrays)
        return model


# ---------------------------------------------------------------------------
# CTC


def _extend_with_blanks(labels, blank):
    ext = [blank]
    for l in labels:
        ext.extend([l, blank])
    return ext


def min_frames_for(labels) -> int:
    """Shortest input that still admits a CTC alignment."""
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def ctc_loss(logits: dc.Tensor, labels, blank: int = BLANK) -> dc.Tensor:
    """Negative log total alignment probability (log-space forward algorithm).

    Differentiable: the backward rule uses alpha-beta state occupancies,
    giving the classic softmax-minus-occupancy gradient on the logits.
    """
    t_len, v = logits.shape
    labels = [int(l) for l in labels]
    for l in labels:
        if not 0 <= l < v:
            raise ValueError(f"label id {l} outside vocab of size {v}")
        if l == blank:
            raise ValueError("labels must not contain the blank id")
    if t_len < min_frames_for(labels):
        raise ValueError(
            f"no valid alignment: {t_len} frames cannot carry {len(labels)} labels "
            f"(need at least {min_frames_for(labels)})"
        )

    ext = np.array(_extend_with_blanks(labels, blank))
    s_len = len(ext)
    logp = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))

    neg = -np.inf
    # transition s-2 -> s allowed when ext[s] is a label differing from ext[s-2]
    skip_ok = np.zeros(s_len, dtype=bool)
    skip_ok[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])

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
    if not np.isfinite(log_z):
        raise ValueError("no valid alignment has nonzero probability")

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
        grad = np.exp(logp) - gamma
        if logits.requires_grad:
            logits.grad = g * grad if logits.grad is None else logits.grad + g * grad

    out = dc.Tensor(
        -log_z,
        requires_grad=logits.requires_grad,
        _parents=(logits,) if logits.requires_grad else (),
        _backward=backward if logits.requires_grad else None,
        _op="ctc_loss",
    )
    return out


def decode_greedy(logits: np.ndarray, blank: int = BLANK):
    """Per-frame argmax, collapse repeats, remove blanks.

    Labels that CTC would keep separate across a blank (a, blank, a) are
    merged too: references here are duplicate-merged BPC transcripts, so
    hypotheses live in the same normalized space.
    """
    best = np.argmax(logits, axis=1)
    out = []
    for b in best:
        if b != blank and (not out or out[-1] != b):
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
