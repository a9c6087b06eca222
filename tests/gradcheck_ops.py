"""What only the tests need: the gradient checker, graph primitives for the op-by-op oracles, a graph walk.

``gradcheck`` compares each op's hand-written backward with central
differences.

The oracles of the fused ops (``attention_sublayer``,
``feed_forward_sublayer``, ``blstm_layer``, ``attention_decoder``,
``conv1d_relu``) build the graph each op replaces from these primitives, each
one node with its own backward rule; ``concat`` joins their outputs along an
axis. Multi-head ``attention``, the one node the attention sublayer's oracle
attends with, is checked in turn against a per-head graph of them.
``conv1d_by_windows`` is the convolution as one tensordot over a
sliding-window copy of the padded input; under ``relu`` it is the oracle of
``conv1d_relu``'s tap-by-tap GEMMs. It and ``attention_decoder_by_steps``
take their weights as tensors, while the fused ops and the other oracles
read them from a ``params`` dict by prefix. The oracle of ``ctc_loss``, two
separate recursions, lives with its tests. ``tsum`` is the sum the gradcheck
tests reduce their outputs with. ``ReadRecorder`` wraps a model's ``params``
to record which weights a forward pass reads, ``weights_digest`` pins a
model's initial weights, and ``init_params_by_weights`` is the oracle of
``init_params``: each weight an array of its own, drawn by ``rng.uniform``.
"""

import hashlib
import math

import numpy as np
from scipy.special import expit

import bpcse.diffcore as dc

GRADCHECK_EPS = 1e-5  # central-difference step
GRADCHECK_ATOL = 5e-6  # absolute differences below this are finite-difference noise


def gradcheck(f, tensors, max_coords=None):
    """Worst relative error between analytic and central-difference gradients.

    ``f()`` must rebuild the graph from the current ``.data`` of ``tensors``
    and return a scalar Tensor. When ``max_coords`` is set, that many
    coordinates per tensor are sampled (from one ``default_rng(0)`` stream
    across the tensors) instead of sweeping all of them. Differences below
    ``GRADCHECK_ATOL`` are ignored as FD noise.
    """
    out = f()
    for t in tensors:
        t.grad = None
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    worst = 0.0
    rng = np.random.default_rng(0)
    for t, an in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + GRADCHECK_EPS
            hi = float(f().data)
            flat[idx] = orig - GRADCHECK_EPS
            lo = float(f().data)
            flat[idx] = orig
            fd = (hi - lo) / (2 * GRADCHECK_EPS)
            a = an.reshape(-1)[idx]
            diff = abs(a - fd)
            if diff > GRADCHECK_ATOL:
                worst = max(worst, diff / max(abs(a), abs(fd)))
    return worst


def tsum(x, axis=None):
    """Sum over ``axis`` or all elements, as one ``sum`` node with its backward."""
    x = dc._lift(x)
    data = x.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            dc._accum(x, np.full(x.shape, g))
        else:
            dc._accum(x, np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return dc._node(data, (x,), backward, "sum")


def graph_nodes(root):
    """Every node reachable from ``root`` through ``_parents``, ``root`` first."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def relu(x):
    x = dc._lift(x)
    data = np.maximum(x.data, 0.0)

    def backward(g):
        dc._accum(x, g * (x.data > 0))

    return dc._node(data, (x,), backward, "relu")


def sigmoid(x):
    x = dc._lift(x)
    data = expit(x.data)

    def backward(g):
        dc._accum(x, g * data * (1.0 - data))

    return dc._node(data, (x,), backward, "sigmoid")


def tanh(x):
    x = dc._lift(x)
    data = np.tanh(x.data)

    def backward(g):
        dc._accum(x, g * (1.0 - data * data))

    return dc._node(data, (x,), backward, "tanh")


def softmax(x):
    """Softmax over the last axis."""
    x = dc._lift(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        dc._accum(x, data * (g - dot))

    return dc._node(data, (x,), backward, "softmax")


def take(x, key):
    """Basic or integer-array indexing ``x[key]``; the slice primitive."""
    x = dc._lift(x)
    data = np.array(x.data[key])

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, key, g)
        dc._accum(x, gx)

    return dc._node(data, (x,), backward, "slice")


def transpose(x):
    x = dc._lift(x)

    def backward(g):
        dc._accum(x, g.T)

    return dc._node(x.data.T, (x,), backward, "transpose")


def cross_entropy(logits, targets):
    """Mean negative log-likelihood of integer targets under row softmax."""
    logits = dc._lift(logits)
    targets = np.asarray(targets, dtype=np.int64)
    n, v = logits.shape
    if targets.shape != (n,):
        raise ValueError(f"cross_entropy targets shape {targets.shape} does not match logits {logits.shape}")
    if np.any(targets < 0) or np.any(targets >= v):
        raise ValueError("cross_entropy target index out of range")
    m = logits.data.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits.data - m).sum(axis=1))
    data = np.mean(lse - logits.data[np.arange(n), targets])

    def backward(g):
        p = np.exp(logits.data - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        dc._accum(logits, g * p / n)

    return dc._node(data, (logits,), backward, "cross_entropy")


def concat(tensors, axis=0):
    tensors = [dc._lift(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            dc._accum(t, g[tuple(idx)])

    return dc._node(data, tensors, backward, "concat")


def lstm_cell(x, h, c, W, U, b):
    """One LSTM step from the primitives; x (1, Din), h and c (1, H). Gate order i, f, g, o."""
    hidden = h.shape[1]
    pre = dc.add(dc.add(dc.matmul(x, W), dc.matmul(h, U)), b)
    i = sigmoid(take(pre, np.s_[:, :hidden]))
    f = sigmoid(take(pre, np.s_[:, hidden : 2 * hidden]))
    g = tanh(take(pre, np.s_[:, 2 * hidden : 3 * hidden]))
    o = sigmoid(take(pre, np.s_[:, 3 * hidden :]))
    c_new = dc.add(dc.mul(f, c), dc.mul(i, g))
    h_new = dc.mul(o, tanh(c_new))
    return h_new, c_new


def lstm_by_cells(xs, W, U, b, reverse=False):
    """One direction of ``blstm_layer`` op by op: one ``lstm_cell`` per frame from zero states, rows concatenated."""
    t_len, _ = xs.shape
    hidden = U.shape[0]
    h = dc.Tensor(np.zeros((1, hidden)))
    c = dc.Tensor(np.zeros((1, hidden)))
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    outs = [None] * t_len
    for i in order:
        h, c = lstm_cell(take(xs, np.s_[i : i + 1]), h, c, W, U, b)
        outs[i] = h
    return concat(outs, axis=0)


def blstm_layer_by_cells(xs, params, prefix):
    """Op-by-op oracle for ``blstm_layer``: ``lstm_by_cells`` forward and reversed, joined frame by frame."""
    fwd, bwd = ([params[f"{prefix}.{d}.{n}"] for n in "WUb"] for d in ("fwd", "bwd"))
    return concat([lstm_by_cells(xs, *fwd), lstm_by_cells(xs, *bwd, reverse=True)], axis=1)


def attention(q, k, v, heads):
    """Multi-head scaled dot-product self-attention over q, k, v (T, d) -> (T, d), as one node.

    Head ``h`` attends with columns ``h*dh : (h+1)*dh`` of q, k and v, where
    ``dh = d // heads``: ``softmax(q_h @ k_h.T / sqrt(dh)) @ v_h``, and the head
    outputs are concatenated in head order. All heads are computed at once in
    a ``(heads, T, dh)`` layout, the full (heads, T, T) weights included; the
    backward pass is hand-written and keeps only the attention weights.
    """
    q, k, v = dc._lift(q), dc._lift(k), dc._lift(v)
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ValueError(f"attention needs q, k and v of one (T, d) shape, got {q.shape}, {k.shape}, {v.shape}")
    t, d = q.shape
    if heads < 1 or d % heads:
        raise ValueError(f"attention width {d} is not divisible into {heads} heads")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def split(x):  # (T, d) -> (heads, T, dh)
        return x.reshape(t, heads, dh).transpose(1, 0, 2)

    def merge(x):  # (heads, T, dh) -> (T, d)
        return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(t, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    weights = qh @ kh.transpose(0, 2, 1)
    weights *= scale
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    data = merge(weights @ vh)

    def backward(g):
        gh = split(g)
        if v.requires_grad:
            dc._accum(v, merge(weights.transpose(0, 2, 1) @ gh))
        if not (q.requires_grad or k.requires_grad):
            return
        dweights = gh @ vh.transpose(0, 2, 1)
        dscores = (weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))) * scale
        if q.requires_grad:
            dc._accum(q, merge(dscores @ kh))
        if k.requires_grad:
            dc._accum(k, merge((qh.transpose(0, 2, 1) @ dscores).transpose(0, 2, 1)))

    return dc._node(data, (q, k, v), backward, "attention")


def affine(x, w, b):
    """``x @ w + b`` as a ``matmul`` and an ``add`` node, for weights not named ``.w`` and ``.b`` as ``linear`` reads."""
    return dc.add(dc.matmul(x, w), b)


def attention_sublayer_by_ops(h, params, prefix, heads):
    """Op-by-op oracle for ``attention_sublayer``: layer norm, three projections, ``attention``, projection, residual."""

    def p(name):
        return params[f"{prefix}.{name}"]

    x = dc.layer_norm(h, params, f"{prefix}.ln1")
    q, k, v = affine(x, p("wq"), p("bq")), dc.matmul(x, p("wk")), affine(x, p("wv"), p("bv"))
    return dc.add(h, affine(attention(q, k, v, heads), p("wo"), p("bo")))


def feed_forward_sublayer_by_ops(h, params, prefix):
    """Op-by-op oracle for ``feed_forward_sublayer``: layer norm, linear, relu, linear, residual."""

    def p(name):
        return params[f"{prefix}.{name}"]

    x = dc.layer_norm(h, params, f"{prefix}.ln2")
    return dc.add(h, affine(relu(affine(x, p("ff.w1"), p("ff.b1"))), p("ff.w2"), p("ff.b2")))


def attention_decoder_by_steps(hidden, embed, W, U, b, out_w, out_b, tokens, targets):
    """Op-by-op oracle for ``attention_decoder``: one ``lstm_cell``, attention and output row per label.

    It takes the decoder's weights as tensors, in ``diffcore.decoder_layout`` order.
    """
    d = hidden.shape[1]
    h, c, ctx = (dc.Tensor(np.zeros((1, d))) for _ in range(3))
    rows = []
    for tok in tokens:
        step_in = concat([take(embed, [tok]), ctx], axis=1)
        h, c = lstm_cell(step_in, h, c, W, U, b)
        weights = softmax(dc.matmul(h, transpose(hidden)))
        ctx = dc.matmul(weights, hidden)
        rows.append(affine(concat([h, ctx], axis=1), out_w, out_b))
    return cross_entropy(concat(rows, axis=0), targets)


def weights_digest(params):
    """sha256 over the sorted names and the raw float64 bytes of a model's weights; shapes are left out."""
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(params[name].data.tobytes())
    return digest.hexdigest()


def init_params_by_weights(rng, layouts):
    """Oracle of ``dc.init_params``: ``{prefix}.<name>`` arrays, each weight drawn alone in table order.

    A weight of rank 2 or more is ``rng.uniform(-s, s, shape)`` with the
    Glorot bound s, a layer-norm gain ``g`` ones, and every other vector zeros.
    """
    params = {}
    for prefix, layout in layouts.items():
        for name, shape in layout.items():
            if len(shape) >= 2:
                s = np.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
                params[f"{prefix}.{name}"] = rng.uniform(-s, s, shape)
            else:
                params[f"{prefix}.{name}"] = np.ones(shape) if name.rsplit(".", 1)[-1] == "g" else np.zeros(shape)
    return params


class ReadRecorder(dict):
    """A model's ``params`` that records in ``read`` the key of every item read by subscript."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def conv1d_by_windows(x, w, b):
    """The convolution of ``conv1d_relu`` before its ReLU: one tensordot over a (T, Cin, K) sliding-window view
    of the zero-padded input."""
    x, w, b = dc._lift(x), dc._lift(w), dc._lift(b)
    t, k = x.shape[0], w.shape[2]
    pad = k // 2
    xp = np.pad(x.data, ((pad, pad), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)  # (t, cin, k)
    data = np.tensordot(windows, w.data, axes=([1, 2], [1, 2]))  # (t, cout)
    data += b.data

    def backward(g):
        if w.requires_grad:
            dc._accum(w, np.tensordot(g, windows, axes=([0], [0])))
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for kk in range(k):
                gxp[kk : kk + t] += g @ w.data[:, :, kk]
            dc._accum(x, gxp[pad : pad + t])
        if b.requires_grad:
            dc._accum(b, g.sum(axis=0))

    return dc._node(data, (x, w, b), backward, "conv1d")
