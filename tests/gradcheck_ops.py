"""What only the tests need: graph primitives for the op-by-op oracles, the gradcheck reduction, a graph walk.

The oracles of the fused ops (``attention_sublayer``,
``feed_forward_sublayer``, ``lstm_sequence``, ``attention_decoder``) build
the graph each op replaces from these primitives, each one node with its own
backward rule; multi-head ``attention``, the one node the attention
sublayer's oracle attends with, is checked in turn against a per-head graph
of them. ``conv1d_by_windows`` is ``conv1d`` as one tensordot over a
sliding-window copy of the padded input, the oracle of its tap-by-tap
GEMMs. ``tsum`` is the sum the gradcheck tests reduce their outputs with.
"""

import numpy as np
from scipy.special import expit

import bpcse.diffcore as dc


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


def attention_sublayer_by_ops(h, params, prefix, heads):
    """Op-by-op oracle for ``attention_sublayer``: layer norm, three projections, ``attention``, projection, residual."""

    def p(name):
        return params[f"{prefix}.{name}"]

    x = dc.layer_norm(h, p("ln1.g"), p("ln1.b"))
    q, k, v = dc.linear(x, p("wq"), p("bq")), dc.matmul(x, p("wk")), dc.linear(x, p("wv"), p("bv"))
    return dc.add(h, dc.linear(attention(q, k, v, heads), p("wo"), p("bo")))


def feed_forward_sublayer_by_ops(h, params, prefix):
    """Op-by-op oracle for ``feed_forward_sublayer``: layer norm, linear, relu, linear, residual."""

    def p(name):
        return params[f"{prefix}.{name}"]

    x = dc.layer_norm(h, p("ln2.g"), p("ln2.b"))
    return dc.add(h, dc.linear(dc.relu(dc.linear(x, p("ff.w1"), p("ff.b1"))), p("ff.w2"), p("ff.b2")))


def attention_decoder_by_steps(hidden, embed, W, U, b, out_w, out_b, tokens, targets):
    """Op-by-op oracle for ``attention_decoder``: one ``lstm_cell``, attention and output row per label."""
    d = hidden.shape[1]
    h, c, ctx = (dc.Tensor(np.zeros((1, d))) for _ in range(3))
    rows = []
    for tok in tokens:
        step_in = dc.concat([take(embed, [tok]), ctx], axis=1)
        h, c = lstm_cell(step_in, h, c, W, U, b)
        weights = softmax(dc.matmul(h, transpose(hidden)))
        ctx = dc.matmul(weights, hidden)
        rows.append(dc.linear(dc.concat([h, ctx], axis=1), out_w, out_b))
    return cross_entropy(dc.concat(rows, axis=0), targets)


def conv1d_by_windows(x, w, b):
    """Oracle for ``conv1d``: one tensordot over a (T, Cin, K) sliding-window view of the zero-padded input."""
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
