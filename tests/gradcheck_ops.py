"""What only the tests need: graph primitives for the op-by-op oracles, the gradcheck reduction, a graph walk.

The oracles of the fused ops (``attention``, ``lstm_sequence``,
``attention_decoder``) build the graph each op replaces from these
primitives, each one node with its own backward rule. ``tsum`` is the sum the
gradcheck tests reduce their outputs with.
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
