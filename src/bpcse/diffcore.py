"""Minimal reverse-mode autodiff core, double precision throughout.

A :class:`Tensor` wraps a float64 numpy array plus an accumulated gradient.
Ops build a DAG; ``backward()`` walks it in reverse topological order. Every
op output is checked for NaN/Inf and trips a :class:`GraphError` immediately,
which keeps training failures local to the op that produced them.

Inside a :func:`no_grad` block ops record no parents and no backward closure,
so inference keeps no graph and frees each activation once it is used; the
NaN/Inf check still runs on every output. A :class:`Parameter` whose
``requires_grad`` is off is frozen: it passes gradient on to its inputs but
gets none itself, and ``matmul``, ``linear``, ``attention`` and
``lstm_sequence`` skip computing it.

The ops are the ones the models and the stage-two feature bridge run:
``add`` and ``mul`` (also ``+`` and ``*``), ``matmul``, ``linear``
(``x @ W + b`` as one node that adds the bias in place, the only way the
models add a bias to a product), ``relu``, ``sigmoid``, ``tanh``,
``softplus``, ``log``, ``expm1``, ``softmax`` and ``layer_norm`` over the
last axis, ``concat``, ``take`` (indexing, also ``x[key]``), the 2-D
``transpose``, ``conv1d``, ``l1_loss`` and ``cross_entropy``. Two fused ops
have a hand-written backward: multi-head scaled dot-product self-attention
(``attention``) over a ``(heads, T, d_head)`` layout, and a whole-sequence
LSTM (``lstm_sequence``, BPTT) under the BLSTM layer ``blstm_layer``;
``lstm_cell`` is one LSTM step built from the primitives. ``tsum`` is the
tests' gradcheck reduction; no model uses it.

Also here: the Adam optimizer, which updates each parameter in place in
cache-sized chunks with no full-size temporaries; strict checkpoint
serialization; and the central finite-difference gradient checker the test
suite leans on.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
from pathlib import Path

import numpy as np
from scipy.special import expit

CKPT_MAGIC = "BPCSE-CKPT-1"
LAYER_NORM_EPS = 1e-5


class GraphError(ValueError):
    pass


_grad_enabled = contextvars.ContextVar("diffcore_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: op outputs get no parents, no backward and ``requires_grad=False``.

    The previous mode is restored on exit, also when the block raises, so
    blocks nest. The mode is per thread (a context variable).
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _finite_or_raise(arr, op):
    # a single sum is much cheaper than isfinite().all(); NaN/Inf both poison it,
    # but large finite values can overflow it, so a non-finite sum is confirmed
    with np.errstate(over="ignore"):
        total = arr.sum()
    if not np.isfinite(total) and not np.isfinite(arr).all():
        raise GraphError(f"non-finite values produced by op {op!r}")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, _op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        _finite_or_raise(self.data, _op)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def backward(self):
        if self.data.size != 1:
            raise GraphError(f"backward() needs a scalar output, got shape {self.shape}")
        # iterative topological sort, so graph depth is not bounded by the recursion limit.
        # Interior grads are reset so that a repeated backward() accumulates into leaves only.
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node._backward is not None:
                node.grad = None
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __getitem__(self, key):
        return take(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named model weight; a frozen one has ``requires_grad`` off."""

    __slots__ = ("name",)

    def __init__(self, data, name):
        # C-contiguous, so that Adam can update it in place through flat chunks
        super().__init__(np.ascontiguousarray(data, dtype=np.float64), requires_grad=True)
        self.name = name


def _lift(v):
    return v if isinstance(v, Tensor) else Tensor(v)


def _accum(t, g):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _node(data, parents, backward, op):
    needs = _grad_enabled.get() and any(p.requires_grad for p in parents)
    return Tensor(
        data,
        requires_grad=needs,
        _parents=tuple(parents) if needs else (),
        _backward=backward if needs else None,
        _op=op,
    )


def _elementwise(a, b, fn, op):
    a, b = _lift(a), _lift(b)
    try:
        data = fn(a.data, b.data)
    except ValueError:
        raise ValueError(f"{op} shape mismatch: {a.shape} vs {b.shape}") from None
    return a, b, data


def add(a, b):
    a, b, data = _elementwise(a, b, np.add, "add")

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _node(data, (a, b), backward, "add")


def mul(a, b):
    a, b, data = _elementwise(a, b, np.multiply, "mul")

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), backward, "mul")


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _node(data, (a, b), backward, "matmul")


def linear(x, W, b):
    """``x @ W + b`` for x (T, n), W (n, m) and b (m,), as one node; the bias is added in place."""
    x, W, b = _lift(x), _lift(W), _lift(b)
    if x.data.ndim != 2 or W.data.ndim != 2 or x.shape[1] != W.shape[0] or b.shape != (W.shape[1],):
        raise ValueError(f"linear shape mismatch: x {x.shape}, W {W.shape}, b {b.shape}")
    data = x.data @ W.data
    data += b.data

    def backward(g):
        if x.requires_grad:
            _accum(x, g @ W.data.T)
        if W.requires_grad:
            _accum(W, x.data.T @ g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0))

    return _node(data, (x, W, b), backward, "linear")


def relu(x):
    x = _lift(x)
    data = np.maximum(x.data, 0.0)

    def backward(g):
        _accum(x, g * (x.data > 0))

    return _node(data, (x,), backward, "relu")


def sigmoid(x):
    x = _lift(x)
    data = expit(x.data)

    def backward(g):
        _accum(x, g * data * (1.0 - data))

    return _node(data, (x,), backward, "sigmoid")


def tanh(x):
    x = _lift(x)
    data = np.tanh(x.data)

    def backward(g):
        _accum(x, g * (1.0 - data * data))

    return _node(data, (x,), backward, "tanh")


def softplus(x):
    x = _lift(x)
    data = np.logaddexp(0.0, x.data)

    def backward(g):
        _accum(x, g * expit(x.data))

    return _node(data, (x,), backward, "softplus")


def log(x):
    x = _lift(x)
    data = np.log(x.data)

    def backward(g):
        _accum(x, g / x.data)

    return _node(data, (x,), backward, "log")


def expm1(x):
    x = _lift(x)
    data = np.expm1(x.data)

    def backward(g):
        _accum(x, g * (data + 1.0))

    return _node(data, (x,), backward, "expm1")


def softmax(x):
    """Softmax over the last axis."""
    x = _lift(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        _accum(x, data * (g - dot))

    return _node(data, (x,), backward, "softmax")


def layer_norm(x, gain, bias):
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    n = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gain, _unbroadcast((g * xhat).sum(axis=lead), gain.shape))
        _accum(bias, _unbroadcast(g.sum(axis=lead), bias.shape))
        dxhat = g * gain.data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        _accum(x, dx)

    return _node(data, (x, gain, bias), backward, "layer_norm")


def concat(tensors, axis=0):
    tensors = [_lift(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _node(data, tensors, backward, "concat")


def take(x, key):
    """Basic or integer-array indexing; the slice primitive."""
    x = _lift(x)
    data = np.array(x.data[key])

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, key, g)
        _accum(x, gx)

    return _node(data, (x,), backward, "slice")


def transpose(x):
    x = _lift(x)

    def backward(g):
        _accum(x, g.T)

    return _node(x.data.T, (x,), backward, "transpose")


def tsum(x, axis=None):
    """Sum over ``axis`` or all elements; no model uses it, the tests reduce with it."""
    x = _lift(x)
    data = x.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            _accum(x, np.full(x.shape, g))
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return _node(data, (x,), backward, "sum")


def conv1d(x, w, b, pad=0):
    """1-D convolution along the first axis plus a bias: x (T, Cin), w (Cout, Cin, K), b (Cout,)."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    t, cin = x.shape
    cout, cin_w, k = w.shape
    if cin != cin_w:
        raise ValueError(f"conv1d channel mismatch: input {x.shape} vs weight {w.shape}")
    xp = np.pad(x.data, ((pad, pad), (0, 0)))
    t_out = t + 2 * pad - k + 1
    if t_out < 1:
        raise ValueError(f"conv1d input too short: {t} samples for kernel {k} with pad {pad}")
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)  # (t_out, cin, k)
    data = np.tensordot(windows, w.data, axes=([1, 2], [1, 2]))  # (t_out, cout)
    data += b.data

    def backward(g):
        _accum(w, np.tensordot(g, windows, axes=([0], [0])))
        gxp = np.zeros_like(xp)
        for kk in range(k):
            gxp[kk : kk + t_out] += g @ w.data[:, :, kk]
        _accum(x, gxp[pad : pad + t] if pad else gxp)
        _accum(b, g.sum(axis=0))

    return _node(data, (x, w, b), backward, "conv1d")


def l1_loss(a, b):
    """Mean absolute difference; shapes must match exactly."""
    a, b = _lift(a), _lift(b)
    if a.shape != b.shape:
        raise ValueError(f"l1_loss shape mismatch: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    data = np.abs(diff).mean()
    sign = np.sign(diff) / diff.size

    def backward(g):
        _accum(a, g * sign)
        _accum(b, -g * sign)

    return _node(data, (a, b), backward, "l1_loss")


def cross_entropy(logits, targets):
    """Mean negative log-likelihood of integer targets under row softmax."""
    logits = _lift(logits)
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
        _accum(logits, g * p / n)

    return _node(data, (logits,), backward, "cross_entropy")


# ---------------------------------------------------------------------------
# attention


def attention(q, k, v, heads):
    """Multi-head scaled dot-product self-attention over q, k, v (T, d) -> (T, d), as one node.

    Head ``h`` attends with columns ``h*dh : (h+1)*dh`` of q, k and v, where
    ``dh = d // heads``: ``softmax(q_h @ k_h.T / sqrt(dh)) @ v_h``, and the head
    outputs are concatenated in head order. All heads are computed at once in
    a ``(heads, T, dh)`` layout; the backward pass is hand-written and keeps
    only the attention weights.
    """
    q, k, v = _lift(q), _lift(k), _lift(v)
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ValueError(f"attention needs q, k and v of one (T, d) shape, got {q.shape}, {k.shape}, {v.shape}")
    t, d = q.shape
    if heads < 1 or d % heads:
        raise ValueError(f"attention width {d} is not divisible into {heads} heads")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def split(x):  # (T, d) -> (heads, T, dh)
        return x.reshape(t, heads, dh).transpose(1, 0, 2)

    def merge(x):  # (heads, T, dh) -> (T, d), C-ordered so that later reductions sum in row order
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
            _accum(v, merge(weights.transpose(0, 2, 1) @ gh))
        if not (q.requires_grad or k.requires_grad):
            return
        dweights = gh @ vh.transpose(0, 2, 1)
        dscores = (weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))) * scale
        if q.requires_grad:
            _accum(q, merge(dscores @ kh))
        if k.requires_grad:
            _accum(k, merge((qh.transpose(0, 2, 1) @ dscores).transpose(0, 2, 1)))

    return _node(data, (q, k, v), backward, "attention")


# ---------------------------------------------------------------------------
# recurrent cells


def init_lstm_params(rng, input_dim, hidden, prefix):
    s = np.sqrt(6.0 / (input_dim + 4 * hidden))
    u = np.sqrt(6.0 / (hidden + 4 * hidden))
    return {
        f"{prefix}.W": Parameter(rng.uniform(-s, s, (input_dim, 4 * hidden)), f"{prefix}.W"),
        f"{prefix}.U": Parameter(rng.uniform(-u, u, (hidden, 4 * hidden)), f"{prefix}.U"),
        f"{prefix}.b": Parameter(np.zeros((1, 4 * hidden)), f"{prefix}.b"),
    }


def lstm_cell(x, h, c, W, U, b):
    """One LSTM step; x (1, Din), h and c (1, H). Gate order i, f, g, o."""
    hidden = h.shape[1]
    pre = add(add(matmul(x, W), matmul(h, U)), b)
    i = sigmoid(pre[:, :hidden])
    f = sigmoid(pre[:, hidden : 2 * hidden])
    g = tanh(pre[:, 2 * hidden : 3 * hidden])
    o = sigmoid(pre[:, 3 * hidden :])
    c_new = add(mul(f, c), mul(i, g))
    h_new = mul(o, tanh(c_new))
    return h_new, c_new


def lstm_sequence(xs, W, U, b, reverse=False):
    """LSTM over a whole sequence xs (T, Din) -> (T, H) from a zero state, as one node.

    The arithmetic of each step is that of :func:`lstm_cell`: pre-activation
    ``(x@W + h@U) + b``, gate order i, f, g, o. Row ``t`` of the output is the
    hidden state after frame ``t``; with ``reverse`` the frames are consumed
    last to first. The backward pass is hand-written BPTT over the stored
    gates and cell states.
    """
    xs, W, U, b = _lift(xs), _lift(W), _lift(U), _lift(b)
    t, din = xs.shape
    hidden = U.shape[0]
    if t < 1:
        raise ValueError("lstm_sequence needs at least one frame")
    if W.shape != (din, 4 * hidden) or U.shape != (hidden, 4 * hidden) or b.data.size != 4 * hidden:
        raise ValueError(f"lstm_sequence shape mismatch: xs {xs.shape}, W {W.shape}, U {U.shape}, b {b.shape}")
    gate_g = slice(2 * hidden, 3 * hidden)
    order = range(t - 1, -1, -1) if reverse else range(t)
    xw = xs.data @ W.data
    Ud, bd = U.data, b.data.reshape(-1)
    gates = np.empty((t, 4 * hidden))  # activated i, f, g, o
    cs, tanh_c, hs = np.empty((3, t, hidden))
    h = c = np.zeros(hidden)
    for i in order:
        pre = (xw[i] + h @ Ud) + bd
        act = expit(pre, out=gates[i])
        act[gate_g] = np.tanh(pre[gate_g])
        c = np.multiply(act[hidden : 2 * hidden], c, out=cs[i])
        c += act[:hidden] * act[gate_g]
        h = np.multiply(act[3 * hidden :], np.tanh(c, out=tanh_c[i]), out=hs[i])

    def backward(g):
        # state entering each frame: the previous frame's in processing order, zero for the first
        h_prev, c_prev = np.zeros_like(hs), np.zeros_like(cs)
        if reverse:
            h_prev[:-1], c_prev[:-1] = hs[1:], cs[1:]
        else:
            h_prev[1:], c_prev[1:] = hs[:-1], cs[:-1]
        gi, gf, gg, go = (gates[:, k * hidden : (k + 1) * hidden] for k in range(4))
        # d(gate)/d(pre-activation): sigmoid' for i, f, o and tanh' for g
        dgate = gates * (1.0 - gates)
        dgate[:, gate_g] = 1.0 - gg * gg
        dc_from_h = go * (1.0 - tanh_c * tanh_c)
        dpre = np.empty_like(gates)
        dh_next = dc_next = np.zeros(hidden)
        for i in reversed(order):
            dh = g[i] + dh_next
            dc = dh * dc_from_h[i] + dc_next
            row = dpre[i]
            row[:hidden] = dc * gg[i]
            row[hidden : 2 * hidden] = dc * c_prev[i]
            row[gate_g] = dc * gi[i]
            row[3 * hidden :] = dh * tanh_c[i]
            row *= dgate[i]
            dc_next = dc * gf[i]
            dh_next = row @ Ud.T
        if xs.requires_grad:
            _accum(xs, dpre @ W.data.T)
        if W.requires_grad:
            _accum(W, xs.data.T @ dpre)
        if U.requires_grad:
            _accum(U, h_prev.T @ dpre)
        if b.requires_grad:
            _accum(b, dpre.sum(axis=0).reshape(b.shape))

    return _node(hs, (xs, W, U, b), backward, "lstm_sequence")


def blstm_layer(xs, params, prefix):
    """Bidirectional LSTM over xs (T, Din) -> (T, 2H); per-frame concat."""
    fwd = lstm_sequence(xs, params[f"{prefix}.fwd.W"], params[f"{prefix}.fwd.U"], params[f"{prefix}.fwd.b"])
    bwd = lstm_sequence(
        xs, params[f"{prefix}.bwd.W"], params[f"{prefix}.bwd.U"], params[f"{prefix}.bwd.b"], reverse=True
    )
    return concat([fwd, bwd], axis=1)


# ---------------------------------------------------------------------------
# optimization


# Elements per in-place Adam update: the six 256 KiB slices one chunk touches
# (parameter, grad, m, v and two scratch buffers) stay in a core's L2 cache.
ADAM_CHUNK = 1 << 15


class Adam:
    """Standard Adam with bias correction; frozen parameters are never touched.

    ``step`` updates every parameter, and its moments ``m`` and ``v``, in place
    in chunks of ``ADAM_CHUNK`` elements through two preallocated scratch
    buffers, so no full-size temporary is made (a :class:`Parameter` is always
    C-contiguous, so its flat view is its data). The arithmetic of
    each element is ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``p -= lr*(m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)``, in that order.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {n: np.zeros(p.shape) for n, p in self.params.items()}
        self._v = {n: np.zeros(p.shape) for n, p in self.params.items()}
        self._scratch = np.empty((2, ADAM_CHUNK))

    def step(self):
        live = {n: p for n, p in self.params.items() if p.requires_grad and p.grad is not None}
        for n, p in live.items():
            if p.grad.shape != p.shape:
                raise ValueError(f"Adam: grad of parameter {n!r} has shape {p.grad.shape}, its data {p.shape}")
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for n, p in live.items():
            data, grad = p.data.reshape(-1), p.grad.reshape(-1)
            m, v = self._m[n].reshape(-1), self._v[n].reshape(-1)
            for lo in range(0, data.size, ADAM_CHUNK):
                hi = min(lo + ADAM_CHUNK, data.size)
                self._update(data[lo:hi], grad[lo:hi], m[lo:hi], v[lo:hi], *self._scratch[:, : hi - lo], b1c, b2c)

    def _update(self, p, g, m, v, s, r, b1c, b2c):
        """One Adam update of ``p``, ``m`` and ``v`` in place; ``s`` and ``r`` are scratch of the same shape."""
        m *= self.beta1
        np.multiply(g, 1 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(g, g, out=s)
        s *= 1 - self.beta2
        v += s
        np.divide(m, b1c, out=s)
        s *= self.lr
        np.divide(v, b2c, out=r)
        np.sqrt(r, out=r)
        r += self.eps
        s /= r
        p -= s

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params, meta):
    """Write `MAGIC\\n<json header>\\n<float64 LE payload>` to ``path``."""
    arrays = {n: (p.data if isinstance(p, Tensor) else np.asarray(p, np.float64)) for n, p in params.items()}
    header = {
        "meta": meta,
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC.encode() + b"\n")
        f.write(json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8") + b"\n")
        for a in arrays.values():
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _checked_header(path, line):
    """The checkpoint header parsed from ``line``, its fields, tensor names and shapes validated."""
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as e:
        raise ValueError(f"{path}: checkpoint header is not UTF-8 JSON: {e}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    for field, kind in (("tensors", list), ("meta", dict)):
        if field not in header:
            raise ValueError(f"{path}: checkpoint header lacks the {field!r} field")
        if not isinstance(header[field], kind):
            raise ValueError(f"{path}: checkpoint header field {field!r} is not a JSON {kind.__name__}")
    seen = set()
    for entry in header["tensors"]:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise ValueError(f"{path}: checkpoint tensor entry {entry!r} has no string 'name'")
        if name in seen:
            raise ValueError(f"{path}: checkpoint tensor {name!r} appears twice in the header field 'tensors'")
        seen.add(name)
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(
                f"{path}: field 'shape' of tensor {name!r} is {shape!r}; it must list non-negative integers"
            )
    return header


def load_checkpoint(path):
    """Returns (arrays: dict[str, ndarray], meta: dict)."""
    with open(path, "rb") as f:
        magic = f.readline().rstrip(b"\n").decode("utf-8", "replace")
        if magic != CKPT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}, expected {CKPT_MAGIC!r}")
        header = _checked_header(path, f.readline())
        arrays = {}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = f.read(8 * count)
            if len(buf) != 8 * count:
                raise ValueError(f"{path}: truncated payload for tensor {entry['name']!r}")
            arrays[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the last tensor's payload")
    return arrays, header["meta"]


def restore_params(path, params, arrays):
    """Copy checkpoint ``arrays`` (read from ``path``) into the model's ``params``.

    Names and shapes must match exactly; nothing is copied unless all do.
    """
    for name in params:
        if name not in arrays:
            raise ValueError(f"{path}: checkpoint lacks tensor {name!r}")
    for name, arr in arrays.items():
        if name not in params:
            raise ValueError(f"{path}: checkpoint tensor {name!r} is not a parameter of the model")
        if arr.shape != params[name].shape:
            raise ValueError(
                f"{path}: checkpoint tensor {name!r} has shape {arr.shape}, the model expects {params[name].shape}"
            )
    for name, arr in arrays.items():
        params[name].data[...] = arr


def load_model(path, kind, model_cls, config_cls):
    """The ``model_cls`` checkpointed at ``path``, built from the ``config_cls`` in its meta, parameters restored.

    The meta's ``kind`` must be ``kind``, and its ``config`` an object that
    ``config_cls`` accepts as keyword arguments; otherwise a ``ValueError``
    names the path and the field.
    """
    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != kind:
        raise ValueError(f"{path}: not an {kind.upper()} checkpoint (kind={meta.get('kind')!r})")
    if "config" not in meta:
        raise ValueError(f"{path}: checkpoint meta lacks the 'config' field")
    config = meta["config"]
    if not isinstance(config, dict):
        raise ValueError(f"{path}: checkpoint meta field 'config' is {config!r}; it must be a JSON object")
    try:
        cfg = config_cls(**config)
    except (TypeError, ValueError) as e:  # the message names the unknown, missing or rejected field
        raise ValueError(f"{path}: checkpoint meta field 'config' is invalid: {e}") from None
    model = model_cls(cfg)
    restore_params(path, model.params, arrays)
    return model


# ---------------------------------------------------------------------------
# gradient checking


def gradcheck(f, tensors, eps=1e-5, atol=5e-6, max_coords=None, rng=None):
    """Worst relative error between analytic and central-difference gradients.

    ``f()`` must rebuild the graph from the current ``.data`` of ``tensors``
    and return a scalar Tensor. When ``max_coords`` is set, that many
    coordinates per tensor are sampled (seeded by ``rng``) instead of sweeping
    all of them. Differences below ``atol`` are ignored as FD noise.
    """
    out = f()
    for t in tensors:
        t.grad = None
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    worst = 0.0
    for t, an in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            rng = rng or np.random.default_rng(0)
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = float(f().data)
            flat[idx] = orig - eps
            lo = float(f().data)
            flat[idx] = orig
            fd = (hi - lo) / (2 * eps)
            a = an.reshape(-1)[idx]
            diff = abs(a - fd)
            if diff > atol:
                worst = max(worst, diff / max(abs(a), abs(fd)))
    return worst
