"""Minimal reverse-mode autodiff core, double precision throughout.

A :class:`Tensor` wraps a float64 numpy array plus an accumulated gradient.
Ops build a DAG; ``backward()`` walks it in reverse topological order. Every
op output is checked for NaN/Inf and trips a :class:`GraphError` immediately,
which keeps training failures local to the op that produced them.

Also here: a single LSTM step (:func:`lstm_cell`) built from the primitives;
a whole-sequence LSTM (:func:`lstm_sequence`) and the BLSTM layer on top of it,
each direction one graph node with a hand-written BPTT backward; the Adam
optimizer with frozen-parameter support; strict checkpoint serialization; and
the central finite-difference gradient checker the test suite leans on.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.special import expit

CKPT_MAGIC = "BPCSE-CKPT-1"


class GraphError(ValueError):
    pass


def _finite_or_raise(arr, op):
    # a single sum is much cheaper than isfinite().all(); NaN/Inf both poison it,
    # but large finite values can overflow it, so a non-finite sum is confirmed
    with np.errstate(over="ignore"):
        total = arr.sum()
    if not np.isfinite(total) and not np.isfinite(arr).all():
        raise GraphError(f"non-finite values produced by op {op!r}")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, _op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        _finite_or_raise(self.data, _op)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def backward(self, seed=None):
        if seed is None:
            if self.data.size != 1:
                raise GraphError(f"backward() needs a scalar output, got shape {self.shape}")
            seed = np.ones_like(self.data)
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
        self.grad = np.asarray(seed, dtype=np.float64)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    __slots__ = ("name", "frozen")

    def __init__(self, data, name, frozen=False):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.frozen = frozen


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
    needs = any(p.requires_grad for p in parents)
    out = Tensor(
        data,
        requires_grad=needs,
        _parents=tuple(parents) if needs else (),
        _backward=backward if needs else None,
        _op=op,
    )
    return out


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


def sub(a, b):
    a, b, data = _elementwise(a, b, np.subtract, "sub")

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _node(data, (a, b), backward, "sub")


def mul(a, b):
    a, b, data = _elementwise(a, b, np.multiply, "mul")

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), backward, "mul")


def div(a, b):
    a, b, data = _elementwise(a, b, np.divide, "div")

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(data, (a, b), backward, "div")


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _node(data, (a, b), backward, "matmul")


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


def exp(x):
    x = _lift(x)
    data = np.exp(x.data)

    def backward(g):
        _accum(x, g * data)

    return _node(data, (x,), backward, "exp")


def log(x):
    x = _lift(x)
    data = np.log(x.data)

    def backward(g):
        _accum(x, g / x.data)

    return _node(data, (x,), backward, "log")


def log1p(x):
    x = _lift(x)
    data = np.log1p(x.data)

    def backward(g):
        _accum(x, g / (1.0 + x.data))

    return _node(data, (x,), backward, "log1p")


def expm1(x):
    x = _lift(x)
    data = np.expm1(x.data)

    def backward(g):
        _accum(x, g * (data + 1.0))

    return _node(data, (x,), backward, "expm1")


def softmax(x, axis=-1):
    x = _lift(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accum(x, data * (g - dot))

    return _node(data, (x,), backward, "softmax")


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    n = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
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


def dropout(x, p, rng, train=True):
    """Inverted dropout; identity when not training or p == 0."""
    x = _lift(x)
    if not train or p == 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    data = x.data * mask

    def backward(g):
        _accum(x, g * mask)

    return _node(data, (x,), backward, "dropout")


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


def reshape(x, shape):
    x = _lift(x)
    data = x.data.reshape(shape)

    def backward(g):
        _accum(x, g.reshape(x.shape))

    return _node(data, (x,), backward, "reshape")


def transpose(x, axes=None):
    x = _lift(x)
    data = np.transpose(x.data, axes)
    inv = None if axes is None else np.argsort(axes)

    def backward(g):
        _accum(x, np.transpose(g, inv))

    return _node(data, (x,), backward, "transpose")


def mean(x, axis=None):
    x = _lift(x)
    data = x.data.mean(axis=axis)
    count = x.data.size if axis is None else x.shape[axis]

    def backward(g):
        if axis is None:
            _accum(x, np.full(x.shape, 1.0 / count) * g)
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.shape) / count)

    return _node(data, (x,), backward, "mean")


def tsum(x, axis=None):
    x = _lift(x)
    data = x.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            _accum(x, np.full(x.shape, g))
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return _node(data, (x,), backward, "sum")


def conv1d(x, w, b=None, pad=0):
    """1-D convolution along the first axis: x (T, Cin), w (Cout, Cin, K)."""
    x, w = _lift(x), _lift(w)
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
    parents = [x, w]
    if b is not None:
        b = _lift(b)
        data = data + b.data
        parents.append(b)

    def backward(g):
        _accum(w, np.tensordot(g, windows, axes=([0], [0])))
        gxp = np.zeros_like(xp)
        for kk in range(k):
            gxp[kk : kk + t_out] += g @ w.data[:, :, kk]
        _accum(x, gxp[pad : pad + t] if pad else gxp)
        if b is not None:
            _accum(b, g.sum(axis=0))

    return _node(data, parents, backward, "conv1d")


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
# recurrent cells


def init_lstm_params(rng, input_dim, hidden, prefix, frozen=False):
    s = np.sqrt(6.0 / (input_dim + 4 * hidden))
    u = np.sqrt(6.0 / (hidden + 4 * hidden))
    return {
        f"{prefix}.W": Parameter(rng.uniform(-s, s, (input_dim, 4 * hidden)), f"{prefix}.W", frozen),
        f"{prefix}.U": Parameter(rng.uniform(-u, u, (hidden, 4 * hidden)), f"{prefix}.U", frozen),
        f"{prefix}.b": Parameter(np.zeros((1, 4 * hidden)), f"{prefix}.b", frozen),
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
        _accum(xs, dpre @ W.data.T)
        _accum(W, xs.data.T @ dpre)
        _accum(U, h_prev.T @ dpre)
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


class Adam:
    """Standard Adam with bias correction; frozen parameters are never touched."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self._v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for n, p in self.params.items():
            if p.frozen or p.grad is None:
                continue
            m = self._m[n] = self.beta1 * self._m[n] + (1 - self.beta1) * p.grad
            v = self._v[n] = self.beta2 * self._v[n] + (1 - self.beta2) * p.grad**2
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

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


def load_checkpoint(path):
    """Returns (arrays: dict[str, ndarray], meta: dict)."""
    with open(path, "rb") as f:
        magic = f.readline().rstrip(b"\n").decode("utf-8", "replace")
        if magic != CKPT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}, expected {CKPT_MAGIC!r}")
        header = json.loads(f.readline().decode("utf-8"))
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
