"""Minimal reverse-mode autodiff core, double precision throughout.

A :class:`Tensor` wraps a float64 numpy array plus an accumulated gradient.
Ops build a DAG; ``backward()`` walks it in reverse topological order. Every
op output is checked for NaN/Inf and trips a :class:`GraphError` immediately,
which keeps training failures local to the op that produced them.

Inside a :func:`no_grad` block ops record no parents and no backward closure,
so inference keeps no graph and frees each activation once it is used; the
NaN/Inf check still runs on every output. A :class:`Parameter` whose
``requires_grad`` is off is frozen: it passes gradient on to its inputs but
gets none itself, and ``matmul``, ``linear``, ``conv1d`` and the fused ops
skip computing it.

``backward()`` consumes its graph, as PyTorch's does by default: once an
interior node has passed its grad on, the node drops its grad, its backward
closure and its parents, so every activation the caller does not hold is
freed during the pass, and afterwards only leaves hold a grad. A second
``backward()`` through a consumed node, or a new op on one, raises a
:class:`GraphError` that names the node's op; callers sum their losses and
call ``backward()`` once. A node's ``.data`` is kept (``loss.item()`` still
works), and leaves and tensors made under ``no_grad`` are not touched.

The ops are the ones the models and the stage-two feature bridge run:
``add`` and ``mul`` (also ``+`` and ``*``), ``matmul``, ``linear``
(``x @ W + b`` as one node that adds the bias in place, the only way the
models add a bias to a product), ``relu``, ``softplus``, ``log``,
``expm1``, ``layer_norm`` over the last axis, ``concat``, ``conv1d``
("same" padding, odd kernel; one GEMM per kernel tap over shifted rows of
the input, so the forward pass copies no windows of it) and ``l1_loss``.
Four fused ops have a hand-written backward: the two halves of a pre-norm
transformer block, ``attention_sublayer`` (``h + wo·attn(qkv(LN1(h)))``,
multi-head self-attention) and ``feed_forward_sublayer``
(``h + w2·relu(w1·LN2(h))``); a whole-sequence LSTM (``lstm_sequence``,
BPTT) under the BLSTM layer ``blstm_layer``; and the recognizer's
teacher-forced attention decoder with its cross-entropy
(``attention_decoder``, BPTT), whose LSTM steps share
``lstm_sequence``'s gate arithmetic. The sublayers keep their layer norm's
row statistics, not its output, and recompute the output in backward with
the helpers ``layer_norm`` uses; attention scores are made
``ATTENTION_ROWS`` query rows at a time, and without a graph one such block
of scores is all that exists. Without a graph the attention sublayer also
writes each block's output over the q rows it has read and its output
projection into k's buffer; in both modes the feed-forward sublayer writes
its output into its layer norm's output, which neither keeps. Both check
every weight's shape against the input's width before any work. The graph
primitives the tests' oracles are built from, multi-head ``attention`` and
a sliding-window ``conv1d`` among them, live with the tests. The LSTM
gates and the ``softplus`` grad take their sigmoid from ``_sigmoid``,
``1 / (1 + exp(-x))`` in numpy computed in place, so the module imports
numpy alone.

Also here: the Adam optimizer, whose one setting is the learning rate (the
moment decays and epsilon are the constants ``ADAM_BETA1``, ``ADAM_BETA2``
and ``ADAM_EPS``), which creates a parameter's moments at its first grad and
updates each parameter in place in cache-sized chunks with no full-size
temporaries; strict checkpoint serialization; and the central
finite-difference gradient checker the test suite leans on.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import operator
from pathlib import Path

import numpy as np

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


# ``_backward`` of an interior node once ``backward()`` has passed it
_CONSUMED = object()


def _consumed_error(node, action):
    return GraphError(
        f"{action} the {node._op!r} node of a graph that backward() already consumed; "
        "build the graph again, or sum the losses and call backward() once"
    )


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
        """Accumulate d(self)/d(leaf) into the ``.grad`` of every leaf that requires grad, consuming the graph.

        Each interior node, once it has passed its grad on, drops its grad,
        its backward closure and its parents, so the activations the caller
        does not hold are freed as the pass goes. The graph cannot be walked
        again: a second ``backward()`` that reaches a consumed node raises a
        :class:`GraphError` naming its op, before any grad moves.
        """
        if self.data.size != 1:
            raise GraphError(f"backward() needs a scalar output, got shape {self.shape}")
        # iterative topological sort, so graph depth is not bounded by the recursion limit
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node._backward is _CONSUMED:
                raise _consumed_error(node, "backward() through")
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _CONSUMED, ()

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

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


def _sigmoid(x, out):
    """``1 / (1 + exp(-x))`` written into ``out``; saturates to exactly 0 and 1 with no overflow warning."""
    with np.errstate(over="ignore"):
        np.exp(np.negative(x, out=out), out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _label_ids(labels, vocab_size, op):
    """``labels`` as an int64 array; a ValueError names ``op`` and the first id that is not an integer in range."""
    ids = []
    for label in labels:
        try:
            ids.append(operator.index(label))
        except TypeError:
            raise ValueError(f"{op}: label id {label!r} is not an integer") from None
        if not 0 <= ids[-1] < vocab_size:
            raise ValueError(f"{op}: label id {label} outside vocab of size {vocab_size}")
    return np.array(ids, dtype=np.int64)


def _records(parents):
    """Whether an op on ``parents`` builds a graph node: grad mode is on and some parent requires grad."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def _node(data, parents, backward, op):
    needs = _records(parents)
    if needs:
        for p in parents:
            if p._backward is _CONSUMED:
                raise _consumed_error(p, f"op {op!r} on")
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


def softplus(x):
    x = _lift(x)
    data = np.logaddexp(0.0, x.data)

    def backward(g):
        _accum(x, g * _sigmoid(x.data, np.empty_like(x.data)))

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


def _layer_norm_stats(x):
    """Mean and inverse standard deviation of each row of ``x`` over its last axis, kept dims."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    xc *= xc
    return mu, 1.0 / np.sqrt(xc.mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)


def _layer_norm_apply(x, mu, inv, gain, bias):
    """Layer norm of ``x`` from its row statistics: the output ``xhat * gain + bias`` and ``xhat``."""
    xhat = x - mu
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, xhat


def _layer_norm_backward(g, xhat, inv, gain, bias):
    """Accumulate the grads of the ``gain`` and ``bias`` tensors from output grad ``g``; return the input's."""
    lead = tuple(range(g.ndim - 1))
    _accum(gain, _unbroadcast((g * xhat).sum(axis=lead), gain.shape))
    _accum(bias, _unbroadcast(g.sum(axis=lead), bias.shape))
    dxhat = g * gain.data
    return inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))


def layer_norm(x, gain, bias):
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    mu, inv = _layer_norm_stats(x.data)
    data, xhat = _layer_norm_apply(x.data, mu, inv, gain.data, bias.data)

    def backward(g):
        _accum(x, _layer_norm_backward(g, xhat, inv, gain, bias))

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


def _taps(t, k):
    """Each tap ``kk`` of a width-``k`` "same" convolution over ``t`` frames, with the output and input rows it joins.

    Tap ``kk`` adds input row ``i + kk - k // 2`` into output row ``i``; a
    tap that reaches no frame is left out.
    """
    for kk in range(k):
        s = kk - k // 2
        if abs(s) < t:
            yield kk, slice(max(-s, 0), t - max(s, 0)), slice(max(s, 0), t - max(-s, 0))


def conv1d(x, w, b):
    """1-D "same" convolution along the first axis plus a bias: x (T, Cin), w (Cout, Cin, K), b (Cout,).

    K is odd and the input is zero-padded by K // 2 frames at each end, so the
    output is (T, Cout). The forward pass sums one GEMM per tap,
    ``x[rows] @ w[:, :, kk].T``, into the output, the centre tap first, so it
    copies neither the padded input nor its windows. Backward forms the
    input grad the same way and each tap's weight grad as
    ``g[rows].T @ x[rows]``.
    """
    x, w, b = _lift(x), _lift(w), _lift(b)
    if x.data.ndim != 2 or w.data.ndim != 3 or x.shape[1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ValueError(f"conv1d shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    t, k = x.shape[0], w.shape[2]
    if k % 2 == 0:
        raise ValueError(f"conv1d kernel width {k} is even; \"same\" padding needs an odd width")
    if t < 1:
        raise ValueError("conv1d needs at least one frame")
    pad = k // 2
    data = x.data @ w.data[:, :, pad].T
    for kk, out_rows, in_rows in _taps(t, k):
        if kk != pad:
            data[out_rows] += x.data[in_rows] @ w.data[:, :, kk].T
    data += b.data

    def backward(g):
        if w.requires_grad:
            gw = np.zeros(w.shape)
            for kk, out_rows, in_rows in _taps(t, k):
                gw[:, :, kk] = g[out_rows].T @ x.data[in_rows]
            _accum(w, gw)
        if x.requires_grad:
            gx = np.zeros(x.shape)
            for kk, out_rows, in_rows in _taps(t, k):
                gx[in_rows] += g[out_rows] @ w.data[:, :, kk]
            _accum(x, gx)
        if b.requires_grad:
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


# ---------------------------------------------------------------------------
# transformer sublayers


# Query rows whose attention scores are made at once: without a graph, a
# block's scores take heads * ATTENTION_ROWS * T floats, not heads * T * T.
ATTENTION_ROWS = 64


def _attention_rows(qh, kh, vh, weights, out):
    """``softmax(qh @ kh.T / sqrt(dh)) @ vh`` per head for one block of query rows, written into ``out``.

    ``qh`` is (heads, rows, dh), ``kh`` and ``vh`` are (heads, T, dh); the
    attention weights are written into ``weights`` (heads, rows, T).
    """
    np.matmul(qh, kh.transpose(0, 2, 1), out=weights)
    weights *= 1.0 / np.sqrt(qh.shape[-1])
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    np.matmul(weights, vh, out=out)


def _sublayer_input(h, op):
    """``h`` as a tensor; a ValueError names ``op`` unless it is (T, d)."""
    h = _lift(h)
    if h.data.ndim != 2:
        raise ValueError(f"{op} input must be (T, d), got shape {h.shape}")
    return h


def _sublayer_operands(params, prefix, op, shapes):
    """``params[f"{prefix}.{name}"]`` for each name of ``shapes``, in order.

    A ValueError names ``op`` and the first operand whose shape is not the one ``shapes`` gives.
    """
    operands = []
    for name, shape in shapes.items():
        p = params[f"{prefix}.{name}"]
        if p.shape != shape:
            raise ValueError(f"{op}: {prefix}.{name} has shape {p.shape}, expected {shape}")
        operands.append(p)
    return operands


def attention_sublayer(h, params, prefix, heads):
    """The attention half of a pre-norm transformer block over h (T, d) -> (T, d), as one node.

    Computes ``h + attn(q, k, v) @ wo + bo`` with ``x = LN1(h)`` (gain and bias
    ``{prefix}.ln1.g`` and ``.ln1.b``), ``q = x @ wq + bq``, ``k = x @ wk`` and
    ``v = x @ wv + bv``, every weight read from ``params`` as
    ``{prefix}.<name>``. Head ``i`` of ``attn`` attends with columns
    ``i*dh : (i+1)*dh``, where ``dh = d // heads``: ``softmax(q_i @ k_i.T /
    sqrt(dh)) @ v_i``, the head outputs concatenated in head order. Scores
    are made ``ATTENTION_ROWS`` query rows at a time; without a graph one
    block buffer is reused, with one the blocks fill the full (heads, T, T)
    weights that backward reads. The node keeps q, k, v, the weights, the
    attention output and LN1's row statistics; backward recomputes ``x``.
    Without a graph nothing is kept: each row block's attention output
    overwrites the q rows it has consumed, and the output projection is
    written into k's buffer, so the op holds h, q, k, v and one block of
    scores. Every operand's shape is checked against h's width ``d``
    before any work.
    """
    h = _sublayer_input(h, "attention_sublayer")
    t, d = h.shape
    if heads < 1 or d % heads:
        raise ValueError(f"attention width {d} is not divisible into {heads} heads")
    row, square = (d,), (d, d)
    shapes = {
        "ln1.g": row, "ln1.b": row, "wq": square, "bq": row, "wk": square,
        "wv": square, "bv": row, "wo": square, "bo": row,
    }
    operands = _sublayer_operands(params, prefix, "attention_sublayer", shapes)
    gain, bias, wq, bq, wk, wv, bv, wo, bo = operands
    dh = d // heads
    mu, inv = _layer_norm_stats(h.data)
    x = _layer_norm_apply(h.data, mu, inv, gain.data, bias.data)[0]
    q = x @ wq.data
    q += bq.data
    k = x @ wk.data
    v = x @ wv.data
    v += bv.data
    del x

    def split(a):  # (T, d) -> (heads, T, dh), a view
        return a.reshape(t, heads, dh).transpose(1, 0, 2)

    def merge(a):  # (heads, T, dh) -> (T, d), C-ordered so that later reductions sum in row order
        return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(t, d)

    keep = _records((h, *operands))
    attn = np.empty((t, d)) if keep else q
    qh, kh, vh, ah = split(q), split(k), split(v), split(attn)
    weights = np.empty((heads, t if keep else min(t, ATTENTION_ROWS), t))
    for lo in range(0, t, ATTENTION_ROWS):
        rows = slice(lo, min(lo + ATTENTION_ROWS, t))
        block = weights[:, rows] if keep else weights[:, : rows.stop - lo]
        _attention_rows(qh[:, rows], kh, vh, block, ah[:, rows])
    data = np.matmul(attn, wo.data, out=None if keep else k)
    data += bo.data
    data += h.data

    def backward(g):
        if wo.requires_grad:
            _accum(wo, attn.T @ g)
        if bo.requires_grad:
            _accum(bo, g.sum(axis=0))
        gh = split(g @ wo.data.T)
        dv = merge(weights.transpose(0, 2, 1) @ gh)
        dscores = gh @ vh.transpose(0, 2, 1)
        dscores -= (dscores * weights).sum(axis=-1, keepdims=True)
        dscores *= weights
        dscores *= 1.0 / np.sqrt(dh)
        dq = merge(dscores @ kh)
        dk = merge((qh.transpose(0, 2, 1) @ dscores).transpose(0, 2, 1))
        del dscores
        x, xhat = _layer_norm_apply(h.data, mu, inv, gain.data, bias.data)
        for w, b, dy in ((wq, bq, dq), (wk, None, dk), (wv, bv, dv)):
            if w.requires_grad:
                _accum(w, x.T @ dy)
            if b is not None and b.requires_grad:
                _accum(b, dy.sum(axis=0))
        dx = dq @ wq.data.T
        dx += dk @ wk.data.T
        dx += dv @ wv.data.T
        dh_in = _layer_norm_backward(dx, xhat, inv, gain, bias)
        dh_in += g
        _accum(h, dh_in)

    return _node(data, (h, *operands), backward, "attention_sublayer")


def feed_forward_sublayer(h, params, prefix):
    """The feed-forward half of a pre-norm transformer block over h (T, d) -> (T, d), as one node.

    Computes ``h + relu(x @ w1 + b1) @ w2 + b2`` with ``x = LN2(h)`` (gain
    and bias ``{prefix}.ln2.g`` and ``.ln2.b``), the weights read from
    ``params`` as ``{prefix}.ff.w1``, ``.ff.b1``, ``.ff.w2`` and ``.ff.b2``.
    The hidden layer is rectified in place and the output is written into
    ``x``'s buffer; the node keeps the hidden layer and LN2's row
    statistics, and backward recomputes ``x``. Every operand's shape is
    checked against h's width ``d`` and the hidden width (``ff.w1``'s
    columns) before any work.
    """
    h = _sublayer_input(h, "feed_forward_sublayer")
    d = h.shape[1]
    f = params[f"{prefix}.ff.w1"].shape[-1:]  # (hidden width,); () for a 0-d w1, which the (d, f) check names
    shapes = {"ln2.g": (d,), "ln2.b": (d,), "ff.w1": (d, *f), "ff.b1": f, "ff.w2": (*f, d), "ff.b2": (d,)}
    operands = _sublayer_operands(params, prefix, "feed_forward_sublayer", shapes)
    gain, bias, w1, b1, w2, b2 = operands
    mu, inv = _layer_norm_stats(h.data)
    x = _layer_norm_apply(h.data, mu, inv, gain.data, bias.data)[0]
    hidden = x @ w1.data
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)
    data = np.matmul(hidden, w2.data, out=x)
    data += b2.data
    data += h.data

    def backward(g):
        if w2.requires_grad:
            _accum(w2, hidden.T @ g)
        if b2.requires_grad:
            _accum(b2, g.sum(axis=0))
        dhidden = g @ w2.data.T
        dhidden *= hidden > 0
        x, xhat = _layer_norm_apply(h.data, mu, inv, gain.data, bias.data)
        if w1.requires_grad:
            _accum(w1, x.T @ dhidden)
        if b1.requires_grad:
            _accum(b1, dhidden.sum(axis=0))
        dh_in = _layer_norm_backward(dhidden @ w1.data.T, xhat, inv, gain, bias)
        dh_in += g
        _accum(h, dh_in)

    return _node(data, (h, *operands), backward, "feed_forward_sublayer")


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


def _lstm_step(pre, c, act, c_out, tanh_c_out, h_out):
    """One LSTM step from pre-activation ``pre`` (4H,) and cell state ``c`` (H,), gate order i, f, g, o.

    Writes the activated gates, the new cell state, its tanh and the new hidden
    state into the last four arguments.
    """
    hidden = c_out.size
    gate_g = slice(2 * hidden, 3 * hidden)
    _sigmoid(pre, act)
    act[gate_g] = np.tanh(pre[gate_g])
    c = np.multiply(act[hidden : 2 * hidden], c, out=c_out)
    c += act[:hidden] * act[gate_g]
    np.multiply(act[3 * hidden :], np.tanh(c, out=tanh_c_out), out=h_out)


def _lstm_gate_grads(gates, tanh_c):
    """d(gate)/d(pre-activation) (sigmoid' for i, f, o; tanh' for g) and d(c)/d(h) of stored steps."""
    hidden = tanh_c.shape[1]
    gate_g = slice(2 * hidden, 3 * hidden)
    dgate = gates * (1.0 - gates)
    dgate[:, gate_g] = 1.0 - gates[:, gate_g] * gates[:, gate_g]
    return dgate, gates[:, 3 * hidden :] * (1.0 - tanh_c * tanh_c)


def _lstm_step_backward(dh, dc, act, dgate, dc_from_h, c_prev, tanh_c, dpre):
    """Backward of one :func:`_lstm_step` from the grads ``dh`` and ``dc`` of its outputs.

    The other arguments are the step's rows of the stored gates, of
    :func:`_lstm_gate_grads`, of the cell state it was given and of its tanh.
    Writes the pre-activation's grad into ``dpre``; returns the given cell state's.
    """
    hidden = dh.size
    dc = dh * dc_from_h + dc
    dpre[:hidden] = dc * act[2 * hidden : 3 * hidden]
    dpre[hidden : 2 * hidden] = dc * c_prev
    dpre[2 * hidden : 3 * hidden] = dc * act[:hidden]
    dpre[3 * hidden :] = dh * tanh_c
    dpre *= dgate
    return dc * act[hidden : 2 * hidden]


def lstm_sequence(xs, W, U, b, reverse=False):
    """LSTM over a whole sequence xs (T, Din) -> (T, H) from a zero state, as one node.

    Each step's pre-activation is ``(x@W + h@U) + b``, gate order i, f, g, o
    (:func:`_lstm_step`). Row ``t`` of the output is the hidden state after
    frame ``t``; with ``reverse`` the frames are consumed last to first. The
    backward pass is hand-written BPTT over the stored gates and cell states.
    """
    xs, W, U, b = _lift(xs), _lift(W), _lift(U), _lift(b)
    t, din = xs.shape
    hidden = U.shape[0]
    if t < 1:
        raise ValueError("lstm_sequence needs at least one frame")
    if W.shape != (din, 4 * hidden) or U.shape != (hidden, 4 * hidden) or b.data.size != 4 * hidden:
        raise ValueError(f"lstm_sequence shape mismatch: xs {xs.shape}, W {W.shape}, U {U.shape}, b {b.shape}")
    order = range(t - 1, -1, -1) if reverse else range(t)
    xw = xs.data @ W.data
    Ud, bd = U.data, b.data.reshape(-1)
    gates = np.empty((t, 4 * hidden))  # activated i, f, g, o
    tanh_c = np.empty((t, hidden))
    # frame i reads the state in row i + into and writes its own to row i + out, so the zero state is row 0 or t
    into, out = (1, 0) if reverse else (0, 1)
    hs, cs = np.zeros((2, t + 1, hidden))
    for i in order:
        _lstm_step((xw[i] + hs[i + into] @ Ud) + bd, cs[i + into], gates[i], cs[i + out], tanh_c[i], hs[i + out])
    h_prev, c_prev, hs = hs[into : into + t], cs[into : into + t], hs[out : out + t]

    def backward(g):
        dgate, dc_from_h = _lstm_gate_grads(gates, tanh_c)
        dpre = np.empty_like(gates)
        dh_next = dc_next = np.zeros(hidden)
        for i in reversed(order):
            dc_next = _lstm_step_backward(
                g[i] + dh_next, dc_next, gates[i], dgate[i], dc_from_h[i], c_prev[i], tanh_c[i], dpre[i]
            )
            dh_next = dpre[i] @ Ud.T
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


def attention_decoder(hidden, embed, W, U, b, out_w, out_b, tokens, targets):
    """Teacher-forced mean cross-entropy of an attention LSTM decoder over ``hidden`` (T, d), as one node.

    Step ``i`` feeds ``[embed[tokens[i]], ctx]`` to an LSTM step of width d
    (pre-activation ``[emb, ctx] @ W + h @ U + b``), attends over the frames
    with ``softmax(hidden @ h)`` for the next ``ctx``, and scores
    ``[h, ctx] @ out_w + out_b`` against ``targets[i]``; h, c and ctx start at
    zero. The context feeds the next step's input (Luong et al., EMNLP 2015).
    A label id that is not an integer in ``[0, V)`` is rejected before any
    work is done. The backward pass is hand-written BPTT and skips operands
    that need no grad.
    """
    hidden, embed, W, U, b, out_w, out_b = map(_lift, (hidden, embed, W, U, b, out_w, out_b))
    (t, d), (v, e) = hidden.shape, embed.shape
    tokens, targets = _label_ids(tokens, v, "attention_decoder"), _label_ids(targets, v, "attention_decoder")
    n = len(tokens)
    got = (tokens.shape, targets.shape, W.shape, U.shape, b.data.size, out_w.shape, out_b.shape)
    if n < 1 or got != ((n,), (n,), (e + d, 4 * d), (d, 4 * d), 4 * d, (2 * d, v), (v,)):
        raise ValueError(
            f"attention_decoder shape mismatch: hidden {hidden.shape}, embed {embed.shape}, W {W.shape}, U {U.shape}, "
            f"b {b.shape}, out_w {out_w.shape}, out_b {out_b.shape}, tokens {tokens.shape}, targets {targets.shape}"
        )
    H, Ud, We, Wc = hidden.data, U.data, W.data[:e], W.data[e:]
    xe = embed.data[tokens] @ We  # the embedding's share of every step's pre-activation
    bd = b.data.reshape(-1)
    gates = np.empty((n, 4 * d))  # activated i, f, g, o
    tanh_c, att = np.empty((n, d)), np.empty((n, t))
    cs = np.zeros((n + 1, d))  # row i: the cell state entering step i
    hc = np.zeros((n + 1, 2 * d))  # row i: the [h, ctx] entering step i; row i + 1: the one it outputs
    for i in range(n):
        pre = ((xe[i] + hc[i, d:] @ Wc) + hc[i, :d] @ Ud) + bd
        _lstm_step(pre, cs[i], gates[i], cs[i + 1], tanh_c[i], hc[i + 1, :d])
        a = np.matmul(H, hc[i + 1, :d], out=att[i])
        a -= a.max()
        np.exp(a, out=a)
        a /= a.sum()
        np.matmul(a, H, out=hc[i + 1, d:])
    z = hc[1:] @ out_w.data  # the output logits, shifted to a row maximum of zero
    z += out_b.data
    z -= z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    data = np.mean(lse[:, 0] - z[np.arange(n), targets])

    def backward(g):
        p = np.exp(z - lse)
        p[np.arange(n), targets] -= 1.0
        dlogits = g * p / n
        if out_w.requires_grad:
            _accum(out_w, hc[1:].T @ dlogits)
        if out_b.requires_grad:
            _accum(out_b, dlogits.sum(axis=0))
        if not any(x.requires_grad for x in (hidden, embed, W, U, b)):
            return
        dhc = dlogits @ out_w.data.T  # each step's [h, ctx] grad from its output row
        dh_out, dctx = dhc[:, :d], dhc[:, d:]
        dgate, dc_from_h = _lstm_gate_grads(gates, tanh_c)
        dpre, dscores = np.empty_like(gates), np.empty_like(att)
        dh_next = dc_next = np.zeros(d)
        for i in reversed(range(n)):
            if i + 1 < n:
                dctx[i] += dpre[i + 1] @ Wc.T  # the context fed into the next step
            a = att[i]
            datt = H @ dctx[i]
            ds = np.multiply(a, datt - datt @ a, out=dscores[i])
            dh = (dh_out[i] + dh_next) + ds @ H
            dc_next = _lstm_step_backward(dh, dc_next, gates[i], dgate[i], dc_from_h[i], cs[i], tanh_c[i], dpre[i])
            dh_next = dpre[i] @ Ud.T
        if hidden.requires_grad:
            _accum(hidden, att.T @ dctx + dscores.T @ hc[1:, :d])
        if embed.requires_grad:
            dembed = np.zeros_like(embed.data)
            np.add.at(dembed, tokens, dpre @ We.T)
            _accum(embed, dembed)
        if W.requires_grad:
            _accum(W, np.concatenate([embed.data[tokens], hc[:-1, d:]], axis=1).T @ dpre)
        if U.requires_grad:
            _accum(U, hc[:-1, :d].T @ dpre)
        if b.requires_grad:
            _accum(b, dpre.sum(axis=0).reshape(b.shape))

    return _node(data, (hidden, embed, W, U, b, out_w, out_b), backward, "attention_decoder")


# ---------------------------------------------------------------------------
# optimization


# Elements per in-place Adam update: the six 256 KiB slices one chunk touches
# (parameter, grad, m, v and two scratch buffers) stay in a core's L2 cache.
ADAM_CHUNK = 1 << 15
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Standard Adam with bias correction; frozen parameters are never touched.

    ``step`` updates every parameter, and its moments ``m`` and ``v``, in place
    in chunks of ``ADAM_CHUNK`` elements through two preallocated scratch
    buffers, so no full-size temporary is made (a :class:`Parameter` is always
    C-contiguous, so its flat view is its data). The arithmetic of
    each element is ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``p -= lr*(m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)``, in that order, with
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS`` for b1, b2 and eps.

    A new optimizer holds no moments. A parameter's ``m`` and ``v`` are made
    at the first step at which it has a grad, as ``(1-b1)*g`` and
    ``(1-b2)*g*g``, which is what the update makes of zero moments; ``t``
    counts every step, so the bias correction is that of the step.
    """

    def __init__(self, params, lr):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self._m, self._v = {}, {}
        self._scratch = np.empty((2, ADAM_CHUNK))

    def step(self):
        live = {n: p for n, p in self.params.items() if p.requires_grad and p.grad is not None}
        for n, p in live.items():
            if p.grad.shape != p.shape:
                raise ValueError(f"Adam: grad of parameter {n!r} has shape {p.grad.shape}, its data {p.shape}")
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for n, p in live.items():
            fresh = n not in self._m
            if fresh:
                self._m[n], self._v[n] = np.empty(p.shape), np.empty(p.shape)
            data, grad = p.data.reshape(-1), p.grad.reshape(-1)
            m, v = self._m[n].reshape(-1), self._v[n].reshape(-1)
            for lo in range(0, data.size, ADAM_CHUNK):
                hi = min(lo + ADAM_CHUNK, data.size)
                self._update(data[lo:hi], grad[lo:hi], m[lo:hi], v[lo:hi], *self._scratch[:, : hi - lo], b1c, b2c, fresh)

    def _update(self, p, g, m, v, s, r, b1c, b2c, fresh):
        """One Adam update of ``p``, ``m`` and ``v`` in place; ``s`` and ``r`` are scratch of the same shape.

        ``fresh`` moments are unset and are written as the update makes them of
        zeros, ``(1-b1)*g`` and ``(1-b2)*g*g``, without being read: updating
        zero-filled arrays fresh from the OS would fault each of their pages
        in twice, to read and then to write.
        """
        if fresh:
            np.multiply(g, 1 - ADAM_BETA1, out=m)
            np.multiply(g, g, out=v)
            v *= 1 - ADAM_BETA2
        else:
            m *= ADAM_BETA1
            np.multiply(g, 1 - ADAM_BETA1, out=s)
            m += s
            v *= ADAM_BETA2
            np.multiply(g, g, out=s)
            s *= 1 - ADAM_BETA2
            v += s
        np.divide(m, b1c, out=s)
        s *= self.lr
        np.divide(v, b2c, out=r)
        np.sqrt(r, out=r)
        r += ADAM_EPS
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


def check_sizes(cfg, names):
    """Raise a ``ValueError`` naming the first field in ``names`` of the config ``cfg`` that is not a positive int."""
    for name in names:
        value = getattr(cfg, name)
        if type(value) is not int or value < 1:
            raise ValueError(f"{type(cfg).__name__}.{name} is {value!r}; it must be a positive int")


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
