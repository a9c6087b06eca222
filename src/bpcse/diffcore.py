"""Minimal reverse-mode autodiff core, double precision throughout.

A tensor wraps a float64 numpy array plus an accumulated gradient, and is
made in one of three ways. ``Tensor(data)`` is a constant leaf, which never
requires a grad: an input, the mel matrix, a position table.
``Parameter(data)`` is the one trainable leaf, a model weight, and the one
kind of entry that :class:`Adam` and ``save_checkpoint`` take. Every op
output is made by ``_node``, the one place that gives a tensor parents and a
backward closure; it does so only when it records the node, and otherwise
the output is a constant too. Ops so build a DAG; ``backward()`` walks it in
reverse topological order. Every op output is checked for NaN/Inf and trips
a :class:`GraphError` immediately, which keeps training failures local to
the op that produced them.

Inside a :func:`no_grad` block ops record no parents and no backward closure,
so inference keeps no graph and frees each activation once it is used; the
NaN/Inf check still runs on every output. A :class:`Parameter` whose
``requires_grad`` is off is frozen: it passes gradient on to its inputs but
gets none itself. ``add``, ``mul``, ``matmul``, ``linear``, ``conv1d_relu``
and ``l1_loss`` compute no grad for an operand that needs none, frozen or
constant, and the fused ops none for a frozen weight.

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
models add a bias to a product), ``softplus``, ``log``, ``expm1``,
``layer_norm`` over the last axis, ``conv1d_relu`` (an SE stem layer: a
"same" convolution, one GEMM per kernel tap over shifted rows of the input,
rectified in place) and ``l1_loss``. Five fused ops have a hand-written
backward: the two halves of a pre-norm transformer block,
``attention_sublayer`` (``h + wo·attn(qkv(LN1(h)))``, multi-head
self-attention) and ``feed_forward_sublayer`` (``h + w2·relu(w1·LN2(h))``);
the recognizer's BLSTM layer (``blstm_layer``, BPTT over both directions);
its teacher-forced attention decoder with its cross-entropy
(``attention_decoder``, BPTT), whose LSTM steps share ``blstm_layer``'s gate
arithmetic; and its ``ctc_loss`` (alpha-beta occupancies, blank id
``BLANK``). This module is the only one that builds a graph node. No layer
norm, the ``layer_norm`` op's or a sublayer's, keeps anything for backward,
which recomputes it with ``_normalized``. The sublayers run in blocks of
``ATTENTION_ROWS`` and ``FEED_FORWARD_ROWS`` rows, so that without a graph
one block of scores and one of the hidden layer are all that exist; their
docstrings say what each keeps and what it writes in place. The graph
primitives the tests' oracles are built from, ``relu``, multi-head
``attention``, ``concat`` and a sliding-window ``conv1d`` among them, live
with the tests, and so does the central finite-difference ``gradcheck``. The
LSTM gates and the ``softplus`` grad take their sigmoid from ``_sigmoid``,
``1 / (1 + exp(-x))`` in numpy computed in place, so the module imports
numpy alone.

An op that owns weights takes ``(x, params, prefix, ...)`` and reads weight
``name`` as ``params[f"{prefix}.{name}"]``, a :class:`Tensor` (a bare array is
rejected, named with the op). Before any work it checks them with
``_operands`` against its layout table ``{name: shape}`` (``linear_layout``,
``conv1d_layout``, ``layer_norm_layout``, ``attention_layout``,
``feed_forward_layout``, ``blstm_layout``, ``decoder_layout``), and each model
gathers the same tables in its static ``layouts(cfg)`` and makes all its
weights from them in one ``init_params`` call, as views of one buffer, so
they are one allocation. A size the input does not give (H of
``blstm_layer``) is read from one weight by ``_dims``, which names the dims
it expects. Every op on frames, ``ctc_loss`` too, checks with
``_frames`` that its input is (T, d), T >= 1.

Also here: the Adam optimizer over :class:`Parameter` objects, whose one
setting is the learning rate, a finite positive number (the moment decays
and epsilon are the constants ``ADAM_BETA1``, ``ADAM_BETA2`` and
``ADAM_EPS``), which creates a parameter's moments at its first grad, those
of all the parameters first stepped together as views of one buffer per
moment, and updates each parameter in place in cache-sized chunks with no
full-size temporaries. It stores the moments without their ``(1-beta)``
factors and folds the bias corrections into a per-step scale and epsilon,
so a steady step is ten passes over each chunk with one sqrt and one divide
per element. And checkpoints, which one reader, ``load_model``, checks
against the model's layout table in table order (another order is refused)
before it reads the payload with one ``readinto`` into one buffer.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import math
import numbers
import operator
import os
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
    """A float64 array in the graph; made directly, a constant leaf that never requires a grad.

    Only :class:`Parameter` and ``_node`` make one that does; ``_op`` names the op that made it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, _op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        _finite_or_raise(self.data, _op)
        self._op = _op
        self.grad = None
        self.requires_grad, self._parents, self._backward = False, (), None

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
    """A model weight, the one trainable leaf; a frozen one has ``requires_grad`` off.

    Its name is its key in the model's ``params``. It is the one kind of
    entry that :class:`Adam` and ``save_checkpoint`` take.
    """

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data)
        # C-contiguous, so that Adam can update it in place through flat chunks; a scalar stays 0-d
        self.data = np.asarray(self.data, order="C")
        self.requires_grad = True


def _parameters(params, op):
    """``dict(params)``; a ValueError names ``op`` and the first entry that is not a :class:`Parameter`."""
    for n, p in params.items():
        if not isinstance(p, Parameter):
            raise ValueError(f"{op}: entry {n!r} is of type {type(p).__name__}, not a diffcore Parameter")
    return dict(params)


def _views(shapes):
    """One new float64 buffer and its cut into C-contiguous views of ``shapes`` (``{name: shape}``), in order."""
    buffer = np.empty(sum(math.prod(shape) for shape in shapes.values()))
    views, lo = {}, 0
    for name, shape in shapes.items():
        views[name] = buffer[lo : lo + math.prod(shape)].reshape(shape)
        lo += views[name].size
    return buffer, views


def _table(layouts):
    """``{f"{prefix}.{name}": shape}`` of ``layouts`` (``{prefix: {name: shape}}``), in table order."""
    return {f"{prefix}.{name}": shape for prefix, layout in layouts.items() for name, shape in layout.items()}


def init_params(rng, layouts):
    """A :class:`Parameter` for each ``{prefix}.<name>`` of ``layouts`` (``{prefix: {name: shape}}``), in table order.

    Every parameter is a C-contiguous view of one float64 buffer, laid out
    in table order: a model's weights are one allocation, which numpy
    advises the kernel to back with huge pages once it is 4 MiB or more.
    A weight of rank 2 or more is drawn as ``rng.uniform(-s, s, shape)``
    would draw it, bit for bit, but into its view: ``rng.random`` then
    ``* (s - -s) + -s``, with ``s = sqrt(6 / (fan_in + fan_out))`` (Glorot):
    a matrix (rows, cols) has fans rows and cols, a conv kernel (out, in, k)
    in * k and out * k. A layer-norm gain ``g`` is ones, and every other
    vector zeros.
    """
    params = {}
    for key, view in _views(_table(layouts))[1].items():
        shape = view.shape
        if len(shape) >= 2:
            s = np.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
            rng.random(out=view)
            view *= s - (-s)
            view += -s
        else:
            view.fill(1.0 if key.rsplit(".", 1)[-1] == "g" else 0.0)
        params[key] = Parameter(view)
    return params


def _weight(params, key, op):
    """``params[key]``, which must be a :class:`Tensor`; a ValueError names ``op``, ``key`` and the type found."""
    w = params[key]
    if not isinstance(w, Tensor):
        raise ValueError(f"{op}: {key} is of type {type(w).__name__}, not a diffcore Tensor")
    return w


def _operands(params, prefix, op, layout):
    """``params[f"{prefix}.{name}"]`` for each name of ``layout``; a ValueError names ``op`` and a misshapen weight."""
    operands = []
    for name, shape in layout.items():
        p = _weight(params, f"{prefix}.{name}", op)
        if p.shape != shape:
            raise ValueError(f"{op}: {prefix}.{name} has shape {p.shape}, expected {shape}")
        operands.append(p)
    return operands


def _dims(params, key, op, names):
    """The shape of ``params[key]``, one size per name in ``names``; a ValueError names ``op``, ``key`` and them."""
    shape = _weight(params, key, op).shape
    if len(shape) != len(names):
        raise ValueError(f"{op}: {key} has shape {shape}, expected ({', '.join(names)})")
    return shape


def _lift(v):
    return v if isinstance(v, Tensor) else Tensor(v)


def _frames(h, op):
    """``h`` as a tensor of frames; a ValueError names ``op`` unless it is (T, d) with T >= 1."""
    h = _lift(h)
    if h.data.ndim != 2 or not h.shape[0]:
        raise ValueError(f"{op} input must be (T, d) with at least one frame, got shape {h.shape}")
    return h


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
    out = Tensor(data, op)
    if _records(parents):
        for p in parents:
            if p._backward is _CONSUMED:
                raise _consumed_error(p, f"op {op!r} on")
        out.requires_grad, out._parents, out._backward = True, tuple(parents), backward
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
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _node(data, (a, b), backward, "add")


def mul(a, b):
    a, b, data = _elementwise(a, b, np.multiply, "mul")

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
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


def linear_layout(n, m):
    """The weights of :func:`linear` from width n to m, ``{name: shape}``."""
    return {"w": (n, m), "b": (m,)}


def linear(x, params, prefix):
    """``x @ W + b`` for x (T, n), W ``{prefix}.w`` and b ``{prefix}.b`` of ``linear_layout(n, m)``, as one node."""
    x = _frames(x, "linear")
    m = _dims(params, f"{prefix}.w", "linear", ("n", "m"))[1]
    W, b = _operands(params, prefix, "linear", linear_layout(x.shape[1], m))
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


def _normalized(x):
    """xhat, the rows of x (T, d) at zero mean and unit variance, the one (T, d) array made; inv, their inverse stds."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = np.empty((len(x), 1))
    squares = np.empty((min(len(x), ATTENTION_ROWS), x.shape[1]))
    for lo in range(0, len(x), ATTENTION_ROWS):
        rows = xhat[lo : lo + ATTENTION_ROWS]
        block = np.multiply(rows, rows, out=squares[: len(rows)])
        np.mean(block, axis=-1, keepdims=True, out=inv[lo : lo + len(rows)])
    inv = 1.0 / np.sqrt(inv + LAYER_NORM_EPS)
    xhat *= inv
    return xhat, inv


def _layer_norm_forward(x, gain, bias):
    """Layer norm of ``x`` over its last axis, ``xhat * gain + bias``, made in ``xhat``'s buffer (:func:`_normalized`)."""
    out = _normalized(x)[0]
    out *= gain
    out += bias
    return out


def _layer_norm_backward(g, xhat, inv, gain, bias):
    """Accumulate the grads of ``gain`` and ``bias`` from output grad ``g``; return the input's, from its xhat and inv."""
    _accum(gain, (g * xhat).sum(axis=0))  # every caller checks that x is (T, d), gain and bias (d,)
    _accum(bias, g.sum(axis=0))
    dxhat = g * gain.data
    along_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dxhat -= dxhat.mean(axis=-1, keepdims=True)
    dxhat -= xhat * along_xhat
    dxhat *= inv
    return dxhat


def layer_norm_layout(d):
    """The weights of :func:`layer_norm` at width d, ``{name: shape}``: its gain and its bias."""
    return {"g": (d,), "b": (d,)}


def layer_norm(x, params, prefix):
    """Normalize each frame of x (T, d), then apply gain ``{prefix}.g`` and bias ``.b`` of ``layer_norm_layout(d)``."""
    x = _frames(x, "layer_norm")
    gain, bias = _operands(params, prefix, "layer_norm", layer_norm_layout(x.shape[1]))

    def backward(g):
        _accum(x, _layer_norm_backward(g, *_normalized(x.data), gain, bias))

    return _node(_layer_norm_forward(x.data, gain.data, bias.data), (x, gain, bias), backward, "layer_norm")


def _taps(t, k):
    """Each tap ``kk`` of a width-``k`` "same" convolution over ``t`` frames, with the output and input rows it joins.

    Tap ``kk`` adds input row ``i + kk - k // 2`` into output row ``i``; a
    tap that reaches no frame is left out.
    """
    for kk in range(k):
        s = kk - k // 2
        if abs(s) < t:
            yield kk, slice(max(-s, 0), t - max(s, 0)), slice(max(s, 0), t - max(-s, 0))


def conv1d_layout(cin, cout, k):
    """The weights of :func:`conv1d_relu` from cin to cout channels with kernel width k, ``{name: shape}``."""
    return {"w": (cout, cin, k), "b": (cout,)}


def conv1d_relu(x, params, prefix):
    """relu of a 1-D "same" convolution along the first axis plus a bias, x (T, Cin) -> (T, Cout), as one node.

    w (Cout, Cin, K) and b (Cout,), read as ``{prefix}.w`` and ``.b``, are
    checked against ``conv1d_layout(Cin, Cout, K)``, the op named ``conv1d``.
    K is odd and the input is zero-padded by K // 2 frames at each end. One
    GEMM per tap, ``x[rows] @ w[:, :, kk].T``, is summed into the output, the
    centre tap first, so no window of the input is copied; b is added and the
    ReLU applied in place.
    """
    x = _frames(x, "conv1d")
    t, cin = x.shape
    cout, _, k = _dims(params, f"{prefix}.w", "conv1d", ("Cout", "Cin", "K"))
    w, b = _operands(params, prefix, "conv1d", conv1d_layout(cin, cout, k))
    if k % 2 == 0:
        raise ValueError(f"conv1d kernel width {k} is even; \"same\" padding needs an odd width")
    pad = k // 2
    data = x.data @ w.data[:, :, pad].T
    for kk, out_rows, in_rows in _taps(t, k):
        if kk != pad:
            data[out_rows] += x.data[in_rows] @ w.data[:, :, kk].T
    data += b.data
    np.maximum(data, 0.0, out=data)

    def backward(g):
        g = g * (data > 0)  # the output is positive exactly where the convolution is
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

    return _node(data, (x, w, b), backward, "conv1d_relu")


def l1_loss(a, b):
    """Mean absolute difference; shapes must match exactly."""
    a, b = _lift(a), _lift(b)
    if a.shape != b.shape:
        raise ValueError(f"l1_loss shape mismatch: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    data = np.abs(diff).mean()
    sign = np.sign(diff) / diff.size

    def backward(g):
        if a.requires_grad:
            _accum(a, g * sign)
        if b.requires_grad:
            _accum(b, -g * sign)

    return _node(data, (a, b), backward, "l1_loss")


# ---------------------------------------------------------------------------
# transformer sublayers


# Query rows whose attention scores are made at once: without a graph, a
# block's scores take heads * ATTENTION_ROWS * T floats, not heads * T * T.
ATTENTION_ROWS = 64
# Rows the feed-forward sublayer runs at once: without a graph, its hidden
# layer takes FEED_FORWARD_ROWS * f floats, not T * f (2 MiB at f = 1024).
FEED_FORWARD_ROWS = 256


def _attention_rows(qh, kh, vh, weights, out, keep):
    """``softmax(qh @ kh.T) @ vh`` per head for one block of query rows, written into ``out``.

    ``qh`` is (heads, rows, dh) and already carries the score scale;
    ``kh`` and ``vh`` are (heads, T, dh). The unnormalized exponentials E
    are made in ``weights`` (heads, rows, T), and the output is ``(E @ vh) /
    sum(E)``, so the division runs over (heads, rows, dh), not over the
    scores. If ``keep``, ``weights`` is then normalized in place, as
    backward reads it.
    """
    np.matmul(qh, kh.transpose(0, 2, 1), out=weights)
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    total = weights.sum(axis=-1, keepdims=True)
    np.matmul(weights, vh, out=out)
    out /= total
    if keep:
        weights /= total


def attention_layout(d):
    """The weights of :func:`attention_sublayer` at width d, ``{name: shape}``."""
    names = ("ln1.g", "ln1.b", "wq", "bq", "wk", "wv", "bv", "wo", "bo")
    return {name: (d, d) if name[0] == "w" else (d,) for name in names}


def attention_sublayer(h, params, prefix, heads):
    """The attention half of a pre-norm transformer block over h (T, d) -> (T, d), as one node.

    Computes ``h + attn(q, k, v) @ wo + bo`` with ``x = LN1(h)`` (gain and bias
    ``{prefix}.ln1.g`` and ``.ln1.b``), ``q = x @ wq + bq``, ``k = x @ wk`` and
    ``v = x @ wv + bv``, every weight read from ``params`` as
    ``{prefix}.<name>``. Head ``i`` of ``attn`` attends with columns
    ``i*dh : (i+1)*dh``, where ``dh = d // heads``: ``softmax(q_i @ k_i.T /
    sqrt(dh)) @ v_i``, the head outputs concatenated in head order. q is
    scaled by ``1 / sqrt(dh)`` once, so the scores need no scaling pass, and
    each row of softmax weights is normalized after its product with v
    (:func:`_attention_rows`). Scores are made ``ATTENTION_ROWS`` query rows
    at a time; without a graph one block buffer is reused and never
    normalized, with one the blocks fill the full (heads, T, T) weights that
    backward reads. The node keeps the scaled q, k, v, the weights and the
    attention output; backward recomputes ``x``.
    Without a graph nothing is kept: each row block's attention output
    overwrites the q rows it has consumed, and the output projection is
    written into k's buffer, so the op holds h, q, k, v and one block of
    scores. Every weight's shape is checked against ``attention_layout(d)``
    for h's width ``d`` before any work.
    """
    h = _frames(h, "attention_sublayer")
    t, d = h.shape
    if heads < 1 or d % heads:
        raise ValueError(f"attention width {d} is not divisible into {heads} heads")
    operands = _operands(params, prefix, "attention_sublayer", attention_layout(d))
    gain, bias, wq, bq, wk, wv, bv, wo, bo = operands
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)  # a power of two, so exact, when dh is a power of four (the paper's 64)
    x = _layer_norm_forward(h.data, gain.data, bias.data)
    q = x @ wq.data
    q += bq.data
    q *= scale
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
        _attention_rows(qh[:, rows], kh, vh, block, ah[:, rows], keep)
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
        dq = merge(dscores @ kh)
        dq *= scale
        dk = merge((qh.transpose(0, 2, 1) @ dscores).transpose(0, 2, 1))
        del dscores
        xhat, inv = _normalized(h.data)
        x = xhat * gain.data  # the forward's LN output, bit for bit
        x += bias.data
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


def feed_forward_layout(d, f):
    """The weights of :func:`feed_forward_sublayer` at width d and hidden width f, ``{name: shape}``."""
    return {"ln2.g": (d,), "ln2.b": (d,), "ff.w1": (d, f), "ff.b1": (f,), "ff.w2": (f, d), "ff.b2": (d,)}


def feed_forward_sublayer(h, params, prefix):
    """The feed-forward half of a pre-norm transformer block over h (T, d) -> (T, d), as one node.

    Computes ``h + relu(x @ w1 + b1) @ w2 + b2`` with ``x = LN2(h)`` (gain
    and bias ``{prefix}.ln2.g`` and ``.ln2.b``), the weights read from
    ``params`` as ``{prefix}.ff.w1``, ``.ff.b1``, ``.ff.w2`` and ``.ff.b2``.
    Both layers run ``FEED_FORWARD_ROWS`` rows at a time: a block of the
    hidden layer is made, rectified in place and multiplied by w2 into the
    block's rows of ``x``, which it has consumed. With a graph the blocks
    fill the full (T, f) hidden layer that backward reads; without one a
    single (``FEED_FORWARD_ROWS``, f) buffer is reused, so the op holds h,
    ``x`` and one hidden block. The node keeps the hidden layer, and
    backward recomputes ``x``. Every weight's shape is checked against
    ``feed_forward_layout(d, f)``, f the columns of ``ff.w1``, before any work.
    """
    h = _frames(h, "feed_forward_sublayer")
    t, d = h.shape
    f = _dims(params, f"{prefix}.ff.w1", "feed_forward_sublayer", ("d", "f"))[1]
    operands = _operands(params, prefix, "feed_forward_sublayer", feed_forward_layout(d, f))
    gain, bias, w1, b1, w2, b2 = operands
    data = _layer_norm_forward(h.data, gain.data, bias.data)  # x, overwritten by the output
    keep = _records((h, *operands))
    hidden = np.empty((t if keep else min(t, FEED_FORWARD_ROWS), f))
    for lo in range(0, t, FEED_FORWARD_ROWS):
        rows = slice(lo, min(lo + FEED_FORWARD_ROWS, t))
        block = hidden[rows] if keep else hidden[: rows.stop - lo]
        np.matmul(data[rows], w1.data, out=block)
        block += b1.data
        np.maximum(block, 0.0, out=block)
        np.matmul(block, w2.data, out=data[rows])
    data += b2.data
    data += h.data

    def backward(g):
        if w2.requires_grad:
            _accum(w2, hidden.T @ g)
        if b2.requires_grad:
            _accum(b2, g.sum(axis=0))
        dhidden = g @ w2.data.T
        dhidden *= hidden > 0
        xhat, inv = _normalized(h.data)
        x = xhat * gain.data  # the forward's LN output, bit for bit
        x += bias.data
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


def blstm_layout(din, h):
    """The weights of :func:`blstm_layer` from width din to 2h, ``{name: shape}``: W, U and b of each direction."""
    one = {"W": (din, 4 * h), "U": (h, 4 * h), "b": (4 * h,)}
    return {f"{d}.{name}": shape for d in ("fwd", "bwd") for name, shape in one.items()}


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


def blstm_layer(xs, params, prefix):
    """Bidirectional LSTM over xs (T, Din) -> (T, 2H) from zero states, as one node.

    The forward LSTM reads its weights from ``params`` as ``{prefix}.fwd.W``,
    ``.fwd.U`` and ``.fwd.b`` and consumes the frames first to last; the
    backward one reads ``{prefix}.bwd.*`` and consumes them last to first.
    Each step's pre-activation is ``(x@W + h@U) + b``, gate order i, f, g, o
    (:func:`_lstm_step`). Row ``t`` of the output is the forward hidden state
    after frame ``t``, then the backward one after frame ``t``. Both
    directions write into one (T + 2, 2H) hidden-state buffer whose first and
    last rows are the zero states they start from, and the output is a view
    of the rows between. The backward pass is hand-written BPTT over the
    stored gates and cell states. Every weight's shape is checked against
    ``blstm_layout(Din, H)``, H the rows of ``fwd.U``, before any work.
    """
    xs = _frames(xs, "blstm_layer")
    t, din = xs.shape
    h = _dims(params, f"{prefix}.fwd.U", "blstm_layer", ("H", "4H"))[0]
    operands = _operands(params, prefix, "blstm_layer", blstm_layout(din, h))
    # per direction: its (W, U, b), its columns of the buffers, its frame order and the offset of
    # the row it reads the previous state from; frame i writes its state to row i + 1
    directions = (
        (operands[:3], slice(0, h), range(t), 0),
        (operands[3:], slice(h, 2 * h), range(t - 1, -1, -1), 2),
    )
    hs, cs = np.zeros((t + 2, 2 * h)), np.zeros((t + 2, 2 * h))  # the hidden and cell states
    gates = np.empty((2, t, 4 * h))  # activated i, f, g, o
    tanh_c = np.empty((2, t, h))
    for ((W, U, b), cols, order, into), gk, tk in zip(directions, gates, tanh_c):
        xw, Ud, bd = xs.data @ W.data, U.data, b.data
        hd, cd = hs[:, cols], cs[:, cols]
        for i in order:
            _lstm_step((xw[i] + hd[i + into] @ Ud) + bd, cd[i + into], gk[i], cd[i + 1], tk[i], hd[i + 1])

    def backward(g):
        dxs = 0.0
        for ((W, U, b), cols, order, into), gk, tk in zip(directions, gates, tanh_c):
            dgate, dc_from_h = _lstm_gate_grads(gk, tk)
            dpre = np.empty_like(gk)
            gd, hd, cd, Ud = g[:, cols], hs[:, cols], cs[:, cols], U.data
            dh_next = dc_next = np.zeros(h)
            for i in reversed(order):
                dc_next = _lstm_step_backward(
                    gd[i] + dh_next, dc_next, gk[i], dgate[i], dc_from_h[i], cd[i + into], tk[i], dpre[i]
                )
                dh_next = dpre[i] @ Ud.T
            if xs.requires_grad:
                dxs = dxs + dpre @ W.data.T
            if W.requires_grad:
                _accum(W, xs.data.T @ dpre)
            if U.requires_grad:
                _accum(U, hd[into : into + t].T @ dpre)
            if b.requires_grad:
                _accum(b, dpre.sum(axis=0))
        _accum(xs, dxs)

    return _node(hs[1 : t + 1], (xs, *operands), backward, "blstm_layer")


def decoder_layout(v, e, d):
    """The weights of :func:`attention_decoder` for v labels, width-e embeddings, width-d frames: ``{name: shape}``."""
    lstm = {"lstm.W": (e + d, 4 * d), "lstm.U": (d, 4 * d), "lstm.b": (4 * d,)}
    return {"embed": (v, e), **lstm, "out.w": (2 * d, v), "out.b": (v,)}


def attention_decoder(hidden, params, prefix, tokens, targets):
    """Teacher-forced mean cross-entropy of an attention LSTM decoder over ``hidden`` (T, d), as one node.

    Step ``i`` feeds ``[embed[tokens[i]], ctx]`` to an LSTM step of width d
    (pre-activation ``[emb, ctx] @ W + h @ U + b``), attends over the frames
    with ``softmax(hidden @ h)`` for the next ``ctx``, and scores
    ``[h, ctx] @ out_w + out_b`` against ``targets[i]``; h, c and ctx start at
    zero. The context feeds the next step's input (Luong et al., EMNLP 2015).
    Before any work, the weights ``{prefix}.<name>`` are checked against
    ``decoder_layout(V, E, d)``, (V, E) the shape of ``embed``, and the label
    ids must be integers in ``[0, V)``, one target per token. The backward
    pass is hand-written BPTT and skips operands that need no grad.
    """
    hidden = _frames(hidden, "attention_decoder")
    t, d = hidden.shape
    v, e = _dims(params, f"{prefix}.embed", "attention_decoder", ("V", "E"))
    operands = _operands(params, prefix, "attention_decoder", decoder_layout(v, e, d))
    embed, W, U, b, out_w, out_b = operands
    tokens, targets = _label_ids(tokens, v, "attention_decoder"), _label_ids(targets, v, "attention_decoder")
    n = len(tokens)
    if n < 1 or len(targets) != n:
        raise ValueError(f"attention_decoder needs one target per token, at least one: {n} tokens, {len(targets)} targets")
    H, Ud, We, Wc, bd = hidden.data, U.data, W.data[:e], W.data[e:], b.data
    xe = embed.data[tokens] @ We  # the embedding's share of every step's pre-activation
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
            _accum(b, dpre.sum(axis=0))

    return _node(data, (hidden, *operands), backward, "attention_decoder")


# CTC's blank label id
BLANK = 0


def min_frames_for(labels) -> int:
    """Shortest input that still admits a CTC alignment."""
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def _ctc_forward(lp, ext):
    """CTC log forward variables (T, S) of the blank-extended labels ``ext`` with emissions ``lp`` (T, S).

    Two ``-inf`` states pad the state axis in front, so "move" (s-1 -> s) and
    "skip" (s-2 -> s, into a label unlike the one two states back) are plain
    slices of the previous row.
    """
    t_len, s_len = lp.shape
    skip_ok = np.zeros(s_len, dtype=bool)
    skip_ok[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    alpha = np.full((t_len, s_len + 2), -np.inf)
    alpha[0, 2:4] = lp[0, :2]
    for t in range(1, t_len):
        prev = alpha[t - 1]
        skip = np.where(skip_ok, prev[:-2], -np.inf)
        alpha[t, 2:] = np.logaddexp(np.logaddexp(prev[2:], prev[1:-1]), skip) + lp[t]
    return alpha[:, 2:]


def ctc_loss(logits, labels):
    """CTC loss of ``logits`` (T, V) for ``labels``: the negative log total alignment probability, as one node.

    The value is the log-space forward algorithm; the backward rule uses
    alpha-beta state occupancies, giving the classic softmax-minus-occupancy
    gradient on the logits. Beta is not a second recursion: the same forward
    recursion runs on the time- and state-reversed emissions and labels, and
    flipped back it gives beta plus each frame's own emission
    log-probability, which the occupancy subtracts. A label id that is not an
    integer in ``[1, V)`` (``BLANK`` is 0), or labels that no alignment of T
    frames can carry, are rejected before any work is done.
    """
    logits = _frames(logits, "ctc_loss")
    t_len, v = logits.shape
    labels = _label_ids(labels, v, "ctc_loss")
    if BLANK in labels:
        raise ValueError("labels must not contain the blank id")
    if t_len < min_frames_for(labels):
        raise ValueError(
            f"no valid alignment: {t_len} frames cannot carry {len(labels)} labels "
            f"(need at least {min_frames_for(labels)})"
        )

    ext = np.full(2 * len(labels) + 1, BLANK)  # the labels with a blank before, between and after them
    ext[1::2] = labels
    logp = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    lp = logp[:, ext]
    alpha = _ctc_forward(lp, ext)
    log_z = np.logaddexp.reduce(alpha[-1, -2:])  # end in the last label or the final blank
    if not np.isfinite(log_z):
        raise ValueError("no valid alignment has nonzero probability")

    def backward(g):
        rev = _ctc_forward(lp[::-1, ::-1], ext[::-1])[::-1, ::-1]  # beta + lp
        occupancy = np.exp(alpha + rev - lp - log_z)  # (T, S)
        gamma = np.zeros_like(logp)
        np.add.at(gamma.T, ext, occupancy.T)
        _accum(logits, g * (np.exp(logp) - gamma))

    return _node(-log_z, (logits,), backward, "ctc_loss")


# ---------------------------------------------------------------------------
# optimization


# Elements per in-place Adam update: the five 256 KiB slices one chunk touches
# (parameter, grad, the two moments and one scratch buffer) stay in a core's L2 cache.
ADAM_CHUNK = 1 << 15
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction (Kingma & Ba, 2015); frozen parameters are never touched.

    ``params`` maps names to :class:`Parameter` objects; any other entry is
    rejected, named. ``step`` updates every parameter, and its moments, in
    place in chunks of ``ADAM_CHUNK`` elements through one preallocated
    scratch buffer, so no full-size temporary is made. It works through the
    flat view of ``.data``, so a parameter whose data is not C-contiguous
    (possible only if it was reassigned) is rejected, named.

    The moments are stored without their ``(1-b)`` factors, ``M = m/(1-b1)``
    and ``V = v/(1-b2)`` of the textbook ``m`` and ``v``, with ``ADAM_BETA1``,
    ``ADAM_BETA2`` and ``ADAM_EPS`` for b1, b2 and eps. The bias corrections
    fold into two per-step scalars, ``s = lr*(1-b1)/((1-b1^t)*c)`` and
    ``eps' = eps/c`` with ``c = sqrt((1-b2)/(1-b2^t))``, so each element
    makes ``M = b1*M + g``, ``V = b2*V + g*g``,
    ``p -= M/(sqrt(V) + eps') * s``, in that order: ten passes over a chunk,
    one sqrt and one divide. This is the textbook update
    ``p -= lr*(m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)`` rearranged, equal to
    it up to rounding.

    A new optimizer holds no moments. A parameter's ``M`` and ``V`` are made
    at the first step at which it has a grad, as ``g`` and ``g*g``, which is
    what the update makes of zero moments; ``t`` counts every step, so the
    bias correction is that of the step. The ``M`` of the parameters that
    get their first grad at one step are views of one new buffer, and so
    are their ``V``: at the first step of a model's training, one
    allocation per moment, backed by huge pages as the model's weights are
    (:func:`init_params`).
    """

    def __init__(self, params, lr):
        if not (isinstance(lr, numbers.Real) and 0 < lr < math.inf):
            raise ValueError(f"Adam learning rate is {lr!r}; it must be a finite positive number")
        self.params = _parameters(params, "Adam")
        self.lr = lr
        self.t = 0
        self._m, self._v = {}, {}
        self._scratch = np.empty(ADAM_CHUNK)

    def step(self):
        live = {n: p for n, p in self.params.items() if p.requires_grad and p.grad is not None}
        for n, p in live.items():
            if p.grad.shape != p.shape:
                raise ValueError(f"Adam: grad of parameter {n!r} has shape {p.grad.shape}, its data {p.shape}")
            if not p.data.flags.c_contiguous:
                raise ValueError(f"Adam: data of parameter {n!r} is not C-contiguous, so it cannot be updated in place")
        self.t += 1
        c = math.sqrt((1.0 - ADAM_BETA2) / (1.0 - ADAM_BETA2**self.t))
        scale = self.lr * (1.0 - ADAM_BETA1) / ((1.0 - ADAM_BETA1**self.t) * c)
        eps = ADAM_EPS / c
        new = {n: p.shape for n, p in live.items() if n not in self._m}
        self._m |= _views(new)[1]
        self._v |= _views(new)[1]
        for n, p in live.items():
            fresh = n in new
            data, grad = p.data.reshape(-1), p.grad.reshape(-1)
            m, v = self._m[n].reshape(-1), self._v[n].reshape(-1)
            for lo in range(0, data.size, ADAM_CHUNK):
                hi = min(lo + ADAM_CHUNK, data.size)
                self._update(data[lo:hi], grad[lo:hi], m[lo:hi], v[lo:hi], self._scratch[: hi - lo], scale, eps, fresh)

    @staticmethod
    def _update(p, g, m, v, s, scale, eps, fresh):
        """One Adam update of ``p`` and its moments ``m`` and ``v`` in place; ``s`` is scratch of the same shape.

        ``fresh`` moments are unset and are written as the update makes them of
        zeros, ``g`` and ``g*g``, without being read: updating zero-filled
        arrays fresh from the OS would fault each of their pages in twice, to
        read and then to write.
        """
        if fresh:
            np.copyto(m, g)
            np.multiply(g, g, out=v)
        else:
            m *= ADAM_BETA1
            m += g
            v *= ADAM_BETA2
            np.multiply(g, g, out=s)
            v += s
        np.sqrt(v, out=s)
        s += eps
        np.divide(m, s, out=s)
        s *= scale
        p -= s

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params, meta):
    """Write `MAGIC\\n<json header>\\n<float64 LE payload>` to ``path``, every entry of ``params`` a :class:`Parameter`.

    The file is written beside ``path`` under a ``.tmp`` suffix and then
    replaces it, so a save that fails (say on a ``meta`` that is not JSON)
    leaves the checkpoint already at ``path`` as it was. A ``meta`` field that
    JSON cannot hold raises a ValueError naming the path and the field,
    before any file is opened.
    """
    params = _parameters(params, "save_checkpoint")
    for field, value in meta.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError) as e:  # a type JSON has no form for, or a value that holds itself
            raise ValueError(f"{path}: checkpoint meta field {field!r} is not JSON: {e}") from None
    header = {"meta": meta, "tensors": [{"name": n, "shape": list(p.shape)} for n, p in params.items()]}
    head = f"{CKPT_MAGIC}\n{json.dumps(header, sort_keys=True, ensure_ascii=False)}\n".encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(head)
            for p in params.values():
                f.write(np.ascontiguousarray(p.data, dtype="<f8"))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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


def _check_tensors(path, entries, shapes):
    """Raise a ValueError unless the header's tensor ``entries`` are the table ``shapes``, name for name, in order."""
    for entry in entries:
        name, shape = entry["name"], tuple(entry["shape"])
        if name not in shapes:
            raise ValueError(f"{path}: checkpoint tensor {name!r} is not a parameter of the model")
        if shape != shapes[name]:
            raise ValueError(f"{path}: checkpoint tensor {name!r} has shape {shape}, the model expects {shapes[name]}")
    names = [entry["name"] for entry in entries]
    for at, want in enumerate(shapes):
        if want not in names:
            raise ValueError(f"{path}: checkpoint lacks tensor {want!r}")
        if names[at] != want:
            raise ValueError(f"{path}: checkpoint tensor {names[at]!r} is at position {at}, where the model has {want!r}")


def check_sizes(cfg, names):
    """Raise a ``ValueError`` naming the first field in ``names`` of the config ``cfg`` that is not a positive int."""
    for name in names:
        value = getattr(cfg, name)
        if type(value) is not int or value < 1:
            raise ValueError(f"{type(cfg).__name__}.{name} is {value!r}; it must be a positive int")


def load_model(path, kind, model_cls, config_cls):
    """The ``model_cls`` checkpointed at ``path``: its ``cfg``, and ``params`` laid out as ``init_params`` lays them.

    The meta's ``kind`` must be ``kind`` and its ``config`` keyword arguments of
    ``config_cls``, the header's tensors ``model_cls.layouts(cfg)`` in table
    order, and the payload their bytes; otherwise, before any payload byte is
    read, a ValueError names the path and the field. No weight is drawn.
    """
    magic = f"{CKPT_MAGIC}\n".encode("utf-8")
    with open(path, "rb") as f:
        head = f.read(len(magic))
        if head != magic:
            found = head.partition(b"\n")[0].decode("utf-8", "replace")
            raise ValueError(f"{path}: bad checkpoint magic {found!r}, expected {CKPT_MAGIC!r}")
        header = _checked_header(path, f.readline())
        meta = header["meta"]
        if meta.get("kind") != kind:
            raise ValueError(f"{path}: not an {kind.upper()} checkpoint (kind={meta.get('kind')!r})")
        if "config" not in meta:
            raise ValueError(f"{path}: checkpoint meta lacks the 'config' field")
        if not isinstance(meta["config"], dict):
            raise ValueError(f"{path}: checkpoint meta field 'config' is {meta['config']!r}; it must be a JSON object")
        try:
            cfg = config_cls(**meta["config"])
        except (TypeError, ValueError) as e:  # the message names the unknown, missing or rejected field
            raise ValueError(f"{path}: checkpoint meta field 'config' is invalid: {e}") from None
        shapes = _table(model_cls.layouts(cfg))
        _check_tensors(path, header["tensors"], shapes)
        held, need = os.fstat(f.fileno()).st_size - f.tell(), 8 * sum(math.prod(s) for s in shapes.values())
        if held != need:
            raise ValueError(f"{path}: payload holds {held} bytes, its header's tensors take {need}")
        buffer, views = _views(shapes)
        if f.readinto(buffer) != need:
            raise ValueError(f"{path}: payload ended before {need} bytes were read")
    model = object.__new__(model_cls)
    # each view as the payload's little-endian type, which a little-endian host's float64 is: no copy
    model.cfg, model.params = cfg, {name: Parameter(view.view("<f8")) for name, view in views.items()}
    return model
