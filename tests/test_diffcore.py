import dataclasses
import inspect
import json
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.special import softmax as softmax_reference

import bpcse.diffcore as dc
from gradcheck_ops import (
    attention,
    attention_decoder_by_steps,
    attention_sublayer_by_ops,
    blstm_layer_by_cells,
    concat,
    conv1d_by_windows,
    cross_entropy,
    feed_forward_sublayer_by_ops,
    gradcheck,
    graph_nodes,
    init_params_by_weights,
    lstm_cell,
    relu,
    sigmoid,
    softmax,
    take,
    tanh,
    transpose,
    tsum,
)
from memory import packed, traced


def t(arr, grad=True):
    """A trainable leaf (a Parameter), or with ``grad=False`` a constant."""
    return dc.Parameter(arr) if grad else dc.Tensor(arr)


def rand(rng, *shape):
    return t(rng.uniform(-1.5, 1.5, shape))


def linear(x, W, b):
    """``dc.linear`` of loose tensors, given to it as the weights ``l.w`` and ``l.b``."""
    return dc.linear(x, {"l.w": W, "l.b": b}, "l")


def conv1d_relu(x, w, b):
    """``dc.conv1d_relu`` of loose tensors, given to it as the weights ``c.w`` and ``c.b``."""
    return dc.conv1d_relu(x, {"c.w": w, "c.b": b}, "c")


def conv1d_then_relu(x, w, b):
    """The two-node graph ``conv1d_relu`` replaces."""
    return relu(conv1d_by_windows(x, w, b))


class TestPrimitiveGradients:
    """Central finite differences against every primitive's backward rule."""

    def check(self, f, tensors, tol=1e-4):
        assert gradcheck(f, tensors) < tol

    def test_add(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 3, 4), rand(rng, 3, 4)
        self.check(lambda: tsum(dc.add(a, b) * dc.add(a, b)), [a, b])

    def test_add_broadcast(self):
        rng = np.random.default_rng(1)
        a, b = rand(rng, 3, 4), rand(rng, 1, 4)
        self.check(lambda: tsum(dc.add(a, b) * dc.add(a, b)), [a, b])

    def test_matmul(self):
        rng = np.random.default_rng(3)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        self.check(lambda: tsum(dc.matmul(a, b) * dc.matmul(a, b)), [a, b])

    @pytest.mark.parametrize("op", [relu, sigmoid, tanh, dc.softplus, dc.expm1])
    def test_unary(self, op):
        rng = np.random.default_rng(4)
        x = rand(rng, 3, 5)
        self.check(lambda: tsum(op(x) * op(x)), [x])

    @pytest.mark.parametrize("op", [dc.log])
    def test_log_like(self, op):
        rng = np.random.default_rng(5)
        x = t(rng.uniform(0.2, 3.0, (3, 5)))
        self.check(lambda: tsum(op(x) * op(x)), [x])

    def test_softmax(self):
        rng = np.random.default_rng(6)
        x = rand(rng, 4, 6)
        w = t(rng.uniform(-1, 1, (4, 6)), grad=False)
        self.check(lambda: tsum(softmax(x) * w), [x])

    def test_layer_norm(self):
        rng = np.random.default_rng(7)
        x, g, b = rand(rng, 3, 8), rand(rng, 8), rand(rng, 8)
        params = {"ln.g": g, "ln.b": b}
        self.check(lambda: tsum(dc.layer_norm(x, params, "ln") * dc.layer_norm(x, params, "ln")), [x, g, b])

    def test_concat(self):
        rng = np.random.default_rng(9)
        a, b = rand(rng, 2, 3), rand(rng, 4, 3)
        self.check(lambda: tsum(concat([a, b], axis=0) * concat([a, b], axis=0)), [a, b])

    def test_slice(self):
        rng = np.random.default_rng(10)
        x = rand(rng, 5, 6)
        self.check(lambda: tsum(take(x, np.s_[1:4, 2:]) * take(x, np.s_[1:4, 2:])), [x])

    def test_slice_integer_rows(self):
        rng = np.random.default_rng(11)
        x = rand(rng, 5, 3)
        idx = np.array([0, 2, 2, 4])
        self.check(lambda: tsum(take(x, idx) * take(x, idx)), [x])

    def test_reshape_transpose(self):
        rng = np.random.default_rng(12)
        x = rand(rng, 4, 6)
        w = t(rng.uniform(-1, 1, (6, 4)), grad=False)
        self.check(lambda: tsum(transpose(x) * w), [x])

    def test_mean_sum_axis(self):
        rng = np.random.default_rng(13)
        x = rand(rng, 3, 5)
        self.check(lambda: tsum(tsum(x, axis=1) * (tsum(x, axis=1) * 0.2)), [x])  # row sum times row mean

    def test_conv1d(self):
        rng = np.random.default_rng(14)
        x, w, b = rand(rng, 6, 3), rand(rng, 4, 3, 3), rand(rng, 4)
        self.check(lambda: tsum(conv1d_relu(x, w, b) * conv1d_relu(x, w, b)), [x, w, b])

    def test_l1_loss(self):
        rng = np.random.default_rng(16)
        a, b = rand(rng, 4, 4), rand(rng, 4, 4)
        self.check(lambda: dc.l1_loss(a, b), [a, b])

    def test_cross_entropy(self):
        rng = np.random.default_rng(17)
        x = rand(rng, 5, 4)
        targets = np.array([0, 3, 1, 2, 2])
        self.check(lambda: cross_entropy(x, targets), [x])


def backward_keeping_interior_grads(root):
    """``Tensor.backward`` as it was before it freed interior grads: the same
    iterative topological sort and the same accumulation order, but every
    node keeps the grad it was handed."""
    topo, visited, stack = [], set(), [(root, False)]
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
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestContracts:
    def test_tensor_is_a_constant_and_parameter_the_trainable_leaf(self):
        assert list(inspect.signature(dc.Tensor).parameters) == ["data", "_op"]
        assert list(inspect.signature(dc.Parameter).parameters) == ["data"]
        c, p = dc.Tensor([[1.0, 2.0]]), dc.Parameter([[3.0, 4.0]])
        assert (c.requires_grad, c._parents, c._backward, c._op) == (False, (), None, "leaf")
        assert (p.requires_grad, p._parents, p._backward, p._op) == (True, (), None, "leaf")
        constant = dc.mul(c, c)  # no parent requires a grad, so _node records nothing
        assert (constant.requires_grad, constant._parents, constant._backward, constant._op) == (False, (), None, "mul")
        node = dc.mul(c, p)
        assert node.requires_grad and [id(q) for q in node._parents] == [id(c), id(p)] and callable(node._backward)
        tsum(node).backward()
        assert c.grad is None and np.array_equal(p.grad, c.data)

    def test_backward_frees_interior_grads_and_leaf_grads_are_unchanged(self):
        rng = np.random.default_rng(21)
        arrays = [rng.normal(size=s) for s in [(6, 3), (3, 4), (4,), (2, 4, 3), (2,), (1, 4)]]

        def build():
            x, w, b, k, kb, g = leaves = [t(a) for a in arrays]
            h = tanh(linear(x, w, b))  # shared by three consumers below
            mixed = concat([softmax(h * g), conv1d_relu(h, k, kb)], axis=1)
            return dc.add(tsum(mixed * mixed), tsum(take(relu(h), np.s_[1:4]))), leaves

        want_root, want_leaves = build()
        backward_keeping_interior_grads(want_root)
        root, leaves = build()
        interior = [n for n in graph_nodes(root) if n._backward is not None]
        root.backward()
        assert len(interior) > 5 and all(n.grad is None and n._parents == () for n in interior)
        for got, want in zip(leaves, want_leaves):
            assert np.array_equal(got.grad, want.grad)

    def test_backward_releases_activations_the_caller_does_not_hold(self):
        rng = np.random.default_rng(22)
        x, w, b, g = leaves = [t(rng.normal(size=s)) for s in [(5, 3), (3, 4), (4,), (5, 4)]]
        loss = dc.l1_loss(softmax(tanh(linear(x, w, b)) * g), np.zeros((5, 4)))
        activations = [weakref.ref(n.data) for n in graph_nodes(loss) if n._backward is not None and n is not loss]
        value = loss.item()
        loss.backward()
        assert len(activations) == 4 and all(ref() is None for ref in activations)
        assert loss.item() == value and loss._parents == ()
        assert all(leaf.grad is not None and leaf._parents == () and leaf._backward is None for leaf in leaves)

    def test_second_backward_raises_naming_the_op(self):
        x = t(np.array([[2.0, -1.0]]))
        y = tsum(dc.mul(x, 3.0))
        y.backward()
        first = x.grad.copy()
        with pytest.raises(dc.GraphError, match="'sum' node of a graph that backward\\(\\) already consumed"):
            y.backward()
        assert np.array_equal(x.grad, first)

    def test_consumed_tensor_cannot_join_a_new_graph_or_backward(self):
        x = t(np.array([[0.5, -1.0]]))
        h = tanh(x)
        first, second = tsum(h * 2.0), tsum(h * 3.0)  # second is built before first consumes h
        first.backward()
        grad = x.grad.copy()
        with pytest.raises(dc.GraphError, match="backward\\(\\) through the 'tanh' node"):
            second.backward()
        with pytest.raises(dc.GraphError, match="op 'relu' on the 'tanh' node"):
            relu(h)
        assert np.array_equal(x.grad, grad)
        with dc.no_grad():  # reading a consumed node's data builds no graph
            assert np.array_equal(relu(h).data, np.maximum(np.tanh(x.data), 0.0))

    def test_backward_peak_memory_stays_near_the_activations(self):
        """A chain y = x * w1 * ... * wN: when backward() frees each product once it has passed its grad
        on, the grads of the w arrive as the products go, and the traced peak stays near N arrays
        instead of N products plus N grads."""
        n, size = 16, 1 << 16
        rng = np.random.default_rng(23)
        weights = [t(rng.uniform(0.9, 1.1, size)) for _ in range(n)]
        nbytes = 8 * size

        def chain_then_backward():
            y = t(np.ones(size), grad=False)
            for w in weights:
                y = y * w
            loss = tsum(y)
            del y
            loss.backward()

        _, peak, _ = traced(chain_then_backward)
        assert all(w.grad is not None for w in weights)
        assert peak < 1.5 * n * nbytes, f"peak {peak / nbytes:.1f} arrays for {n} products"

    def test_l1_identical_inputs_zero_loss_zero_grad(self):
        x = t(np.arange(6.0).reshape(2, 3))
        y = t(np.arange(6.0).reshape(2, 3))
        loss = dc.l1_loss(x, y)
        loss.backward()
        assert loss.item() == 0.0
        assert np.all(x.grad == 0)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(18)
        y = softmax(t(rng.normal(0, 5, (10, 7))))
        assert np.max(np.abs(y.data.sum(axis=1) - 1.0)) < 1e-12

    def test_fanout_accumulates_both_contributions(self):
        x = t(np.array([[2.0]]))
        y = dc.add(dc.mul(x, x), dc.mul(x, 3.0))  # x^2 + 3x, d/dx = 2x + 3 = 7
        tsum(y).backward()
        assert np.allclose(x.grad, 7.0)

    def test_shape_mismatch_names_both_shapes(self):
        a, b = t(np.zeros((2, 3))), t(np.zeros((4, 5)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            dc.add(a, b)
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            dc.matmul(a, b)
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            dc.l1_loss(a, b)

    def test_nonfinite_result_trips_graph_error(self):
        x = t(np.array([[1.0, 0.0]]))
        with pytest.warns(RuntimeWarning, match="divide by zero"), pytest.raises(dc.GraphError, match="log"):
            dc.log(x)

    def test_large_finite_values_are_not_flagged(self, recwarn):
        x = dc.Tensor(np.array([1e308, 1e308]))  # the sum overflows, the data does not
        assert np.all(x.data == 1e308)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_leaf_trips_graph_error(self, bad):
        with pytest.raises(dc.GraphError, match="non-finite"):
            dc.Tensor(np.array([1.0, bad, 2.0]))

    def test_deterministic_forward_backward(self):
        def run():
            rng = np.random.default_rng(123)
            x = t(rng.normal(size=(4, 5)))
            w = t(rng.normal(size=(5, 3)))
            out = tsum(tanh(dc.matmul(x, w)))
            out.backward()
            return out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()


def value_and_grads(run, arrays, requires, weights):
    """Value of sum(weights * run(x, W, b)) and the grads of x, W and b (None where not required)."""
    tensors = [t(a.copy(), grad=r) for a, r in zip(arrays, requires)]
    out = run(*tensors)
    tsum(out * weights).backward()
    return out.data, [x.grad for x in tensors]


def matmul_then_add(x, W, b):
    """The two-node graph ``linear`` replaces."""
    return dc.matmul(x, W) + b


class TestConv1d:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_same_padding_equals_loop_oracle(self, k):
        rng = np.random.default_rng(k)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(2, 3, k)), rng.normal(size=2)
        xp = np.pad(x, ((k // 2, k // 2), (0, 0)))
        want = np.array([[max(np.sum(xp[i : i + k].T * w[o]) + b[o], 0.0) for o in range(2)] for i in range(4)])
        got = conv1d_relu(t(x), t(w), t(b)).data
        assert got.shape == (4, 2) and np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_constant_input_gets_no_grad_and_weights_keep_theirs(self):
        rng = np.random.default_rng(8)
        x, w, b, g = rng.normal(size=(6, 3)), rng.normal(size=(2, 3, 3)), rng.normal(size=2), rng.normal(size=(6, 2))
        grads = []
        for x_needs_grad in (True, False):
            xt, wt, bt = t(x, grad=x_needs_grad), t(w), t(b)
            tsum(conv1d_relu(xt, wt, bt) * g).backward()
            assert (xt.grad is None) != x_needs_grad
            grads.append((wt.grad, bt.grad))
        assert all(np.array_equal(a, b) for a, b in zip(*grads))

    def test_even_kernel_and_empty_input_rejected(self):
        with pytest.raises(ValueError, match="kernel width 4 is even"):
            conv1d_relu(t(np.ones((5, 3))), t(np.ones((2, 3, 4))), t(np.ones(2)))
        with pytest.raises(ValueError, match="at least one frame"):
            conv1d_relu(t(np.ones((0, 3))), t(np.ones((2, 3, 3))), t(np.ones(2)))

    @given(
        t_len=st.integers(1, 9),
        cin=st.integers(1, 6),
        cout=st.integers(1, 6),
        k=st.sampled_from([1, 3, 5]),
        requires=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(t_len=1, cin=2, cout=3, k=5, requires=(True, True, True), seed=0)  # taps beyond both ends
    @example(t_len=2, cin=257, cout=4, k=3, requires=(False, True, False), seed=1)
    @settings(max_examples=60, deadline=None)
    def test_equals_sliding_window_oracle(self, t_len, cin, cout, k, requires, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(0, 2, shape) for shape in ((t_len, cin), (cout, cin, k), (cout,))]
        weights = rng.normal(size=(t_len, cout))
        got, got_grads = value_and_grads(conv1d_relu, arrays, requires, weights)
        want, want_grads = value_and_grads(conv1d_then_relu, arrays, requires, weights)
        assert rel_err(got, want) <= 1e-12
        for g, w, required in zip(got_grads, want_grads, requires):
            assert (g is None) == (w is None) == (not required)
            assert g is None or (g.shape == w.shape and rel_err(g, w) <= 1e-12)

    def test_no_grad_forward_allocates_less_than_a_window_copy(self):
        """At the SE stem's first layer (Cin = 257 bins to 256 channels), conv1d without a graph allocates
        its output, one tap's product and one tap's weights, not a (T, Cin * K) copy of the windows."""
        t_len, cin, cout, k = 625, 257, 256, 3
        rng = np.random.default_rng(9)
        x, w, b = rand(rng, t_len, cin), rand(rng, cout, cin, k), rand(rng, cout)
        with dc.no_grad():
            out, peak, _ = traced(lambda: conv1d_relu(x, w, b))
        window_copy = 8 * t_len * cin * k
        assert out.shape == (t_len, cout)
        assert peak < window_copy, f"peak {peak / window_copy:.2f} of the window copy"


class TestLinear:
    def test_linear_gradcheck(self):
        rng = np.random.default_rng(50)
        x, W, b = rand(rng, 4, 3), rand(rng, 3, 5), rand(rng, 5)
        w = t(rng.uniform(-1, 1, (4, 5)), grad=False)
        assert gradcheck(lambda: tsum(linear(x, W, b) * w), [x, W, b]) < 1e-4

    @given(
        t_len=st.integers(1, 7),
        n_in=st.integers(1, 5),
        n_out=st.integers(1, 5),
        requires=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_equals_matmul_then_add(self, t_len, n_in, n_out, requires, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(0, 2, shape) for shape in ((t_len, n_in), (n_in, n_out), (n_out,))]
        weights = rng.normal(size=(t_len, n_out))
        fused, fused_grads = value_and_grads(linear, arrays, requires, weights)
        oracle, oracle_grads = value_and_grads(matmul_then_add, arrays, requires, weights)
        assert np.array_equal(fused, oracle)
        for got, want, required in zip(fused_grads, oracle_grads, requires):
            assert (got is None) == (want is None) == (not required)
            assert got is None or np.array_equal(got, want)

    def test_linear_is_one_node(self):
        rng = np.random.default_rng(51)
        x, W, b = rand(rng, 4, 3), rand(rng, 3, 2), rand(rng, 2)
        out = linear(x, W, b)
        assert out.shape == (4, 2)
        assert out._op == "linear"
        assert [id(p) for p in out._parents] == [id(x), id(W), id(b)]


def layer_norm_by_whole_rows(x, gain, bias):
    """Layer norm with each row's squares made at once and its input grad as one expression, the bitwise oracle of
    ``_normalized``, ``_layer_norm_forward`` and ``_layer_norm_backward``: the output, xhat, inv and ``grad(g)``."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + dc.LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gain, out=out)
    out += bias

    def grad(g):
        dxhat = g * gain
        return inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))

    return out, xhat, inv, grad


class TestLayerNorm:
    @pytest.mark.parametrize("t_len", [1, 5, dc.ATTENTION_ROWS, 155, 218, 625, 2048])
    def test_bit_for_bit_the_whole_row_formulas(self, t_len):
        """Every row's variance is the same sum of squares whether the squares are made whole or in row blocks;
        the input grad is the same arithmetic made in place; the sublayers' ``xhat * g + b`` is the output."""
        rng = np.random.default_rng(t_len)
        for d in (1, 2, 3, 16, 64, 256, 257):
            x, g = rng.normal(0, 3, (t_len, d)), rng.normal(size=(t_len, d))
            gain, bias = dc.Parameter(rng.normal(size=d)), dc.Parameter(rng.normal(size=d))
            want_out, want_xhat, want_inv, want_grad = layer_norm_by_whole_rows(x, gain.data, bias.data)
            xhat, inv = dc._normalized(x)
            assert np.array_equal(xhat, want_xhat) and np.array_equal(inv, want_inv), d
            out = dc._layer_norm_forward(x, gain.data, bias.data)
            recomputed = xhat * gain.data
            recomputed += bias.data
            assert np.array_equal(out, want_out) and np.array_equal(recomputed, want_out), d
            assert np.array_equal(dc._layer_norm_backward(g, xhat, inv, gain, bias), want_grad(g)), d

    def test_forward_makes_one_array_and_backward_two(self):
        """The forward pass makes its output and one ATTENTION_ROWS-row block of squares; backward makes the
        input grad and one temporary. A twentieth of an array covers the row statistics and numpy's buffers."""
        t_len, d = 1000, 256
        rng = np.random.default_rng(52)
        x, g = rng.normal(size=(t_len, d)), rng.normal(size=(t_len, d))
        gain, bias = dc.Parameter(rng.normal(size=d)), dc.Parameter(rng.normal(size=d))
        array, squares = 8 * t_len * d, 8 * dc.ATTENTION_ROWS * d
        _, peak, _ = traced(lambda: dc._layer_norm_forward(x, gain.data, bias.data))
        assert peak <= array + squares + array // 20, f"forward peaked at {(peak - squares) / array:.2f} arrays"
        _, xhat, inv, _ = layer_norm_by_whole_rows(x, gain.data, bias.data)
        _, peak, _ = traced(lambda: dc._layer_norm_backward(g, xhat, inv, gain, bias))
        assert peak <= 2 * array + array // 20, f"backward peaked at {peak / array:.2f} arrays beyond g and xhat"

    def test_node_keeps_nothing_for_backward(self):
        rng = np.random.default_rng(53)
        params = dc.init_params(rng, {"ln": dc.layer_norm_layout(4)})
        x = rand(rng, 6, 4)
        out = dc.layer_norm(x, params, "ln")
        kept = [cell.cell_contents for cell in out._backward.__closure__]
        assert not [v for v in kept if isinstance(v, np.ndarray)], "the backward closure holds an array"
        assert {id(v) for v in kept if isinstance(v, dc.Tensor)} == {id(x), *(id(p) for p in params.values())}


def blstm_value_and_grads(run, xs, params, weights):
    """Value of sum(weights * run(xs, params, "l")) and the grads of xs and every weight."""
    tensors = [xs, *params.values()]
    for tensor in tensors:
        tensor.grad = None
    out = run(xs, params, "l")
    tsum(out * weights).backward()
    return out.data.copy(), [tensor.grad.copy() for tensor in tensors]


def rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


class TestSigmoid:
    """``_sigmoid``, the numpy sigmoid of the LSTM gates and the softplus grad, against scipy's ``expit``."""

    def test_close_to_expit_over_800(self):
        x = np.linspace(-800.0, 800.0, 400_001)
        # expit is the same formula over libm's exp; np.exp may differ from that by
        # one ulp, which can flip the rounding of 1 + exp(-x): two epsilons relative
        np.testing.assert_allclose(dc._sigmoid(x, np.empty_like(x)), expit(x), rtol=2 * np.finfo(float).eps, atol=0)

    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dc._sigmoid(np.array([-1000.0, 1000.0]), np.empty(2)).tolist() == [0.0, 1.0]


class TestGlorot:
    @pytest.mark.parametrize(
        "shape, bound", [((3, 7), np.sqrt(6.0 / (3 + 7))), ((5, 4, 3), np.sqrt(6.0 / (4 * 3 + 5 * 3)))], ids=["matrix", "conv"]
    )
    def test_draws_uniform_within_the_glorot_bound(self, shape, bound):
        p = dc.init_params(np.random.default_rng(7), {"m": {"w": shape}})["m.w"]
        assert isinstance(p, dc.Parameter) and p.requires_grad
        assert np.array_equal(p.data, np.random.default_rng(7).uniform(-bound, bound, shape))


class TestInitParams:
    def test_draws_the_matrices_in_table_order_gains_one_vectors_zero(self):
        layout = {"w": (3, 7), "ln.g": (7,), "b": (7,), "k": (5, 4, 3), "g": (2,), "bias": (4,)}
        params = dc.init_params(np.random.default_rng(7), {"m": layout})
        assert list(params) == [f"m.{name}" for name in layout]
        assert all(isinstance(p, dc.Parameter) and p.shape == layout[n[2:]] for n, p in params.items())
        rng = np.random.default_rng(7)
        for name, bound in (("w", np.sqrt(6.0 / (3 + 7))), ("k", np.sqrt(6.0 / (4 * 3 + 5 * 3)))):
            # only the rank >= 2 weights draw, in table order
            assert np.array_equal(params[f"m.{name}"].data, rng.uniform(-bound, bound, layout[name])), name
        assert all(params[f"m.{name}"].data.tolist() == [1.0] * layout[name][0] for name in ("ln.g", "g"))
        assert all(not params[f"m.{name}"].data.any() for name in ("b", "bias"))

    def test_every_prefix_is_made_from_one_buffer_in_table_order(self):
        layouts = {"a": dc.linear_layout(3, 7), "c": dc.conv1d_layout(4, 5, 3), "n": dc.layer_norm_layout(5)}
        params = dc.init_params(np.random.default_rng(8), layouts)
        assert list(params) == ["a.w", "a.b", "c.w", "c.b", "n.g", "n.b"]
        assert packed(p.data for p in params.values())
        want = init_params_by_weights(np.random.default_rng(8), layouts)
        assert all(p.data.tobytes() == want[n].tobytes() for n, p in params.items())


# every op that reads weights from ``params``: (prefix, layout, input shape, call of the op on input and params)
WEIGHT_READERS = {
    "linear": ("l", dc.linear_layout(3, 2), (4, 3), lambda x, p: dc.linear(x, p, "l")),
    "conv1d": ("c", dc.conv1d_layout(3, 2, 3), (4, 3), lambda x, p: dc.conv1d_relu(x, p, "c")),
    "layer_norm": ("n", dc.layer_norm_layout(3), (4, 3), lambda x, p: dc.layer_norm(x, p, "n")),
    "attention_sublayer": ("blk", dc.attention_layout(4), (3, 4), lambda x, p: dc.attention_sublayer(x, p, "blk", 2)),
    "feed_forward_sublayer": (
        "blk", dc.feed_forward_layout(4, 8), (3, 4), lambda x, p: dc.feed_forward_sublayer(x, p, "blk")
    ),
    "blstm_layer": ("l", dc.blstm_layout(3, 2), (4, 3), lambda x, p: dc.blstm_layer(x, p, "l")),
    "attention_decoder": (
        "dec", dc.decoder_layout(5, 2, 3), (4, 3), lambda x, p: dc.attention_decoder(x, p, "dec", [0, 2], [2, 1])
    ),
}


# every op that takes frames (T, d): the weight readers and ctc_loss, whose frames are its logits
FRAME_READERS = {**WEIGHT_READERS, "ctc_loss": ("", {}, (4, 5), lambda x, p: dc.ctc_loss(x, []))}
# the weight each op reads its free sizes from, and the names of its dims
SIZE_READS = {("linear", "w"): "(n, m)", ("conv1d", "w"): "(Cout, Cin, K)", ("feed_forward_sublayer", "ff.w1"): "(d, f)",
              ("blstm_layer", "fwd.U"): "(H, 4H)", ("attention_decoder", "embed"): "(V, E)"}
# per op, at the sizes of WEIGHT_READERS: (weight, a shape it must not have, the shape its error expects). The
# (2, 3) w of linear has m = 3 and x gives n = 3; (1, 8) is the row-vector LSTM bias of older checkpoints;
# (2, 6) holds the 4d = 12 values of the decoder's bias, but not as one row
OTHER_SHAPES = {
    "linear": [("w", (2, 3), "(3, 3)"), ("b", (1, 2), "(2,)"), ("b", (3,), "(2,)")],
    "conv1d": [("w", (2, 4, 3), "(2, 3, 3)"), ("b", (1,), "(2,)"), ("b", (1, 2), "(2,)"), ("b", (5,), "(2,)")],
    "layer_norm": [("g", (1,), "(3,)"), ("b", (4, 3), "(3,)")],
    "attention_sublayer": [("ln1.g", (1,), "(4,)"), ("bq", (1,), "(4,)"), ("wq", (4, 5), "(4, 4)"), ("wo", (4,), "(4, 4)")],
    "feed_forward_sublayer": [("ff.w1", (4,), "(d, f)"), ("ff.b1", (1,), "(8,)"), ("ff.w2", (8, 5), "(8, 4)"), ("ff.b2", (1,), "(4,)")],
    "blstm_layer": [("fwd.U", (8,), "(H, 4H)"), ("fwd.W", (4, 8), "(3, 8)"), ("bwd.U", (2, 4), "(2, 8)"), ("bwd.b", (1, 8), "(8,)")],
    "attention_decoder": [
        ("embed", (5,), "(V, E)"), ("lstm.W", (4, 12), "(5, 12)"), ("lstm.U", (3, 13), "(3, 12)"), ("lstm.b", (1, 12), "(12,)"),
        ("lstm.b", (2, 6), "(12,)"), ("out.w", (6, 4), "(6, 5)"), ("out.b", (6,), "(5,)"),
    ],
}
# (op, weight, shape, expected): every weight with an extra axis, then the other shapes
MISSHAPEN = [
    (op, name, (*shape, 1), SIZE_READS.get((op, name), str(shape)))
    for op, (_, layout, _, _) in WEIGHT_READERS.items() for name, shape in layout.items()
] + [(op, *case) for op, cases in OTHER_SHAPES.items() for case in cases]


class TestWeightReads:
    @pytest.mark.parametrize("op, name", [(op, name) for op, reader in WEIGHT_READERS.items() for name in reader[1]])
    def test_plain_array_weight_named(self, op, name):
        """A weight that is a bare ndarray is named with its op and its type."""
        prefix, layout, shape, call = WEIGHT_READERS[op]
        rng = np.random.default_rng(91)
        params, x = dc.init_params(rng, {prefix: layout}), rand(rng, *shape)
        assert call(x, params).data.size  # the weights as made are accepted
        params[f"{prefix}.{name}"] = params[f"{prefix}.{name}"].data
        problem = f"{op}: {prefix}.{name} is of type ndarray, not a diffcore Tensor"
        with pytest.raises(ValueError, match=re.escape(problem)):
            call(x, params)

    @pytest.mark.parametrize(
        "op, name, shape, expected", MISSHAPEN, ids=[f"{op}-{name}-{'x'.join(map(str, s))}" for op, name, s, _ in MISSHAPEN]
    )
    def test_operand_of_another_shape_named(self, op, name, shape, expected):
        prefix, layout, x_shape, call = WEIGHT_READERS[op]
        rng = np.random.default_rng(92)
        params, x = dc.init_params(rng, {prefix: layout}), rand(rng, *x_shape)
        params[f"{prefix}.{name}"] = dc.Parameter(np.ones(shape))
        with pytest.raises(ValueError, match=re.escape(f"{op}: {prefix}.{name} has shape {shape}, expected {expected}")):
            call(x, params)

    @pytest.mark.parametrize("op", FRAME_READERS)
    @pytest.mark.parametrize("form", ["vector", "rank3", "no_frames"])
    def test_input_that_is_not_frames_named(self, op, form):
        prefix, layout, (t_len, d), call = FRAME_READERS[op]
        shape = {"vector": (d,), "rank3": (t_len, d, 1), "no_frames": (0, d)}[form]
        params = dc.init_params(np.random.default_rng(93), {prefix: layout})
        problem = f"{op} input must be (T, d) with at least one frame, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(problem)):
            call(t(np.ones(shape)), params)


def blstm_params(rng, din, hidden):
    """Weights of a BLSTM layer ``l`` with biases off zero, so that their grads are exercised."""
    params = dc.init_params(rng, {"l": dc.blstm_layout(din, hidden)})
    for d in ("fwd", "bwd"):
        params[f"l.{d}.b"].data[:] = rng.uniform(-1, 1, params[f"l.{d}.b"].shape)
    return params


class TestLstm:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("t_len", [1, 4])
    def test_lstm_sequence_gradcheck(self, reverse, t_len):
        """One LSTM sequence of ``blstm_layer`` alone: the forward one, or the reversed (``bwd``) one.

        The loss weighs only that direction's output columns, so the input and that direction's
        weights are checked by the gradient through it alone; the other direction's grads are zero.
        """
        rng = np.random.default_rng(20 + t_len)
        params = blstm_params(rng, 3, 2)
        xs = rand(rng, t_len, 3)
        w = np.zeros((t_len, 4))
        cols = slice(2, 4) if reverse else slice(0, 2)
        w[:, cols] = rng.uniform(-1, 1, (t_len, 2))
        w = t(w, grad=False)
        used = "bwd" if reverse else "fwd"
        own = [v for k, v in params.items() if k.startswith(f"l.{used}.")]
        other = [v for k, v in params.items() if not k.startswith(f"l.{used}.")]
        f = lambda: tsum(dc.blstm_layer(xs, params, "l") * w)
        assert gradcheck(f, [xs, *own]) < 1e-4
        for p in other:
            assert p.grad is None or not np.any(p.grad)

    @given(
        t_len=st.integers(1, 7),
        din=st.integers(1, 5),
        hidden=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_blstm_layer_equals_cell_loops(self, t_len, din, hidden, seed):
        rng = np.random.default_rng(seed)
        params = blstm_params(rng, din, hidden)
        xs = rand(rng, t_len, din)
        weights = rng.normal(size=(t_len, 2 * hidden))
        fused = blstm_value_and_grads(dc.blstm_layer, xs, params, weights)
        oracle = blstm_value_and_grads(blstm_layer_by_cells, xs, params, weights)
        assert rel_err(fused[0], oracle[0]) <= 1e-12
        for got, want in zip(fused[1], oracle[1]):
            assert got.shape == want.shape
            assert rel_err(got, want) <= 1e-12

    def test_blstm_layer_is_one_node(self):
        rng = np.random.default_rng(21)
        out = dc.blstm_layer(rand(rng, 5, 3), blstm_params(rng, 3, 2), "l")
        assert out.shape == (5, 2 * 2)
        assert out._op == "blstm_layer"
        assert len(out._parents) == 7
        assert all(p._op == "leaf" for p in out._parents)
        buffer = out.data.base  # both directions' states, the zero states they start from in its end rows
        assert buffer.shape == (5 + 2, 2 * 2) and np.shares_memory(out.data, buffer)
        assert not buffer[[0, -1]].any()

    def test_zero_weights_zero_state(self):
        p = dc.init_params(np.random.default_rng(0), {"l": dc.blstm_layout(3, 4)})
        for v in p.values():
            v.data[:] = 0.0
        x = t(np.ones((1, 3)))
        h = dc.Tensor(np.zeros((1, 4)))
        c = dc.Tensor(np.zeros((1, 4)))
        h2, c2 = lstm_cell(x, h, c, p["l.fwd.W"], p["l.fwd.U"], p["l.fwd.b"])
        assert np.all(h2.data == 0)
        assert np.all(c2.data == 0)

    def test_blstm_length_one_is_concat_of_cells(self):
        rng = np.random.default_rng(1)
        params = dc.init_params(rng, {"l": dc.blstm_layout(3, 4)})
        x = t(rng.normal(size=(1, 3)))
        out = dc.blstm_layer(x, params, "l")
        zero = dc.Tensor(np.zeros((1, 4)))
        hf, _ = lstm_cell(x, zero, zero, params["l.fwd.W"], params["l.fwd.U"], params["l.fwd.b"])
        hb, _ = lstm_cell(x, zero, zero, params["l.bwd.W"], params["l.bwd.U"], params["l.bwd.b"])
        assert np.allclose(out.data, np.concatenate([hf.data, hb.data], axis=1))

    def test_blstm_gradcheck_three_frames(self):
        rng = np.random.default_rng(2)
        params = dc.init_params(rng, {"l": dc.blstm_layout(2, 3)})
        x = rand(rng, 3, 2)
        tensors = [x, *params.values()]
        assert gradcheck(lambda: tsum(dc.blstm_layer(x, params, "l") * 0.7), tensors) < 1e-4


def attention_by_heads(q, k, v, heads):
    """Op-by-op oracle for ``attention``: slice each head, softmax(q k^T / sqrt(dh)) v, concatenate."""
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = dc.matmul(take(q, np.s_[:, sl]), transpose(take(k, np.s_[:, sl]))) * (1.0 / np.sqrt(dh))
        outs.append(dc.matmul(softmax(scores), take(v, np.s_[:, sl])))
    return concat(outs, axis=1)


class TestAttention:
    """The multi-head ``attention`` oracle of ``attention_sublayer`` against its per-head graph."""

    @pytest.mark.parametrize("t_len, heads", [(1, 1), (4, 2), (3, 3)])
    def test_attention_gradcheck(self, t_len, heads):
        rng = np.random.default_rng(30 + t_len)
        q, k, v = (rand(rng, t_len, 2 * heads) for _ in range(3))
        w = t(rng.uniform(-1, 1, (t_len, 2 * heads)), grad=False)
        assert gradcheck(lambda: tsum(attention(q, k, v, heads) * w), [q, k, v]) < 1e-4

    @given(
        t_len=st.integers(1, 7),
        heads=st.integers(1, 3),
        d_head=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_attention_equals_per_head_graph(self, t_len, heads, d_head, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(0, 2, (t_len, heads * d_head)) for _ in range(3)]
        weights = rng.normal(size=(t_len, heads * d_head))
        results = []
        for run in (attention, attention_by_heads):
            qkv = [t(a.copy()) for a in arrays]
            out = run(*qkv, heads)
            tsum(out * weights).backward()
            results.append((out.data, [x.grad for x in qkv]))
        (fused, fused_grads), (oracle, oracle_grads) = results
        assert rel_err(fused, oracle) <= 1e-12
        for got, want in zip(fused_grads, oracle_grads):
            assert got.shape == want.shape
            assert rel_err(got, want) <= 1e-12

    def test_attention_is_one_node(self):
        rng = np.random.default_rng(31)
        q, k, v = (rand(rng, 5, 4) for _ in range(3))
        out = attention(q, k, v, 2)
        assert out.shape == (5, 4)
        assert out._op == "attention"
        assert [id(p) for p in out._parents] == [id(q), id(k), id(v)]

    def test_attention_rejects_bad_shapes(self):
        rng = np.random.default_rng(32)
        q = rand(rng, 5, 6)
        with pytest.raises(ValueError, match="6 is not divisible into 4 heads"):
            attention(q, q, q, 4)
        with pytest.raises(ValueError, match=r"\(5, 6\), \(5, 6\), \(4, 6\)"):
            attention(q, q, rand(rng, 4, 6), 2)
        with pytest.raises(ValueError, match=r"\(5, 6\), \(5, 3\), \(5, 6\)"):
            attention(q, rand(rng, 5, 3), q, 3)

    def test_only_required_inputs_get_grads(self):
        rng = np.random.default_rng(33)
        q, k = rand(rng, 3, 4), rand(rng, 3, 4)
        v = t(rng.normal(size=(3, 4)), grad=False)
        tsum(attention(q, k, v, 2)).backward()
        assert q.grad is not None and k.grad is not None and v.grad is None


ATTENTION_NAMES = ("ln1.g", "ln1.b", "wq", "bq", "wk", "wv", "bv", "wo", "bo")
FEED_FORWARD_NAMES = ("ln2.g", "ln2.b", "ff.w1", "ff.b1", "ff.w2", "ff.b2")


def block_params(rng, d, requires_grad=True):
    """Random weights of one pre-norm block of width d, named as ``SeModel`` names block ``blk``."""
    params = {}
    for name, shape in (dc.attention_layout(d) | dc.feed_forward_layout(d, 4 * d)).items():
        params[f"blk.{name}"] = p = dc.Parameter(rng.normal(0, 0.7, shape))
        p.requires_grad = requires_grad
    return params


def sublayer_runs(heads):
    """(fused, oracle, weight names) for each sublayer, each run called as ``run(h, params)``."""
    return [
        (
            lambda h, p: dc.attention_sublayer(h, p, "blk", heads),
            lambda h, p: attention_sublayer_by_ops(h, p, "blk", heads),
            ATTENTION_NAMES,
        ),
        (
            lambda h, p: dc.feed_forward_sublayer(h, p, "blk"),
            lambda h, p: feed_forward_sublayer_by_ops(h, p, "blk"),
            FEED_FORWARD_NAMES,
        ),
    ]


class TestTransformerSublayers:
    """The two fused halves of a pre-norm block against the op-by-op graphs they replace."""

    def test_attention_sublayer_gradcheck(self, monkeypatch):
        monkeypatch.setattr(dc, "ATTENTION_ROWS", 2)  # blocks of 2, 2 and 1 query rows
        rng = np.random.default_rng(80)
        params, h, w = block_params(rng, 4), rand(rng, 5, 4), t(rng.uniform(-1, 1, (5, 4)), grad=False)
        tensors = [h, *(params[f"blk.{n}"] for n in ATTENTION_NAMES)]
        assert gradcheck(lambda: tsum(dc.attention_sublayer(h, params, "blk", 2) * w), tensors) < 1e-4

    def test_feed_forward_sublayer_gradcheck(self, monkeypatch):
        monkeypatch.setattr(dc, "FEED_FORWARD_ROWS", 2)  # blocks of 2, 2 and 1 rows
        rng = np.random.default_rng(81)
        params, h, w = block_params(rng, 3), rand(rng, 5, 3), t(rng.uniform(-1, 1, (5, 3)), grad=False)
        tensors = [h, *(params[f"blk.{n}"] for n in FEED_FORWARD_NAMES)]
        assert gradcheck(lambda: tsum(dc.feed_forward_sublayer(h, params, "blk") * w), tensors) < 1e-4

    @given(
        t_len=st.integers(1, 3 * dc.ATTENTION_ROWS).filter(lambda n: n % dc.ATTENTION_ROWS),
        heads=st.integers(1, 3),
        d_head=st.integers(1, 3),
        trainable=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(t_len=dc.ATTENTION_ROWS - 1, heads=2, d_head=2, trainable=True, seed=0)
    @example(t_len=dc.ATTENTION_ROWS + 1, heads=2, d_head=2, trainable=True, seed=0)
    @example(t_len=2, heads=1, d_head=2, trainable=True, seed=0)  # wq's grad cancels to about 1e-14
    @settings(max_examples=30, deadline=None)
    def test_equal_to_op_by_op_graph(self, t_len, heads, d_head, trainable, seed):
        """Outputs within 1e-12 relative, and every grad within 1e-12 of the largest |grad| of the sublayer's
        operands: at width 2 every normalized row is nearly +-(1, -1), so the q, k and v rows nearly coincide
        and a grad such as wq's can cancel far below the others, where the two graphs round it differently."""
        rng = np.random.default_rng(seed)
        d = heads * d_head
        params = block_params(rng, d, trainable)
        h0, weights = rng.normal(0, 2, (t_len, d)), rng.normal(size=(t_len, d))
        for fused, oracle, names in sublayer_runs(heads):
            results = []
            for run in (fused, oracle):
                for p in params.values():
                    p.grad = None
                h = t(h0.copy())
                with pytest.MonkeyPatch.context() as patch:  # a monkeypatch fixture would outlive one example
                    patch.setattr(dc, "FEED_FORWARD_ROWS", 2)  # feed-forward blocks of 2 rows, the last short at odd T
                    out = run(h, params)
                tsum(out * weights).backward()
                results.append((out.data, h.grad, [params[f"blk.{n}"].grad for n in names]))
            (got, got_dh, got_grads), (want, want_dh, want_grads) = results
            assert rel_err(got, want) <= 1e-12
            scale = max(np.max(np.abs(w)) for w in (want_dh, *want_grads) if w is not None)
            assert np.max(np.abs(got_dh - want_dh)) <= 1e-12 * scale
            for name, g, w in zip(names, got_grads, want_grads):
                assert (g is None) == (not trainable), name
                if trainable:
                    assert g.shape == w.shape and np.max(np.abs(g - w)) <= 1e-12 * scale, name

    def test_each_is_one_node(self):
        rng = np.random.default_rng(82)
        params = block_params(rng, 4)
        h = rand(rng, 3, 4)
        for op, (run, _, names) in zip(("attention_sublayer", "feed_forward_sublayer"), sublayer_runs(2)):
            out = run(h, params)
            assert out.shape == (3, 4) and out._op == op
            assert [id(p) for p in out._parents] == [id(h), *(id(params[f"blk.{n}"]) for n in names)]

    def test_no_grad_attention_holds_four_arrays_and_one_score_block(self):
        """Without a graph the attention output overwrites q and the output projection k, so the op
        allocates LN1's output, q, k and v, and one block of scores, never a fifth (T, d) array."""
        t_len, d, heads = 3 * dc.ATTENTION_ROWS + 5, 64, 4
        rng = np.random.default_rng(87)
        params, h = block_params(rng, d), rand(rng, t_len, d)
        with dc.no_grad():
            out, peak, _ = traced(lambda: dc.attention_sublayer(h, params, "blk", heads))
        array, scores = 8 * t_len * d, 8 * heads * dc.ATTENTION_ROWS * t_len
        assert out.shape == (t_len, d)
        # a quarter array covers the row statistics, the softmax row maxima and sums, and the Python objects
        assert peak <= 4 * array + scores + array // 4, f"peak {(peak - scores) / array:.2f} arrays and a score block"

    def test_no_grad_feed_forward_holds_one_hidden_block(self):
        """Without a graph the feed-forward works FEED_FORWARD_ROWS rows at a time and writes its output over
        LN2's, so the op allocates LN2's output, one (FEED_FORWARD_ROWS, 4d) hidden block and a quarter
        array, never a (T, 4d) hidden layer."""
        t_len, d = 3 * dc.FEED_FORWARD_ROWS + 5, 64
        rng = np.random.default_rng(88)
        params, h = block_params(rng, d), rand(rng, t_len, d)
        with dc.no_grad():
            out, peak, _ = traced(lambda: dc.feed_forward_sublayer(h, params, "blk"))
        array, block = 8 * t_len * d, 8 * dc.FEED_FORWARD_ROWS * 4 * d
        assert out.shape == (t_len, d)
        # a quarter array covers the row statistics, numpy's reduction buffers and the Python objects
        assert peak <= array + block + array // 4, f"peak {(peak - block) / array:.2f} arrays and a hidden block"

    @pytest.mark.parametrize("keep", [True, False], ids=["graph", "no_grad"])
    def test_softmax_of_scores_spread_over_700_is_finite_and_exact(self, keep):
        """Each score row spans +-700 and has one dominant key; the unnormalized exponentials of the
        row block neither overflow nor lose the output, which matches a reference softmax."""
        heads, rows, t_len = 2, 5, 9
        rng = np.random.default_rng(89)
        scores = rng.uniform(-700, 650, (heads, rows, t_len))
        scores[:, np.arange(rows), rng.integers(0, t_len, rows)] = 700.0
        # with identity keys the scores are the queries themselves
        kh, vh = np.broadcast_to(np.eye(t_len), (heads, t_len, t_len)), rng.normal(size=(heads, t_len, 3))
        weights, out = np.empty((heads, rows, t_len)), np.empty((heads, rows, 3))
        dc._attention_rows(scores.copy(), kh, vh, weights, out, keep)
        want = softmax_reference(scores, axis=-1)
        assert np.isfinite(out).all() and rel_err(out, want @ vh) <= 1e-12
        if keep:
            assert rel_err(weights, want) <= 1e-12

    def test_graph_weights_at_head_width_64_equal_post_scaled_softmax(self):
        """At dh = 64 the scale 1/8 is a power of two, so scaling q before the product gives the same
        weights, bit for bit, as scaling the scores after it."""
        heads, rows, t_len, dh = 2, 7, 11, 64
        rng = np.random.default_rng(90)
        qh, kh, vh = (rng.normal(0, 2, (heads, n, dh)) for n in (rows, t_len, t_len))
        want = np.matmul(qh, kh.transpose(0, 2, 1)) * (1.0 / np.sqrt(dh))
        want -= want.max(axis=-1, keepdims=True)
        np.exp(want, out=want)
        want /= want.sum(axis=-1, keepdims=True)
        weights, out = np.empty((heads, rows, t_len)), np.empty((heads, rows, dh))
        dc._attention_rows(qh * (1.0 / np.sqrt(dh)), kh, vh, weights, out, True)
        assert np.array_equal(weights, want)

    def test_heads_not_dividing_width_named(self):
        rng = np.random.default_rng(83)
        params = block_params(rng, 6)
        with pytest.raises(ValueError, match="6 is not divisible into 4 heads"):
            dc.attention_sublayer(rand(rng, 3, 6), params, "blk", 4)


DECODER_OPERANDS = ("hidden", "embed", "W", "U", "b", "out_w", "out_b")
DECODER_WEIGHTS = ("embed", "lstm.W", "lstm.U", "lstm.b", "out.w", "out.b")


def decoder_arrays(rng, t_len, d, e, v):
    """Random ``attention_decoder`` operands in ``DECODER_OPERANDS`` order."""
    shapes = [(t_len, d), (v, e), (e + d, 4 * d), (d, 4 * d), (4 * d,), (2 * d, v), (v,)]
    return [rng.normal(0, 0.8, shape) for shape in shapes]


def attention_decoder(hidden, embed, W, U, b, out_w, out_b, tokens, targets):
    """``dc.attention_decoder`` called as its oracle is, the weights given to it as ``dec.<name>``."""
    params = dict(zip((f"dec.{name}" for name in DECODER_WEIGHTS), (embed, W, U, b, out_w, out_b)))
    return dc.attention_decoder(hidden, params, "dec", tokens, targets)


def decoder_value_and_grads(run, arrays, requires, tokens, targets):
    tensors = [t(a.copy(), grad=r) for a, r in zip(arrays, requires)]
    loss = run(*tensors, tokens, targets)
    loss.backward()
    return loss.data, [x.grad for x in tensors]


class TestAttentionDecoder:
    @pytest.mark.parametrize("bad", [3.9, 2.0, np.float32(1.5)])
    @pytest.mark.parametrize("where", ["tokens", "targets"])
    def test_non_integer_label_id_named(self, bad, where):
        rng = np.random.default_rng(75)
        tensors = [t(a) for a in decoder_arrays(rng, 4, 3, 2, 5)]
        ids = {"tokens": [0, 2], "targets": [2, 1]}
        ids[where][1] = bad
        with pytest.raises(ValueError, match=rf"label id {re.escape(repr(bad))} is not an integer"):
            attention_decoder(*tensors, ids["tokens"], ids["targets"])

    def test_numpy_integer_label_ids_accepted(self):
        tensors = [t(a) for a in decoder_arrays(np.random.default_rng(76), 4, 3, 2, 5)]
        want = attention_decoder(*tensors, [0, 2], [2, 1]).item()
        assert attention_decoder(*tensors, np.array([0, 2]), [np.int16(2), np.uint64(1)]).item() == want

    def test_attention_decoder_gradcheck(self):
        rng = np.random.default_rng(70)
        tensors = [t(a) for a in decoder_arrays(rng, 5, 3, 2, 6)]
        tokens, targets = [1, 4, 3, 4], [4, 3, 4, 2]
        worst = gradcheck(lambda: attention_decoder(*tensors, tokens, targets), tensors)
        assert worst < 1e-4

    @given(
        t_len=st.integers(1, 12),
        n_labels=st.integers(1, 8),
        d=st.integers(1, 5),
        e=st.integers(1, 4),
        v=st.integers(3, 7),
        trainable=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_attention_decoder_equals_step_graph(self, t_len, n_labels, d, e, v, trainable, seed):
        rng = np.random.default_rng(seed)
        arrays = decoder_arrays(rng, t_len, d, e, v)
        tokens, targets = (list(rng.integers(0, v, n_labels)) for _ in range(2))
        requires = [True] + [trainable] * 6
        fused, fused_grads = decoder_value_and_grads(attention_decoder, arrays, requires, tokens, targets)
        oracle, oracle_grads = decoder_value_and_grads(attention_decoder_by_steps, arrays, requires, tokens, targets)
        assert rel_err(fused, oracle) <= 1e-12
        for name, got, want, required in zip(DECODER_OPERANDS, fused_grads, oracle_grads, requires):
            assert (got is None) == (not required), name
            if required:
                assert got.shape == want.shape and rel_err(got, want) <= 1e-12, name

    def test_attention_decoder_is_one_node(self):
        rng = np.random.default_rng(71)
        tensors = [t(a) for a in decoder_arrays(rng, 4, 3, 2, 5)]
        loss = attention_decoder(*tensors, [0, 3], [3, 1])
        assert loss.shape == () and loss._op == "attention_decoder"
        assert [id(p) for p in loss._parents] == [id(x) for x in tensors]

    def test_frozen_decoder_passes_grad_to_hidden_only(self):
        rng = np.random.default_rng(72)
        arrays = decoder_arrays(rng, 6, 3, 2, 5)
        grads = {}
        for trainable in (True, False):
            requires = [True] + [trainable] * 6
            grads[trainable] = decoder_value_and_grads(attention_decoder, arrays, requires, [0, 3, 4], [3, 4, 1])[1]
        assert all(g is None for g in grads[False][1:])
        assert np.array_equal(grads[True][0], grads[False][0])

    @pytest.mark.parametrize("tokens, targets", [([0, 1], [1]), ([0], [1, 2]), ([], [])])
    def test_one_target_per_token_named(self, tokens, targets):
        tensors = [t(a) for a in decoder_arrays(np.random.default_rng(73), 4, 3, 2, 5)]
        counts = f"{len(tokens)} tokens, {len(targets)} targets"
        with pytest.raises(ValueError, match=rf"attention_decoder needs one target per token, at least one: {counts}"):
            attention_decoder(*tensors, tokens, targets)

    @pytest.mark.parametrize("bad", [-1, 5, 99])
    @pytest.mark.parametrize("where", ["tokens", "targets"])
    def test_label_id_outside_vocab_named(self, bad, where):
        rng = np.random.default_rng(74)
        tensors = [t(a) for a in decoder_arrays(rng, 4, 3, 2, 5)]
        ids = {"tokens": [0, 2], "targets": [2, 1]}
        ids[where][1] = bad
        with pytest.raises(ValueError, match=rf"label id {bad} outside vocab of size 5"):
            attention_decoder(*tensors, ids["tokens"], ids["targets"])


def grad_recorded():
    """Whether ops currently build a graph, seen from the outside."""
    return dc.mul(t(np.ones(1)), 2.0).requires_grad


class TestNoGrad:
    def test_ops_record_nothing(self):
        rng = np.random.default_rng(40)
        x = rand(rng, 4, 3)
        p = blstm_params(rng, 3, 2)
        p.update(block_params(rng, 3))
        with dc.no_grad():
            outs = [
                tanh(dc.matmul(x, x.data.T)),
                linear(x, dc.Tensor(x.data.T), dc.Tensor(x.data[:, 0])),
                dc.attention_sublayer(x, p, "blk", 3),
                dc.feed_forward_sublayer(x, p, "blk"),
                dc.blstm_layer(x, p, "l"),
            ]
        for out in outs:
            assert not out.requires_grad
            assert out._parents == ()
            assert out._backward is None
        assert outs[2]._op == "attention_sublayer"

    def test_same_values_as_with_graph(self):
        # the graph keeps every block of attention weights and of the feed-forward's hidden layer,
        # no_grad reuses one block's buffer of each
        rng = np.random.default_rng(41)
        params = block_params(rng, 6)
        for t_len in (5, 2 * dc.ATTENTION_ROWS + 7, dc.FEED_FORWARD_ROWS + 7):
            x = rand(rng, t_len, 6)

            def block():
                return dc.feed_forward_sublayer(dc.attention_sublayer(x, params, "blk", 2), params, "blk").data

            want = block()
            with dc.no_grad():
                got = block()
            assert np.array_equal(got, want)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_nonfinite_output_still_trips_graph_error(self):
        with dc.no_grad(), pytest.raises(dc.GraphError, match="log"):
            dc.log(t(np.array([0.0, 1.0])))

    def test_mode_restored_after_nesting_and_exception(self):
        assert grad_recorded()
        with dc.no_grad():
            with dc.no_grad():
                assert not grad_recorded()
            assert not grad_recorded()
        assert grad_recorded()
        with pytest.raises(RuntimeError, match="inside"):
            with dc.no_grad():
                raise RuntimeError("inside")
        assert grad_recorded()


class TestFrozenParameters:
    def test_frozen_weights_get_no_grad_and_inputs_keep_theirs(self):
        rng = np.random.default_rng(42)
        xs, w = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        input_grads = []
        for frozen in (False, True):
            p = blstm_params(np.random.default_rng(43), 3, 1)
            proj = dc.Parameter(np.random.default_rng(44).normal(size=(2, 2)))
            for q in [*p.values(), proj]:
                q.requires_grad = not frozen
            x = t(xs)
            out = dc.matmul(dc.blstm_layer(x, p, "l"), proj)
            tsum(out * w).backward()
            assert all((q.grad is None) == frozen for q in [*p.values(), proj])
            input_grads.append(x.grad)
        assert np.array_equal(input_grads[0], input_grads[1])

    # (op, the constant's shape) at T, D = 4096, 8: add's broadcast constant would take a (T, 1) reduction
    CONSTANT_OPERANDS = [("add", (4096, 1)), ("mul", (4096, 8)), ("l1_loss", (4096, 8))]

    @pytest.mark.parametrize("op, shape", CONSTANT_OPERANDS, ids=[op for op, _ in CONSTANT_OPERANDS])
    def test_constant_operand_gets_no_grad_computed(self, op, shape):
        """The backward allocates only the parameter's grad, bit for bit the one it gets beside a second parameter.

        The constant is the second operand, whose grad, if made, would be made while the first's is held.
        """
        rng = np.random.default_rng(57)
        x, c = rng.normal(size=(4096, 8)), rng.normal(size=shape)
        peaks, grads = [], []
        for other in (dc.Tensor(c), dc.Parameter(c)):
            p = dc.Parameter(x)
            out = getattr(dc, op)(p, other)
            g = np.random.default_rng(58).normal(size=out.shape)
            peaks.append(traced(lambda: out._backward(g))[1])
            grads.append(p.grad)
        own = 0 if op == "add" else x.nbytes  # add passes its output grad on to the parameter as it is
        assert peaks[0] <= own + 4096 < peaks[1], f"backward peaked at {peaks[0]} bytes, the parameter's grad takes {own}"
        assert grads[0].tobytes() == grads[1].tobytes()


class AdamByArrays:
    """Oracle for ``Adam``: its arithmetic on whole arrays, each term a full-size temporary.

    The moments are kept without their (1 - beta) factors, and the bias
    corrections are folded into a step size and epsilon, as ``Adam`` does.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self._m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self._v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self):
        self.t += 1
        c = math.sqrt((1.0 - self.beta2) / (1.0 - self.beta2**self.t))
        scale = self.lr * (1.0 - self.beta1) / ((1.0 - self.beta1**self.t) * c)
        eps = self.eps / c
        for n, p in self.params.items():
            if not p.requires_grad or p.grad is None:
                continue
            m = self._m[n] = self.beta1 * self._m[n] + p.grad
            v = self._v[n] = self.beta2 * self._v[n] + p.grad * p.grad
            p.data -= m / (np.sqrt(v) + eps) * scale


class AdamTextbook(AdamByArrays):
    """The textbook Adam update (Kingma & Ba, 2015, Algorithm 1), with its moments m and v."""

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for n, p in self.params.items():
            if not p.requires_grad or p.grad is None:
                continue
            m = self._m[n] = self.beta1 * self._m[n] + (1 - self.beta1) * p.grad
            v = self._v[n] = self.beta2 * self._v[n] + (1 - self.beta2) * p.grad**2
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


ADAM_SHAPES = [
    (1,),
    (7, 3),
    (dc.ADAM_CHUNK - 1,),
    (dc.ADAM_CHUNK,),
    (dc.ADAM_CHUNK + 1,),
    (3, 20000),  # chunk boundaries fall inside rows
    (2 * dc.ADAM_CHUNK + 5,),
]


class TestAdam:
    @given(
        specs=st.lists(
            st.tuples(st.sampled_from(ADAM_SHAPES), st.sampled_from(["live", "sometimes", "frozen"])),
            min_size=1,
            max_size=4,
        ),
        steps=st.integers(1, 4),
        lr=st.sampled_from([1e-3, 0.1]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_equals_whole_array_oracle(self, specs, steps, lr, seed):
        rng = np.random.default_rng(seed)
        init = [rng.normal(size=shape) for shape, _ in specs]
        sides = []
        for cls in (dc.Adam, AdamByArrays):
            params = {f"p{i}": dc.Parameter(a.copy()) for i, a in enumerate(init)}
            for p, (_, kind) in zip(params.values(), specs):
                p.requires_grad = kind != "frozen"
            sides.append((params, cls(params, lr=lr)))
        stepped = set()  # parameters that have had a grad while not frozen
        for _ in range(steps):
            grads = [
                None if kind == "sometimes" and rng.random() < 0.5 else rng.normal(size=shape)
                for shape, kind in specs
            ]
            for params, opt in sides:
                for p, g in zip(params.values(), grads):
                    p.grad = g
                opt.step()
            stepped |= {n for n, g, (_, kind) in zip(sides[0][0], grads, specs) if g is not None and kind != "frozen"}
        (params, opt), (want_params, want) = sides
        assert opt.t == want.t == steps
        assert set(opt._m) == set(opt._v) == stepped
        for n, p in params.items():
            assert np.array_equal(p.data, want_params[n].data), n
        for n in stepped:
            assert np.array_equal(opt._m[n], want._m[n]), n
            assert np.array_equal(opt._v[n], want._v[n]), n
        for p, a, (_, kind) in zip(params.values(), init, specs):
            if kind == "frozen":
                assert np.array_equal(p.data, a)

    def test_moments_are_made_at_the_first_grad(self):
        rng = np.random.default_rng(61)
        params = {n: dc.Parameter(rng.normal(size=s)) for n, s in [("a", (3, 4)), ("b", (dc.ADAM_CHUNK + 3,))]}
        opt = dc.Adam(params, lr=0.1)
        assert opt._m == {} and opt._v == {}
        g = params["a"].grad = rng.normal(size=(3, 4))
        opt.step()
        assert set(opt._m) == set(opt._v) == {"a"}
        assert opt._m["a"].tobytes() == g.tobytes()  # stored without the (1 - beta) factors
        assert opt._v["a"].tobytes() == (g * g).tobytes()

    def test_parameter_first_stepped_late_equals_oracle(self):
        """A parameter whose first grad comes at step 2 starts from zero moments with step 2's bias correction."""
        rng = np.random.default_rng(62)
        init = {"live": rng.normal(size=(4, 5)), "late": rng.normal(size=(dc.ADAM_CHUNK + 7,))}
        grads = [
            {"live": rng.normal(size=(4, 5)), "late": None if step == 0 else rng.normal(size=init["late"].shape)}
            for step in range(3)
        ]
        sides = []
        for cls in (dc.Adam, AdamByArrays):
            params = {n: dc.Parameter(a.copy()) for n, a in init.items()}
            opt = cls(params, lr=0.01)
            for step_grads in grads:
                for n, p in params.items():
                    p.grad = step_grads[n]
                opt.step()
                if cls is dc.Adam and step_grads["late"] is None:
                    assert "late" not in opt._m
            sides.append((params, opt))
        (params, opt), (want_params, want) = sides
        for n, p in params.items():
            assert np.array_equal(p.data, want_params[n].data), n
            assert np.array_equal(opt._m[n], want._m[n]) and np.array_equal(opt._v[n], want._v[n]), n

    def test_moments_first_made_at_one_step_share_one_buffer_each(self):
        """The parameters first stepped together get their moments as views of one M and one V buffer."""
        rng = np.random.default_rng(65)
        shapes = {"a": (3, 4), "b": (dc.ADAM_CHUNK + 3,), "c": (5,), "late": (2, 7)}
        init = {n: rng.normal(size=shape) for n, shape in shapes.items()}
        sides = []
        for cls in (dc.Adam, AdamByArrays):
            params = {n: dc.Parameter(a.copy()) for n, a in init.items()}
            sides.append((params, cls(params, lr=0.05)))
        for step in range(3):
            grads = {n: None if n == "late" and step == 0 else rng.normal(size=shape) for n, shape in shapes.items()}
            for params, opt in sides:
                for n, p in params.items():
                    p.grad = grads[n]
                opt.step()
        (params, opt), (want_params, want) = sides
        for moments in (opt._m, opt._v):
            assert packed(moments[n] for n in ("a", "b", "c")) and packed([moments["late"]])
        for n, p in params.items():
            assert p.data.tobytes() == want_params[n].data.tobytes(), n
            assert opt._m[n].tobytes() == want._m[n].tobytes() and opt._v[n].tobytes() == want._v[n].tobytes(), n

    @pytest.mark.parametrize("view", [lambda a: a[:, ::2], lambda a: a.T], ids=["strided", "transposed"])
    def test_non_contiguous_parameter_updated_through_its_view(self, view):
        """A Parameter built from a view holds a C-contiguous copy of it, which Adam updates like the oracle."""
        rng = np.random.default_rng(60)
        base = rng.normal(size=(4, 6))
        p = dc.Parameter(view(base))
        assert p.data.flags.c_contiguous and np.array_equal(p.data, view(base))
        oracle_p = dc.Parameter(view(base))
        opt, oracle = dc.Adam({"w": p}, lr=0.1), AdamByArrays({"w": oracle_p}, lr=0.1)
        before = base.copy()
        for _ in range(3):
            p.grad = oracle_p.grad = rng.normal(size=p.shape)
            opt.step()
            oracle.step()
        assert np.array_equal(p.data, oracle_p.data) and not np.array_equal(p.data, view(before))
        assert np.array_equal(base, before)  # the view the parameter was built from is left alone

    @pytest.mark.parametrize("lr", [1e-3, 0.1])
    def test_tracks_the_textbook_update_over_25_steps(self, lr):
        """Folding the bias corrections into a step size and epsilon changes each update only by rounding.

        Each step may round p and its update differently, so after ``steps``
        steps an element may differ by a few ``steps * eps64 * (|p| + lr)``;
        seeds 0-29 at both rates read at most 1.1 of it. Grads span 1e-9 to
        1e2, so some elements are ruled by epsilon and some by sqrt(v).
        """
        rng = np.random.default_rng(63)
        shapes = [(7, 3), (3, 20000), (2 * dc.ADAM_CHUNK + 5,)]
        init = [rng.normal(size=shape) for shape in shapes]
        sides = []
        for cls in (dc.Adam, AdamTextbook):
            params = {f"p{i}": dc.Parameter(a.copy()) for i, a in enumerate(init)}
            sides.append((params, cls(params, lr=lr)))
        steps = 25
        for _ in range(steps):
            grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-9, 3) for shape in shapes]
            for params, opt in sides:
                for p, g in zip(params.values(), grads):
                    p.grad = g
                opt.step()
        (params, _), (want_params, _) = sides
        for n, p in params.items():
            want = want_params[n].data
            bound = 4 * steps * np.finfo(np.float64).eps * (np.abs(want) + lr)
            assert np.all(np.abs(p.data - want) <= bound), n

    @pytest.mark.parametrize(
        "entry, kind",
        [
            (lambda: dc.Tensor(np.ones((3, 2)).T), "Tensor"),
            (lambda: np.ones(3), "ndarray"),
        ],
        ids=["tensor", "ndarray"],
    )
    def test_entry_that_is_not_a_parameter_named(self, entry, kind):
        with pytest.raises(ValueError, match=rf"Adam: entry 'block0\.wq' is of type {kind}, not a diffcore Parameter"):
            dc.Adam({"ok": dc.Parameter(np.ones(2)), "block0.wq": entry()}, lr=0.1)

    def test_parameter_whose_data_is_not_c_contiguous_named(self):
        p = dc.Parameter(np.ones((3, 2)))
        opt = dc.Adam({"out.w": p}, lr=0.1)
        p.data = np.arange(6.0).reshape(3, 2).T
        p.grad = np.ones((2, 3))
        before = p.data.copy()
        with pytest.raises(ValueError, match=r"Adam: data of parameter 'out\.w' is not C-contiguous"):
            opt.step()
        assert np.array_equal(p.data, before) and opt.t == 0 and opt._m == {}

    def test_steady_step_allocates_at_most_one_chunk(self):
        """Each parameter is updated through the optimizer's own scratch, so a step makes no full-size temporary."""
        rng = np.random.default_rng(64)
        p = dc.Parameter(rng.normal(size=(4 * dc.ADAM_CHUNK + 9,)))
        opt = dc.Adam({"w": p}, lr=0.1)
        p.grad = rng.normal(size=p.shape)
        opt.step()  # makes the moments
        _, peak, held = traced(opt.step)
        assert held <= 4096 and peak <= 8 * dc.ADAM_CHUNK, f"a step peaked at {peak} bytes"

    def test_grad_of_another_shape_names_the_parameter(self):
        p = dc.Parameter(np.ones(3))
        opt = dc.Adam({"block0.bq": p}, lr=0.1)
        p.grad = np.ones(1)  # broadcasts against (3,), so only the shape check catches it
        with pytest.raises(ValueError, match=r"'block0\.bq' has shape \(1,\), its data \(3,\)"):
            opt.step()
        assert np.all(p.data == 1.0) and opt.t == 0

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.1, 0.0, "0.1", None])
    def test_learning_rate_not_finite_positive_named(self, lr):
        with pytest.raises(ValueError, match=re.escape(f"Adam learning rate is {lr!r}; it must be a finite positive")):
            dc.Adam({"w": dc.Parameter(np.ones(2))}, lr=lr)

    def test_zero_grad_leaves_parameter(self):
        p = dc.Parameter(np.ones(3))
        opt = dc.Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(3)
        opt.step()
        assert np.all(p.data == 1.0)

    def test_frozen_parameter_untouched(self):
        p = dc.Parameter(np.ones(3))
        p.requires_grad = False
        opt = dc.Adam({"p": p}, lr=0.1)
        p.grad = np.ones(3)
        opt.step()
        assert np.all(p.data == 1.0)

    def test_single_step_hand_calculation(self):
        # one step with constant grad g: theta' = theta - lr * g / (|g| + eps)
        g = 0.3
        p = dc.Parameter(np.array([2.0]))
        opt = dc.Adam({"p": p}, lr=0.01)
        p.grad = np.array([g])
        opt.step()
        expected = 2.0 - 0.01 * g / (abs(g) + 1e-8)
        assert abs(p.data[0] - expected) < 1e-12


@dataclasses.dataclass
class OneConfig:
    shape: list


class OneTensor:
    """The smallest model ``dc.load_model`` reads: one weight, ``m.w``, of the shape its config gives."""

    def __init__(self, cfg, seed=0):
        self.cfg = cfg
        self.params = dc.init_params(np.random.default_rng(seed), self.layouts(cfg))

    @staticmethod
    def layouts(cfg):
        return {"m": {"w": tuple(cfg.shape)}}

    def save(self, path, **meta):
        dc.save_checkpoint(path, self.params, {"kind": "one", "config": dataclasses.asdict(self.cfg), **meta})

    @classmethod
    def load(cls, path):
        return dc.load_model(path, "one", cls, OneConfig)


def one_header(shape, name="m.w"):
    """The header of a ``OneTensor`` checkpoint whose one tensor is ``name`` of ``shape``."""
    return {"meta": {"kind": "one", "config": {"shape": shape}}, "tensors": [{"name": name, "shape": shape}]}


MiB = 2**20


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = OneTensor(OneConfig([3, 4]), seed=3)
        path = tmp_path / "model.ckpt"
        model.save(path, seed=7)
        header = json.loads(path.read_bytes().split(b"\n")[1])
        assert header["meta"] == {"kind": "one", "config": {"shape": [3, 4]}, "seed": 7}
        back = OneTensor.load(path)
        assert type(back) is OneTensor and back.cfg == model.cfg and list(back.params) == ["m.w"]
        p = back.params["m.w"]
        assert isinstance(p, dc.Parameter) and p.requires_grad and np.array_equal(p.data, model.params["m.w"].data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOT-A-CKPT\n{}\n")
        with pytest.raises(ValueError, match=r"junk\.ckpt: bad checkpoint magic 'NOT-A-CKPT', expected 'BPCSE-CKPT-1'"):
            OneTensor.load(path)

    def test_bad_magic_read_is_bounded(self, tmp_path):
        """A large file with no newline is rejected on its first bytes, not read whole."""
        path = tmp_path / "zeros.ckpt"
        with open(path, "wb") as f:
            f.truncate(64 * MiB)

        def load():
            with pytest.raises(ValueError, match=r"zeros\.ckpt: bad checkpoint magic"):
                OneTensor.load(path)

        _, peak, _ = traced(load)
        assert peak < MiB

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        OneTensor(OneConfig([2, 2])).save(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match=r"model\.ckpt: payload holds 33 bytes, its header's tensors take 32"):
            OneTensor.load(path)

    @pytest.mark.parametrize(
        "header, problem",
        [
            ({"meta": {"kind": "two", "config": {"shape": [2048, 4096]}}, "tensors": []}, "not an ONE checkpoint"),
            ({"meta": {"kind": "one", "config": {"shape": [2048, 4096], "n": 2}}, "tensors": []}, "'config' is invalid"),
            ({"meta": {"kind": "one", "config": {"shape": [2048, 4096]}}, "tensors": []}, "lacks tensor 'm.w'"),
            (one_header([2048, 4096], name="w"), "tensor 'w' is not a parameter of the model"),
            ({**one_header([2048, 4096]), "meta": {"kind": "one", "config": {"shape": [4096, 2048]}}},
             r"'m.w' has shape \(2048, 4096\), the model expects \(4096, 2048\)"),
            (one_header([2048, 4096 + 1]), "payload holds 67108864 bytes, its header's tensors take 67125248"),
        ],
        ids=["kind", "config", "missing", "extra", "shape", "size"],
    )
    def test_rejected_checkpoint_reads_no_payload(self, tmp_path, header, problem):
        """Every check runs before the payload is read: a rejected 64 MiB payload is neither allocated nor read."""
        path = self.write_header(tmp_path, header)
        with open(path, "r+b") as f:
            f.truncate(f.seek(0, 2) + 64 * MiB)

        def load():
            with pytest.raises(ValueError, match=rf"hand\.ckpt: .*{problem}"):
                OneTensor.load(path)

        _, peak, _ = traced(load)
        assert peak < MiB

    def write_header(self, tmp_path, header, payload=b""):
        """A checkpoint file with a hand-written header: a JSON-able object or raw bytes."""
        raw = header if isinstance(header, bytes) else json.dumps(header).encode()
        path = tmp_path / "hand.ckpt"
        path.write_bytes(dc.CKPT_MAGIC.encode() + b"\n" + raw + b"\n" + payload)
        return path

    @pytest.mark.parametrize("field", ["tensors", "meta"])
    def test_header_without_field_rejected(self, tmp_path, field):
        header = one_header([1])
        del header[field]
        path = self.write_header(tmp_path, header, b"\0" * 8)
        with pytest.raises(ValueError, match=rf"hand\.ckpt.*lacks the '{field}' field"):
            OneTensor.load(path)

    @pytest.mark.parametrize(
        "header, problem",
        [
            (b"{not json", "not UTF-8 JSON"),
            (b"[]", "not a JSON object"),
            (b'{"meta": {}, "tensors": [{}]}', "no string 'name'"),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, header, problem):
        path = self.write_header(tmp_path, header)
        with pytest.raises(ValueError, match=rf"hand\.ckpt.*{problem}"):
            OneTensor.load(path)

    @pytest.mark.parametrize("shape", [[-1, 2], [2.5], ["2"], [True]])
    def test_bad_dimension_rejected(self, tmp_path, shape):
        path = self.write_header(tmp_path, one_header(shape, name="w"), b"\0" * 64)
        with pytest.raises(ValueError, match=r"hand\.ckpt.*'shape' of tensor 'w'.*non-negative integer"):
            OneTensor.load(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        header = one_header([1])
        header["tensors"] *= 2
        path = self.write_header(tmp_path, header, b"\0" * 16)
        with pytest.raises(ValueError, match=r"hand\.ckpt.*'m\.w' appears twice in the header field 'tensors'"):
            OneTensor.load(path)

    @pytest.mark.parametrize(
        "entry, kind", [(lambda: dc.Tensor(np.ones(3)), "Tensor"), (lambda: np.ones(3), "ndarray")],
        ids=["tensor", "ndarray"],
    )
    def test_entry_that_is_not_a_parameter_named(self, tmp_path, entry, kind):
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match=rf"save_checkpoint: entry 'w' is of type {kind}, not a diffcore Parameter"):
            dc.save_checkpoint(path, {"ok": dc.Parameter(np.ones(2)), "w": entry()}, {"seed": 1})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failure", ["meta", "payload"])
    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path, failure):
        path = tmp_path / "model.ckpt"
        model = OneTensor(OneConfig([4]))
        model.params["m.w"].data[:] = np.arange(4.0)
        model.save(path, seed=1)
        good = path.read_bytes()
        w, meta = dc.Parameter(np.ones(3)), {"seed": 2}
        if failure == "meta":
            meta["seed"] = np.int64(2)  # not JSON
        else:
            w.data = np.array(["x"])  # fails once the header is written
        named = rf"{re.escape(str(path))}: checkpoint meta field 'seed' is not JSON: .*int64" if failure == "meta" else None
        with pytest.raises(ValueError, match=named):
            dc.save_checkpoint(path, {"a": dc.Parameter(np.ones(2)), "w": w}, meta)
        assert path.read_bytes() == good
        assert np.array_equal(OneTensor.load(path).params["m.w"].data, np.arange(4.0))
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "shape, payload, held, declared",
        [([2**32, 2**32], b"\0" * 16, 16, 8 * 2**64), ([2, 2], b"\0" * 24, 24, 32), ([], b"", 0, 8)],
        ids=["huge", "short", "short_scalar"],
    )
    def test_payload_size_checked_against_the_header(self, tmp_path, shape, payload, held, declared):
        path = self.write_header(tmp_path, one_header(shape), payload)
        with pytest.raises(ValueError, match=rf"hand\.ckpt: payload holds {held} bytes, its header's tensors take {declared}$"):
            OneTensor.load(path)

    def test_scalar_and_empty_tensors_load(self, tmp_path):
        scalar = OneTensor.load(self.write_header(tmp_path, one_header([]), np.array(2.5, "<f8").tobytes()))
        assert scalar.params["m.w"].shape == () and scalar.params["m.w"].data == 2.5
        assert OneTensor.load(self.write_header(tmp_path, one_header([0, 3]))).params["m.w"].shape == (0, 3)

    def test_byte_identical_for_same_content(self, tmp_path):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(4, 2))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dc.save_checkpoint(p1, {"w": dc.Parameter(data)}, {"seed": 1})
        dc.save_checkpoint(p2, {"w": dc.Parameter(data.copy())}, {"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()


UNARY = {"tanh": tanh, "sigmoid": sigmoid, "softplus": dc.softplus, "relu": relu, "softmax": softmax}


@st.composite
def composed_graph(draw):
    """A random small op pipeline over two input tensors."""
    seed = draw(st.integers(0, 2**31 - 1))
    ops = draw(st.lists(st.sampled_from(["tanh", "sigmoid", "softplus", "relu", "mul", "add", "matmul", "softmax"]), min_size=1, max_size=5))
    return seed, ops


class TestRandomGraphProperty:
    @given(composed_graph())
    @settings(max_examples=25, deadline=None)
    def test_random_composition_passes_gradcheck(self, case):
        seed, ops = case
        rng = np.random.default_rng(seed)
        x = rand(rng, 3, 3)
        y = rand(rng, 3, 3)
        tensors = [x, y]

        def f():
            cur = x
            for op in ops:
                if op == "mul":
                    cur = dc.mul(cur, y)
                elif op == "add":
                    cur = dc.add(cur, y)
                elif op == "matmul":
                    cur = dc.matmul(cur, y)
                else:
                    cur = UNARY[op](cur)
            return tsum(cur * cur)

        assert gradcheck(f, tensors) < 1e-4
