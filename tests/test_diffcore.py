import json
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import bpcse.diffcore as dc
from gradcheck_ops import (
    attention,
    attention_decoder_by_steps,
    attention_sublayer_by_ops,
    conv1d_by_windows,
    cross_entropy,
    feed_forward_sublayer_by_ops,
    graph_nodes,
    lstm_cell,
    sigmoid,
    softmax,
    take,
    tanh,
    transpose,
    tsum,
)
from memory import traced


def t(arr, grad=True):
    return dc.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def rand(rng, *shape):
    return t(rng.uniform(-1.5, 1.5, shape))


class TestPrimitiveGradients:
    """Central finite differences against every primitive's backward rule."""

    def check(self, f, tensors, tol=1e-4):
        assert dc.gradcheck(f, tensors) < tol

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

    @pytest.mark.parametrize("op", [dc.relu, sigmoid, tanh, dc.softplus, dc.expm1])
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
        self.check(lambda: tsum(dc.layer_norm(x, g, b) * dc.layer_norm(x, g, b)), [x, g, b])

    def test_concat(self):
        rng = np.random.default_rng(9)
        a, b = rand(rng, 2, 3), rand(rng, 4, 3)
        self.check(lambda: tsum(dc.concat([a, b], axis=0) * dc.concat([a, b], axis=0)), [a, b])

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
        self.check(lambda: tsum(dc.conv1d(x, w, b) * dc.conv1d(x, w, b)), [x, w, b])

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
    def test_backward_frees_interior_grads_and_leaf_grads_are_unchanged(self):
        rng = np.random.default_rng(21)
        arrays = [rng.normal(size=s) for s in [(6, 3), (3, 4), (4,), (2, 4, 3), (2,), (1, 4)]]

        def build():
            x, w, b, k, kb, g = leaves = [t(a) for a in arrays]
            h = tanh(dc.linear(x, w, b))  # shared by three consumers below
            mixed = dc.concat([softmax(h * g), dc.conv1d(h, k, kb)], axis=1)
            return dc.add(tsum(mixed * mixed), tsum(take(dc.relu(h), np.s_[1:4]))), leaves

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
        loss = dc.l1_loss(softmax(tanh(dc.linear(x, w, b)) * g), np.zeros((5, 4)))
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
            dc.relu(h)
        assert np.array_equal(x.grad, grad)
        with dc.no_grad():  # reading a consumed node's data builds no graph
            assert np.array_equal(dc.relu(h).data, np.maximum(np.tanh(x.data), 0.0))

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
        want = np.array([[np.sum(xp[i : i + k].T * w[o]) + b[o] for o in range(2)] for i in range(4)])
        got = dc.conv1d(t(x), t(w), t(b)).data
        assert got.shape == (4, 2) and np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_constant_input_gets_no_grad_and_weights_keep_theirs(self):
        rng = np.random.default_rng(8)
        x, w, b, g = rng.normal(size=(6, 3)), rng.normal(size=(2, 3, 3)), rng.normal(size=2), rng.normal(size=(6, 2))
        grads = []
        for x_needs_grad in (True, False):
            xt, wt, bt = t(x, grad=x_needs_grad), t(w), t(b)
            tsum(dc.conv1d(xt, wt, bt) * g).backward()
            assert (xt.grad is None) != x_needs_grad
            grads.append((wt.grad, bt.grad))
        assert all(np.array_equal(a, b) for a, b in zip(*grads))

    def test_even_kernel_and_empty_input_rejected(self):
        with pytest.raises(ValueError, match="kernel width 4 is even"):
            dc.conv1d(t(np.ones((5, 3))), t(np.ones((2, 3, 4))), t(np.ones(2)))
        with pytest.raises(ValueError, match="at least one frame"):
            dc.conv1d(t(np.ones((0, 3))), t(np.ones((2, 3, 3))), t(np.ones(2)))

    @pytest.mark.parametrize(
        "x_shape, w_shape, b_shape",
        [((4, 3), (2, 3, 3), (1,)), ((4, 3), (2, 3, 3), (1, 2)), ((4, 3), (2, 3, 3), (5,)), ((4, 3), (2, 4, 3), (2,))],
    )
    def test_operand_of_another_shape_named(self, x_shape, w_shape, b_shape):
        problem = f"conv1d shape mismatch: x {x_shape}, w {w_shape}, b {b_shape}"
        with pytest.raises(ValueError, match=re.escape(problem)):
            dc.conv1d(t(np.ones(x_shape)), t(np.ones(w_shape)), t(np.ones(b_shape)))

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
        got, got_grads = value_and_grads(dc.conv1d, arrays, requires, weights)
        want, want_grads = value_and_grads(conv1d_by_windows, arrays, requires, weights)
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
            out, peak, _ = traced(lambda: dc.conv1d(x, w, b))
        window_copy = 8 * t_len * cin * k
        assert out.shape == (t_len, cout)
        assert peak < window_copy, f"peak {peak / window_copy:.2f} of the window copy"


class TestLinear:
    def test_linear_gradcheck(self):
        rng = np.random.default_rng(50)
        x, W, b = rand(rng, 4, 3), rand(rng, 3, 5), rand(rng, 5)
        w = t(rng.uniform(-1, 1, (4, 5)), grad=False)
        assert dc.gradcheck(lambda: tsum(dc.linear(x, W, b) * w), [x, W, b]) < 1e-4

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
        fused, fused_grads = value_and_grads(dc.linear, arrays, requires, weights)
        oracle, oracle_grads = value_and_grads(matmul_then_add, arrays, requires, weights)
        assert np.array_equal(fused, oracle)
        for got, want, required in zip(fused_grads, oracle_grads, requires):
            assert (got is None) == (want is None) == (not required)
            assert got is None or np.array_equal(got, want)

    def test_linear_is_one_node(self):
        rng = np.random.default_rng(51)
        x, W, b = rand(rng, 4, 3), rand(rng, 3, 2), rand(rng, 2)
        out = dc.linear(x, W, b)
        assert out.shape == (4, 2)
        assert out._op == "linear"
        assert [id(p) for p in out._parents] == [id(x), id(W), id(b)]

    def test_linear_rejects_bad_shapes(self):
        rng = np.random.default_rng(52)
        x, W = rand(rng, 4, 3), rand(rng, 3, 2)
        with pytest.raises(ValueError, match=r"x \(4, 3\), W \(2, 3\), b \(2,\)"):
            dc.linear(x, rand(rng, 2, 3), rand(rng, 2))
        with pytest.raises(ValueError, match=r"b \(1, 2\)"):
            dc.linear(x, W, rand(rng, 1, 2))
        with pytest.raises(ValueError, match=r"b \(3,\)"):
            dc.linear(x, W, rand(rng, 3))
        with pytest.raises(ValueError, match=r"x \(3,\)"):
            dc.linear(rand(rng, 3), W, rand(rng, 2))


def lstm_by_cells(xs, W, U, b, reverse=False):
    """Op-by-op oracle for ``lstm_sequence``: one ``lstm_cell`` per frame, outputs concatenated."""
    t_len, _ = xs.shape
    hidden = U.shape[0]
    h = dc.Tensor(np.zeros((1, hidden)))
    c = dc.Tensor(np.zeros((1, hidden)))
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    outs = [None] * t_len
    for i in order:
        h, c = lstm_cell(take(xs, np.s_[i : i + 1]), h, c, W, U, b)
        outs[i] = h
    return dc.concat(outs, axis=0)


def lstm_value_and_grads(run, xs, params, weights):
    """Value of sum(weights * run(...)) and the grads of xs, W, U and b."""
    tensors = [xs, *params.values()]
    for tensor in tensors:
        tensor.grad = None
    out = run(xs, *params.values())
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


class TestLstm:
    def make_params(self, rng, din, h):
        return dc.init_lstm_params(rng, din, h, "cell")

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("t_len", [1, 4])
    def test_lstm_sequence_gradcheck(self, reverse, t_len):
        rng = np.random.default_rng(20 + t_len)
        p = self.make_params(rng, 3, 2)
        p["cell.b"].data[:] = rng.uniform(-0.5, 0.5, p["cell.b"].shape)  # exercise the bias grad off zero
        xs = rand(rng, t_len, 3)
        w = t(rng.uniform(-1, 1, (t_len, 2)), grad=False)
        args = (xs, p["cell.W"], p["cell.U"], p["cell.b"])
        f = lambda: tsum(dc.lstm_sequence(*args, reverse=reverse) * w)
        assert dc.gradcheck(f, list(args)) < 1e-4

    @given(
        t_len=st.integers(1, 7),
        din=st.integers(1, 5),
        hidden=st.integers(1, 5),
        reverse=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_lstm_sequence_equals_cell_loop(self, t_len, din, hidden, reverse, seed):
        rng = np.random.default_rng(seed)
        params = self.make_params(rng, din, hidden)
        params["cell.b"].data[:] = rng.uniform(-1, 1, params["cell.b"].shape)
        xs = rand(rng, t_len, din)
        weights = rng.normal(size=(t_len, hidden))
        fused = lstm_value_and_grads(lambda *a: dc.lstm_sequence(*a, reverse=reverse), xs, params, weights)
        oracle = lstm_value_and_grads(lambda *a: lstm_by_cells(*a, reverse=reverse), xs, params, weights)
        assert rel_err(fused[0], oracle[0]) <= 1e-12
        for got, want in zip(fused[1], oracle[1]):
            assert got.shape == want.shape
            assert rel_err(got, want) <= 1e-12

    def test_lstm_sequence_is_one_node(self):
        rng = np.random.default_rng(21)
        p = self.make_params(rng, 3, 2)
        out = dc.lstm_sequence(rand(rng, 5, 3), p["cell.W"], p["cell.U"], p["cell.b"])
        assert out.shape == (5, 2)
        assert len(out._parents) == 4

    def test_lstm_sequence_rejects_bad_shapes(self):
        rng = np.random.default_rng(22)
        p = self.make_params(rng, 3, 2)
        with pytest.raises(ValueError, match=r"\(5, 4\)"):
            dc.lstm_sequence(rand(rng, 5, 4), p["cell.W"], p["cell.U"], p["cell.b"])
        with pytest.raises(ValueError, match="at least one frame"):
            dc.lstm_sequence(rand(rng, 0, 3), p["cell.W"], p["cell.U"], p["cell.b"])

    def test_zero_weights_zero_state(self):
        p = self.make_params(np.random.default_rng(0), 3, 4)
        for v in p.values():
            v.data[:] = 0.0
        x = t(np.ones((1, 3)))
        h = dc.Tensor(np.zeros((1, 4)))
        c = dc.Tensor(np.zeros((1, 4)))
        h2, c2 = lstm_cell(x, h, c, p["cell.W"], p["cell.U"], p["cell.b"])
        assert np.all(h2.data == 0)
        assert np.all(c2.data == 0)

    def test_blstm_length_one_is_concat_of_cells(self):
        rng = np.random.default_rng(1)
        params = {}
        params.update(dc.init_lstm_params(rng, 3, 4, "l.fwd"))
        params.update(dc.init_lstm_params(rng, 3, 4, "l.bwd"))
        x = t(rng.normal(size=(1, 3)))
        out = dc.blstm_layer(x, params, "l")
        zero = dc.Tensor(np.zeros((1, 4)))
        hf, _ = lstm_cell(x, zero, zero, params["l.fwd.W"], params["l.fwd.U"], params["l.fwd.b"])
        hb, _ = lstm_cell(x, zero, zero, params["l.bwd.W"], params["l.bwd.U"], params["l.bwd.b"])
        assert np.allclose(out.data, np.concatenate([hf.data, hb.data], axis=1))

    def test_blstm_gradcheck_three_frames(self):
        rng = np.random.default_rng(2)
        params = {}
        params.update(dc.init_lstm_params(rng, 2, 3, "l.fwd"))
        params.update(dc.init_lstm_params(rng, 2, 3, "l.bwd"))
        x = rand(rng, 3, 2)
        tensors = [x, *params.values()]
        assert dc.gradcheck(lambda: tsum(dc.blstm_layer(x, params, "l") * 0.7), tensors) < 1e-4


def attention_by_heads(q, k, v, heads):
    """Op-by-op oracle for ``attention``: slice each head, softmax(q k^T / sqrt(dh)) v, concatenate."""
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = dc.matmul(take(q, np.s_[:, sl]), transpose(take(k, np.s_[:, sl]))) * (1.0 / np.sqrt(dh))
        outs.append(dc.matmul(softmax(scores), take(v, np.s_[:, sl])))
    return dc.concat(outs, axis=1)


class TestAttention:
    """The multi-head ``attention`` oracle of ``attention_sublayer`` against its per-head graph."""

    @pytest.mark.parametrize("t_len, heads", [(1, 1), (4, 2), (3, 3)])
    def test_attention_gradcheck(self, t_len, heads):
        rng = np.random.default_rng(30 + t_len)
        q, k, v = (rand(rng, t_len, 2 * heads) for _ in range(3))
        w = t(rng.uniform(-1, 1, (t_len, 2 * heads)), grad=False)
        assert dc.gradcheck(lambda: tsum(attention(q, k, v, heads) * w), [q, k, v]) < 1e-4

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
    square, row = (d, d), (d,)
    shapes = dict.fromkeys(ATTENTION_NAMES + FEED_FORWARD_NAMES, row)
    shapes.update({"wq": square, "wk": square, "wv": square, "wo": square})
    shapes.update({"ff.w1": (d, 4 * d), "ff.b1": (4 * d,), "ff.w2": (4 * d, d)})
    params = {}
    for name, shape in shapes.items():
        params[f"blk.{name}"] = p = dc.Parameter(rng.normal(0, 0.7, shape), f"blk.{name}")
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
        assert dc.gradcheck(lambda: tsum(dc.attention_sublayer(h, params, "blk", 2) * w), tensors) < 1e-4

    def test_feed_forward_sublayer_gradcheck(self):
        rng = np.random.default_rng(81)
        params, h, w = block_params(rng, 3), rand(rng, 4, 3), t(rng.uniform(-1, 1, (4, 3)), grad=False)
        tensors = [h, *(params[f"blk.{n}"] for n in FEED_FORWARD_NAMES)]
        assert dc.gradcheck(lambda: tsum(dc.feed_forward_sublayer(h, params, "blk") * w), tensors) < 1e-4

    @given(
        t_len=st.integers(1, 3 * dc.ATTENTION_ROWS).filter(lambda n: n % dc.ATTENTION_ROWS),
        heads=st.integers(1, 3),
        d_head=st.integers(1, 3),
        trainable=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(t_len=dc.ATTENTION_ROWS - 1, heads=2, d_head=2, trainable=True, seed=0)
    @example(t_len=dc.ATTENTION_ROWS + 1, heads=2, d_head=2, trainable=True, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_equal_to_op_by_op_graph(self, t_len, heads, d_head, trainable, seed):
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
                out = run(h, params)
                tsum(out * weights).backward()
                results.append((out.data, h.grad, [params[f"blk.{n}"].grad for n in names]))
            (got, got_dh, got_grads), (want, want_dh, want_grads) = results
            assert rel_err(got, want) <= 1e-12
            assert rel_err(got_dh, want_dh) <= 1e-12
            for name, g, w in zip(names, got_grads, want_grads):
                assert (g is None) == (not trainable), name
                if trainable:
                    assert g.shape == w.shape and rel_err(g, w) <= 1e-12, name

    def test_each_is_one_node(self):
        rng = np.random.default_rng(82)
        params = block_params(rng, 4)
        h = rand(rng, 3, 4)
        for op, (run, _, names) in zip(("attention_sublayer", "feed_forward_sublayer"), sublayer_runs(2)):
            out = run(h, params)
            assert out.shape == (3, 4) and out._op == op
            assert [id(p) for p in out._parents] == [id(h), *(id(params[f"blk.{n}"]) for n in names)]

    @pytest.mark.parametrize(
        "name, shape, expected",
        [
            ("ln1.g", (1,), (8,)),
            ("bq", (1,), (8,)),
            ("wq", (8, 9), (8, 8)),
            ("wo", (8,), (8, 8)),
            ("ln2.b", (8, 1), (8,)),
            ("ff.w1", (8,), (8, 8)),
            ("ff.b1", (1,), (32,)),
            ("ff.w2", (32, 9), (32, 8)),
            ("ff.b2", (1,), (8,)),
        ],
    )
    def test_operand_of_another_shape_named(self, name, shape, expected):
        rng = np.random.default_rng(85)
        params = block_params(rng, 8)
        params[f"blk.{name}"] = dc.Parameter(np.ones(shape), f"blk.{name}")
        fused, _, names = sublayer_runs(2)[name not in ATTENTION_NAMES]
        assert name in names
        with pytest.raises(ValueError, match=re.escape(f"blk.{name} has shape {shape}, expected {expected}")):
            fused(rand(rng, 3, 8), params)

    def test_input_not_a_matrix_named(self):
        rng = np.random.default_rng(86)
        params = block_params(rng, 4)
        for op, (fused, _, _) in zip(("attention_sublayer", "feed_forward_sublayer"), sublayer_runs(2)):
            with pytest.raises(ValueError, match=re.escape(f"{op} input must be (T, d), got shape (4,)")):
                fused(rand(rng, 4), params)

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

    def test_heads_not_dividing_width_named(self):
        rng = np.random.default_rng(83)
        params = block_params(rng, 6)
        with pytest.raises(ValueError, match="6 is not divisible into 4 heads"):
            dc.attention_sublayer(rand(rng, 3, 6), params, "blk", 4)


DECODER_OPERANDS = ("hidden", "embed", "W", "U", "b", "out_w", "out_b")


def decoder_arrays(rng, t_len, d, e, v):
    """Random ``attention_decoder`` operands in ``DECODER_OPERANDS`` order."""
    shapes = [(t_len, d), (v, e), (e + d, 4 * d), (d, 4 * d), (1, 4 * d), (2 * d, v), (v,)]
    return [rng.normal(0, 0.8, shape) for shape in shapes]


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
            dc.attention_decoder(*tensors, ids["tokens"], ids["targets"])

    def test_numpy_integer_label_ids_accepted(self):
        tensors = [t(a) for a in decoder_arrays(np.random.default_rng(76), 4, 3, 2, 5)]
        want = dc.attention_decoder(*tensors, [0, 2], [2, 1]).item()
        assert dc.attention_decoder(*tensors, np.array([0, 2]), [np.int16(2), np.uint64(1)]).item() == want

    def test_attention_decoder_gradcheck(self):
        rng = np.random.default_rng(70)
        tensors = [t(a) for a in decoder_arrays(rng, 5, 3, 2, 6)]
        tokens, targets = [1, 4, 3, 4], [4, 3, 4, 2]
        worst = dc.gradcheck(lambda: dc.attention_decoder(*tensors, tokens, targets), tensors)
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
        fused, fused_grads = decoder_value_and_grads(dc.attention_decoder, arrays, requires, tokens, targets)
        oracle, oracle_grads = decoder_value_and_grads(attention_decoder_by_steps, arrays, requires, tokens, targets)
        assert rel_err(fused, oracle) <= 1e-12
        for name, got, want, required in zip(DECODER_OPERANDS, fused_grads, oracle_grads, requires):
            assert (got is None) == (not required), name
            if required:
                assert got.shape == want.shape and rel_err(got, want) <= 1e-12, name

    def test_attention_decoder_is_one_node(self):
        rng = np.random.default_rng(71)
        tensors = [t(a) for a in decoder_arrays(rng, 4, 3, 2, 5)]
        loss = dc.attention_decoder(*tensors, [0, 3], [3, 1])
        assert loss.shape == () and loss._op == "attention_decoder"
        assert [id(p) for p in loss._parents] == [id(x) for x in tensors]

    def test_frozen_decoder_passes_grad_to_hidden_only(self):
        rng = np.random.default_rng(72)
        arrays = decoder_arrays(rng, 6, 3, 2, 5)
        grads = {}
        for trainable in (True, False):
            requires = [True] + [trainable] * 6
            grads[trainable] = decoder_value_and_grads(dc.attention_decoder, arrays, requires, [0, 3, 4], [3, 4, 1])[1]
        assert all(g is None for g in grads[False][1:])
        assert np.array_equal(grads[True][0], grads[False][0])

    def test_attention_decoder_rejects_bad_shapes(self):
        rng = np.random.default_rng(73)
        tensors = [t(a) for a in decoder_arrays(rng, 4, 3, 2, 5)]
        tensors[2] = t(np.zeros((4, 12)))
        with pytest.raises(ValueError, match=r"shape mismatch: .*W \(4, 12\)"):
            dc.attention_decoder(*tensors, [0], [1])
        tensors[2] = t(np.zeros((5, 12)))
        with pytest.raises(ValueError, match=r"tokens \(2,\), targets \(1,\)"):
            dc.attention_decoder(*tensors, [0, 1], [1])
        with pytest.raises(ValueError, match=r"tokens \(0,\)"):
            dc.attention_decoder(*tensors, [], [])

    @pytest.mark.parametrize("bad", [-1, 5, 99])
    @pytest.mark.parametrize("where", ["tokens", "targets"])
    def test_label_id_outside_vocab_named(self, bad, where):
        rng = np.random.default_rng(74)
        tensors = [t(a) for a in decoder_arrays(rng, 4, 3, 2, 5)]
        ids = {"tokens": [0, 2], "targets": [2, 1]}
        ids[where][1] = bad
        with pytest.raises(ValueError, match=rf"label id {bad} outside vocab of size 5"):
            dc.attention_decoder(*tensors, ids["tokens"], ids["targets"])


def grad_recorded():
    """Whether ops currently build a graph, seen from the outside."""
    return dc.mul(t(np.ones(1)), 2.0).requires_grad


class TestNoGrad:
    def test_ops_record_nothing(self):
        rng = np.random.default_rng(40)
        x = rand(rng, 4, 3)
        p = dc.init_lstm_params(rng, 3, 2, "cell")
        p.update(block_params(rng, 3))
        with dc.no_grad():
            outs = [
                tanh(dc.matmul(x, x.data.T)),
                dc.linear(x, x.data.T, x.data[:, 0]),
                dc.attention_sublayer(x, p, "blk", 3),
                dc.feed_forward_sublayer(x, p, "blk"),
                dc.lstm_sequence(x, p["cell.W"], p["cell.U"], p["cell.b"]),
            ]
        for out in outs:
            assert not out.requires_grad
            assert out._parents == ()
            assert out._backward is None
        assert outs[2]._op == "attention_sublayer"

    def test_same_values_as_with_graph(self):
        # the graph keeps every block of attention weights, no_grad reuses one block's buffer
        rng = np.random.default_rng(41)
        params = block_params(rng, 6)
        for t_len in (5, 2 * dc.ATTENTION_ROWS + 7):
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
            p = dc.init_lstm_params(np.random.default_rng(43), 3, 2, "cell")
            proj = dc.Parameter(np.random.default_rng(44).normal(size=(2, 2)), "proj")
            for q in [*p.values(), proj]:
                q.requires_grad = not frozen
            x = t(xs)
            out = dc.matmul(dc.lstm_sequence(x, p["cell.W"], p["cell.U"], p["cell.b"]), proj)
            tsum(out * w).backward()
            assert all((q.grad is None) == frozen for q in [*p.values(), proj])
            input_grads.append(x.grad)
        assert np.array_equal(input_grads[0], input_grads[1])


class AdamByArrays:
    """Oracle for ``Adam``: the whole-array update, each term a full-size temporary."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self._m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self._v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

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
            params = {f"p{i}": dc.Parameter(a.copy(), f"p{i}") for i, a in enumerate(init)}
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
        params = {n: dc.Parameter(rng.normal(size=s), n) for n, s in [("a", (3, 4)), ("b", (dc.ADAM_CHUNK + 3,))]}
        opt = dc.Adam(params, lr=0.1)
        assert opt._m == {} and opt._v == {}
        g = params["a"].grad = rng.normal(size=(3, 4))
        opt.step()
        assert set(opt._m) == set(opt._v) == {"a"}
        assert opt._m["a"].tobytes() == ((1 - dc.ADAM_BETA1) * g).tobytes()
        assert opt._v["a"].tobytes() == ((g * g) * (1 - dc.ADAM_BETA2)).tobytes()  # the order _update uses

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
            params = {n: dc.Parameter(a.copy(), n) for n, a in init.items()}
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

    @pytest.mark.parametrize("view", [lambda a: a[:, ::2], lambda a: a.T], ids=["strided", "transposed"])
    def test_non_contiguous_parameter_updated_through_its_view(self, view):
        """A Parameter built from a view holds a C-contiguous copy of it, which Adam updates like the oracle."""
        rng = np.random.default_rng(60)
        base = rng.normal(size=(4, 6))
        p = dc.Parameter(view(base), "w")
        assert p.data.flags.c_contiguous and np.array_equal(p.data, view(base))
        oracle_p = dc.Parameter(view(base), "w")
        opt, oracle = dc.Adam({"w": p}, lr=0.1), AdamByArrays({"w": oracle_p}, lr=0.1)
        before = base.copy()
        for _ in range(3):
            p.grad = oracle_p.grad = rng.normal(size=p.shape)
            opt.step()
            oracle.step()
        assert np.array_equal(p.data, oracle_p.data) and not np.array_equal(p.data, view(before))
        assert np.array_equal(base, before)  # the view the parameter was built from is left alone

    def test_grad_of_another_shape_names_the_parameter(self):
        p = dc.Parameter(np.ones(3), "block0.bq")
        opt = dc.Adam({"block0.bq": p}, lr=0.1)
        p.grad = np.ones(1)  # broadcasts against (3,), so only the shape check catches it
        with pytest.raises(ValueError, match=r"'block0\.bq' has shape \(1,\), its data \(3,\)"):
            opt.step()
        assert np.all(p.data == 1.0) and opt.t == 0

    def test_zero_grad_leaves_parameter(self):
        p = dc.Parameter(np.ones(3), "p")
        opt = dc.Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(3)
        opt.step()
        assert np.all(p.data == 1.0)

    def test_frozen_parameter_untouched(self):
        p = dc.Parameter(np.ones(3), "p")
        p.requires_grad = False
        opt = dc.Adam({"p": p}, lr=0.1)
        p.grad = np.ones(3)
        opt.step()
        assert np.all(p.data == 1.0)

    def test_single_step_hand_calculation(self):
        # one step with constant grad g: theta' = theta - lr * g / (|g| + eps)
        g = 0.3
        p = dc.Parameter(np.array([2.0]), "p")
        opt = dc.Adam({"p": p}, lr=0.01)
        p.grad = np.array([g])
        opt.step()
        expected = 2.0 - 0.01 * g / (abs(g) + 1e-8)
        assert abs(p.data[0] - expected) < 1e-12


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        params = {
            "a.w": dc.Parameter(rng.normal(size=(3, 4)), "a.w"),
            "b": dc.Parameter(rng.normal(size=(5,)), "b"),
        }
        path = tmp_path / "model.ckpt"
        dc.save_checkpoint(path, params, {"kind": "test", "seed": 7})
        arrays, meta = dc.load_checkpoint(path)
        assert meta == {"kind": "test", "seed": 7}
        assert set(arrays) == {"a.w", "b"}
        assert np.array_equal(arrays["a.w"], params["a.w"].data)
        assert np.array_equal(arrays["b"], params["b"].data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOT-A-CKPT\n{}\n")
        with pytest.raises(ValueError, match="magic"):
            dc.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        dc.save_checkpoint(path, {"w": np.ones((2, 2))}, {"seed": 1})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match=r"model\.ckpt.*trailing bytes"):
            dc.load_checkpoint(path)

    def test_restore_params_is_all_or_nothing(self):
        params = {"a": dc.Parameter(np.zeros(3), "a"), "b": dc.Parameter(np.zeros(2), "b")}
        with pytest.raises(ValueError, match=r"m\.ckpt.*'b'.*\(3,\).*\(2,\)"):
            dc.restore_params("m.ckpt", params, {"a": np.ones(3), "b": np.ones(3)})
        with pytest.raises(ValueError, match=r"m\.ckpt.*'c'"):
            dc.restore_params("m.ckpt", params, {"a": np.ones(3), "b": np.ones(2), "c": np.ones(1)})
        assert np.all(params["a"].data == 0.0)
        dc.restore_params("m.ckpt", params, {"a": np.ones(3), "b": np.full(2, 2.0)})
        assert np.all(params["a"].data == 1.0) and np.all(params["b"].data == 2.0)

    def write_header(self, tmp_path, header, payload=b""):
        """A checkpoint file with a hand-written header: a JSON-able object or raw bytes."""
        raw = header if isinstance(header, bytes) else json.dumps(header).encode()
        path = tmp_path / "hand.ckpt"
        path.write_bytes(dc.CKPT_MAGIC.encode() + b"\n" + raw + b"\n" + payload)
        return path

    @pytest.mark.parametrize("field", ["tensors", "meta"])
    def test_header_without_field_rejected(self, tmp_path, field):
        header = {"meta": {"seed": 1}, "tensors": []}
        del header[field]
        path = self.write_header(tmp_path, header)
        with pytest.raises(ValueError, match=rf"hand\.ckpt.*lacks the '{field}' field"):
            dc.load_checkpoint(path)

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
            dc.load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[-1, 2], [2.5], ["2"], [True]])
    def test_bad_dimension_rejected(self, tmp_path, shape):
        path = self.write_header(tmp_path, {"meta": {}, "tensors": [{"name": "w", "shape": shape}]}, b"\0" * 64)
        with pytest.raises(ValueError, match=r"hand\.ckpt.*'shape' of tensor 'w'.*non-negative integer"):
            dc.load_checkpoint(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        entries = [{"name": "w", "shape": [1]}, {"name": "w", "shape": [1]}]
        path = self.write_header(tmp_path, {"meta": {}, "tensors": entries}, b"\0" * 16)
        with pytest.raises(ValueError, match=r"hand\.ckpt.*'w' appears twice in the header field 'tensors'"):
            dc.load_checkpoint(path)

    def test_byte_identical_for_same_content(self, tmp_path):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(4, 2))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dc.save_checkpoint(p1, {"w": data}, {"seed": 1})
        dc.save_checkpoint(p2, {"w": data.copy()}, {"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()


UNARY = {"tanh": tanh, "sigmoid": sigmoid, "softplus": dc.softplus, "relu": dc.relu, "softmax": softmax}


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

        assert dc.gradcheck(f, tensors) < 1e-4
