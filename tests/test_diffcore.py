import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bpcse.diffcore as dc


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
        self.check(lambda: dc.mean(dc.add(a, b) * dc.add(a, b)), [a, b])

    def test_add_broadcast(self):
        rng = np.random.default_rng(1)
        a, b = rand(rng, 3, 4), rand(rng, 1, 4)
        self.check(lambda: dc.mean(dc.add(a, b) * dc.add(a, b)), [a, b])

    def test_sub_mul_div(self):
        rng = np.random.default_rng(2)
        a, b = rand(rng, 2, 3), t(rng.uniform(0.5, 2.0, (2, 3)))
        self.check(lambda: dc.mean(dc.div(dc.mul(dc.sub(a, b), a), b)), [a, b])

    def test_matmul(self):
        rng = np.random.default_rng(3)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        self.check(lambda: dc.mean(dc.matmul(a, b) * dc.matmul(a, b)), [a, b])

    @pytest.mark.parametrize("op", [dc.relu, dc.sigmoid, dc.tanh, dc.softplus, dc.exp, dc.expm1])
    def test_unary(self, op):
        rng = np.random.default_rng(4)
        x = rand(rng, 3, 5)
        self.check(lambda: dc.mean(op(x) * op(x)), [x])

    @pytest.mark.parametrize("op", [dc.log, dc.log1p])
    def test_log_like(self, op):
        rng = np.random.default_rng(5)
        x = t(rng.uniform(0.2, 3.0, (3, 5)))
        self.check(lambda: dc.mean(op(x) * op(x)), [x])

    def test_softmax(self):
        rng = np.random.default_rng(6)
        x = rand(rng, 4, 6)
        w = t(rng.uniform(-1, 1, (4, 6)), grad=False)
        self.check(lambda: dc.mean(dc.softmax(x) * w), [x])

    def test_layer_norm(self):
        rng = np.random.default_rng(7)
        x, g, b = rand(rng, 3, 8), rand(rng, 8), rand(rng, 8)
        self.check(lambda: dc.mean(dc.layer_norm(x, g, b) * dc.layer_norm(x, g, b)), [x, g, b])

    def test_dropout_fixed_mask(self):
        rng = np.random.default_rng(8)
        x = rand(rng, 4, 4)
        self.check(lambda: dc.mean(dc.dropout(x, 0.4, np.random.default_rng(99)) * x), [x])

    def test_concat(self):
        rng = np.random.default_rng(9)
        a, b = rand(rng, 2, 3), rand(rng, 4, 3)
        self.check(lambda: dc.mean(dc.concat([a, b], axis=0) * dc.concat([a, b], axis=0)), [a, b])

    def test_slice(self):
        rng = np.random.default_rng(10)
        x = rand(rng, 5, 6)
        self.check(lambda: dc.mean(x[1:4, 2:] * x[1:4, 2:]), [x])

    def test_slice_integer_rows(self):
        rng = np.random.default_rng(11)
        x = rand(rng, 5, 3)
        idx = np.array([0, 2, 2, 4])
        self.check(lambda: dc.mean(x[idx] * x[idx]), [x])

    def test_reshape_transpose(self):
        rng = np.random.default_rng(12)
        x = rand(rng, 4, 6)
        self.check(lambda: dc.mean(dc.transpose(dc.reshape(x, (2, 12))) * 1.5), [x])

    def test_mean_sum_axis(self):
        rng = np.random.default_rng(13)
        x = rand(rng, 3, 5)
        self.check(lambda: dc.mean(dc.tsum(x, axis=1) * dc.mean(x, axis=1)), [x])

    def test_conv1d(self):
        rng = np.random.default_rng(14)
        x, w, b = rand(rng, 6, 3), rand(rng, 4, 3, 3), rand(rng, 4)
        self.check(lambda: dc.mean(dc.conv1d(x, w, b, pad=1) * dc.conv1d(x, w, b, pad=1)), [x, w, b])

    def test_l1_loss(self):
        rng = np.random.default_rng(16)
        a, b = rand(rng, 4, 4), rand(rng, 4, 4)
        self.check(lambda: dc.l1_loss(a, b), [a, b])

    def test_cross_entropy(self):
        rng = np.random.default_rng(17)
        x = rand(rng, 5, 4)
        targets = np.array([0, 3, 1, 2, 2])
        self.check(lambda: dc.cross_entropy(x, targets), [x])


class TestContracts:
    def test_l1_identical_inputs_zero_loss_zero_grad(self):
        x = t(np.arange(6.0).reshape(2, 3))
        y = t(np.arange(6.0).reshape(2, 3))
        loss = dc.l1_loss(x, y)
        loss.backward()
        assert loss.item() == 0.0
        assert np.all(x.grad == 0)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(18)
        y = dc.softmax(t(rng.normal(0, 5, (10, 7))))
        assert np.max(np.abs(y.data.sum(axis=1) - 1.0)) < 1e-12

    def test_fanout_accumulates_both_contributions(self):
        x = t(np.array([[2.0]]))
        y = dc.add(dc.mul(x, x), dc.mul(x, 3.0))  # x^2 + 3x, d/dx = 2x + 3 = 7
        dc.mean(y).backward()
        assert np.allclose(x.grad, 7.0)

    def test_shape_mismatch_names_both_shapes(self):
        a, b = t(np.zeros((2, 3))), t(np.zeros((4, 5)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            dc.add(a, b)
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            dc.matmul(a, b)
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            dc.l1_loss(a, b)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_result_trips_graph_error(self):
        x = t(np.array([[1.0, 0.0]]))
        with pytest.raises(dc.GraphError, match="log"):
            dc.log(x - 1.0)

    def test_second_backward_accumulates_into_leaves_only(self):
        x = t(np.array([[2.0, -1.0]]))
        y = dc.mean(dc.mul(x, 3.0))
        y.backward()
        first = x.grad.copy()
        y.backward()
        assert np.array_equal(x.grad, 2.0 * first)

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
            out = dc.mean(dc.tanh(dc.matmul(x, w)))
            out.backward()
            return out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()


def lstm_by_cells(xs, W, U, b, reverse=False):
    """Op-by-op oracle for ``lstm_sequence``: one ``lstm_cell`` per frame, outputs concatenated."""
    t_len, _ = xs.shape
    hidden = U.shape[0]
    h = dc.Tensor(np.zeros((1, hidden)))
    c = dc.Tensor(np.zeros((1, hidden)))
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    outs = [None] * t_len
    for i in order:
        h, c = dc.lstm_cell(xs[i : i + 1, :], h, c, W, U, b)
        outs[i] = h
    return dc.concat(outs, axis=0)


def lstm_value_and_grads(run, xs, params, weights):
    """Value of sum(weights * run(...)) and the grads of xs, W, U and b."""
    tensors = [xs, *params.values()]
    for tensor in tensors:
        tensor.grad = None
    out = run(xs, *params.values())
    dc.tsum(out * weights).backward()
    return out.data.copy(), [tensor.grad.copy() for tensor in tensors]


def rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


class TestLstm:
    def make_params(self, rng, din, h, frozen=False):
        return dc.init_lstm_params(rng, din, h, "cell", frozen)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("t_len", [1, 4])
    def test_lstm_sequence_gradcheck(self, reverse, t_len):
        rng = np.random.default_rng(20 + t_len)
        p = self.make_params(rng, 3, 2)
        p["cell.b"].data[:] = rng.uniform(-0.5, 0.5, p["cell.b"].shape)  # exercise the bias grad off zero
        xs = rand(rng, t_len, 3)
        w = t(rng.uniform(-1, 1, (t_len, 2)), grad=False)
        args = (xs, p["cell.W"], p["cell.U"], p["cell.b"])
        f = lambda: dc.tsum(dc.lstm_sequence(*args, reverse=reverse) * w)
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
        h2, c2 = dc.lstm_cell(x, h, c, p["cell.W"], p["cell.U"], p["cell.b"])
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
        hf, _ = dc.lstm_cell(x, zero, zero, params["l.fwd.W"], params["l.fwd.U"], params["l.fwd.b"])
        hb, _ = dc.lstm_cell(x, zero, zero, params["l.bwd.W"], params["l.bwd.U"], params["l.bwd.b"])
        assert np.allclose(out.data, np.concatenate([hf.data, hb.data], axis=1))

    def test_blstm_gradcheck_three_frames(self):
        rng = np.random.default_rng(2)
        params = {}
        params.update(dc.init_lstm_params(rng, 2, 3, "l.fwd"))
        params.update(dc.init_lstm_params(rng, 2, 3, "l.bwd"))
        x = rand(rng, 3, 2)
        tensors = [x, *params.values()]
        assert dc.gradcheck(lambda: dc.mean(dc.blstm_layer(x, params, "l") * 0.7), tensors) < 1e-4


class TestAdam:
    def test_zero_grad_leaves_parameter(self):
        p = dc.Parameter(np.ones(3), "p")
        opt = dc.Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(3)
        opt.step()
        assert np.all(p.data == 1.0)

    def test_frozen_parameter_untouched(self):
        p = dc.Parameter(np.ones(3), "p", frozen=True)
        opt = dc.Adam({"p": p}, lr=0.1)
        p.grad = np.ones(3)
        opt.step()
        assert np.all(p.data == 1.0)

    def test_single_step_hand_calculation(self):
        # one step with constant grad g: theta' = theta - lr * g / (|g| + eps)
        g = 0.3
        p = dc.Parameter(np.array([2.0]), "p")
        opt = dc.Adam({"p": p}, lr=0.01, eps=1e-8)
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

    def test_byte_identical_for_same_content(self, tmp_path):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(4, 2))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dc.save_checkpoint(p1, {"w": data}, {"seed": 1})
        dc.save_checkpoint(p2, {"w": data.copy()}, {"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()


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
                elif op == "softmax":
                    cur = dc.softmax(cur)
                else:
                    cur = getattr(dc, op)(cur)
            return dc.mean(cur * cur)

        assert dc.gradcheck(f, tensors) < 1e-4
