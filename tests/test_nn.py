import gc
import struct
import threading
import traceback
import warnings
import weakref

import numpy as np
import pytest

from scenemotion import artefact
from scenemotion.errors import ArtefactError, NumericError, SceneMotionError, StateError
from scenemotion.nn import (AdamState, BiLSTM, Linear, MLP, Param, PointEncoder,
                            ResidualBlock, leaky_relu, leaky_relu_backward)
from gradcheck import check_param_grads, check_param_grads_directional
from helpers import worker_handoffs
from scenemotion.nn.adam import BETA1, BETA2, EPS, minibatch_epochs
from scenemotion.nn.layers import LEAKY_SLOPE
from scenemotion.nn.lstm import LSTMCell


def test_linear_identity_and_bias():
    rng = np.random.default_rng(0)
    layer = Linear(3, 3, rng)
    layer.W.value[...] = np.eye(3)
    layer.b.value[...] = 0.0
    x = rng.standard_normal((5, 3))
    y, _ = layer.forward(x)
    assert np.array_equal(y, x)
    layer.b.value[...] = [1.0, 2.0, 3.0]
    y, _ = layer.forward(np.zeros((2, 3)))
    assert np.array_equal(y, np.tile([1.0, 2.0, 3.0], (2, 1)))


def test_linear_backward_has_the_bytes_of_the_serial_expressions():
    rng = np.random.default_rng(24)
    lin = Linear(12, 7, rng)
    x, gy = rng.standard_normal((5, 4, 12)), rng.standard_normal((5, 4, 7))
    lin.W.grad[...] = rng.standard_normal(lin.W.grad.shape)
    lin.b.grad[...] = rng.standard_normal(lin.b.grad.shape)
    want_W, want_b = lin.W.grad.copy(), lin.b.grad.copy()
    want_W += gy.reshape(-1, 7).T @ x.reshape(-1, 12)
    want_b += gy.reshape(-1, 7).sum(axis=0)
    want_gx = gy @ lin.W.value
    gx = lin.backward(lin.forward(x)[1], gy)
    assert gx.tobytes() == want_gx.tobytes()
    assert lin.W.grad.tobytes() == want_W.tobytes()
    assert lin.b.grad.tobytes() == want_b.tobytes()


def test_linear_shape_mismatch():
    layer = Linear(3, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        layer.forward(np.zeros((4, 5)))


def test_linear_gradcheck():
    rng = np.random.default_rng(1)
    layer = Linear(4, 3, rng)
    x = rng.standard_normal((6, 4))
    w = rng.standard_normal((6, 3))

    def loss():
        y, cache = layer.forward(x)
        layer.backward(cache, w)
        return float((y * w).sum())

    assert check_param_grads(loss, layer.params(), h=1e-5, tol=1e-4) < 1e-4


def test_residual_block_identity_shortcut():
    rng = np.random.default_rng(2)
    block = ResidualBlock(5, rng)
    for p in block.params():
        p.value[...] = 0.0
    x = rng.standard_normal((3, 5))
    y, _ = block.forward(x)
    assert np.array_equal(y, x)


def test_residual_block_gradcheck_and_width():
    rng = np.random.default_rng(3)
    block = ResidualBlock(4, rng)
    x = rng.standard_normal((2, 4))
    w = rng.standard_normal((2, 4))

    def loss():
        y, cache = block.forward(x)
        block.backward(cache, w)
        return float((y * w).sum())

    assert check_param_grads(loss, block.params(), h=1e-5, tol=1e-4) < 1e-4
    y, _ = block.forward(x)
    y2, _ = ResidualBlock(4, rng).forward(y)
    assert y2.shape == x.shape  # stacking preserves width


def test_bilstm_zero_weight_outputs_are_zero():
    lstm = BiLSTM(3, 4, np.random.default_rng(4))
    for p in lstm.params():
        p.value[...] = 0.0
    xs = np.random.default_rng(5).standard_normal((2, 6, 3))
    y, _ = lstm.forward(xs)
    # sigmoid(0)=0.5 gates on tanh(0)=0 content: every output is exactly 0
    assert np.array_equal(y, np.zeros_like(y))


def test_bilstm_direction_symmetry_with_shared_weights():
    rng = np.random.default_rng(6)
    lstm = BiLSTM(3, 4, rng)
    # mirror the two directions
    lstm.bwd.Wx.value[...] = lstm.fwd.Wx.value
    lstm.bwd.Wh.value[...] = lstm.fwd.Wh.value
    lstm.bwd.b.value[...] = lstm.fwd.b.value
    xs = rng.standard_normal((1, 5, 3))
    y, _ = lstm.forward(xs)
    y_rev, _ = lstm.forward(xs[:, ::-1, :])
    H = 4
    swapped = np.concatenate([y[:, ::-1, H:], y[:, ::-1, :H]], axis=2)
    np.testing.assert_allclose(y_rev, swapped, atol=1e-12)


def test_bilstm_rejects_short_sequences():
    lstm = BiLSTM(3, 4, np.random.default_rng(7))
    with pytest.raises(ValueError):
        lstm.forward(np.zeros((1, 2, 3)))


def test_bilstm_gradcheck():
    rng = np.random.default_rng(8)
    lstm = BiLSTM(3, 3, rng)
    # dense on a small pass, directional on a larger one
    for N, check in ((2, check_param_grads), (8, check_param_grads_directional)):
        xs = rng.standard_normal((N, 4, 3))
        w = rng.standard_normal((N, 4, 6))

        def loss():
            y, cache = lstm.forward(xs)
            lstm.backward(cache, w)
            return float((y * w).sum())

        assert check(loss, lstm.params(), h=1e-5, tol=1e-3) < 1e-3, N


# -- per-step LSTM oracle ------------------------------------------------------

def oracle_sigmoid(x):
    """The two-branch logistic, which never takes exp of a positive number."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def oracle_lstm_cell(cell, xs, ghs):
    """One direction, one step at a time: forward, then backpropagation
    through time. Returns (h (N, T, H), g_xs, {param name: grad})."""
    Wx, Wh, b = cell.Wx.value, cell.Wh.value, cell.b.value
    N, T, _ = xs.shape
    H = cell.hidden
    h, c = np.zeros((N, H)), np.zeros((N, H))
    hs = np.empty((N, T, H))
    steps = []
    for t in range(T):
        z = xs[:, t] @ Wx.T + h @ Wh.T + b
        i, f, o = (oracle_sigmoid(z[:, s]) for s in (slice(0, H), slice(H, 2 * H),
                                                     slice(3 * H, None)))
        g = np.tanh(z[:, 2 * H:3 * H])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        steps.append((xs[:, t], h, c, i, f, g, o, tc))
        h, c = o * tc, c_new
        hs[:, t] = h
    gWx, gWh, gb = np.zeros_like(Wx), np.zeros_like(Wh), np.zeros_like(b)
    gxs = np.empty_like(xs)
    gh, gc = np.zeros((N, H)), np.zeros((N, H))
    for t in range(T - 1, -1, -1):
        x, h_prev, c_prev, i, f, g, o, tc = steps[t]
        gh = gh + ghs[:, t]
        gc = gc + gh * o * (1.0 - tc * tc)
        gz = np.concatenate([gc * g * i * (1.0 - i), gc * c_prev * f * (1.0 - f),
                             gc * i * (1.0 - g * g), gh * tc * o * (1.0 - o)], axis=1)
        gc = gc * f
        gWx += gz.T @ x
        gWh += gz.T @ h_prev
        gb += gz.sum(axis=0)
        gxs[:, t] = gz @ Wx
        gh = gz @ Wh
    return hs, gxs, {cell.Wx.name: gWx, cell.Wh.name: gWh, cell.b.name: gb}


def oracle_bilstm(lstm, xs, gy):
    """(y, g_xs, {param name: grad}) of a BiLSTM from two per-step cells."""
    H = lstm.hidden
    hf, gxf, grads = oracle_lstm_cell(lstm.fwd, xs, gy[:, :, :H])
    hb, gxb, grads_b = oracle_lstm_cell(lstm.bwd, xs[:, ::-1], gy[:, ::-1, H:])
    grads.update(grads_b)
    return np.concatenate([hf, hb[:, ::-1]], axis=2), gxf + gxb[:, ::-1], grads


def rel_err(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("N, T", [(1, 3), (1, 7), (3, 3), (3, 7), (8, 7), (32, 7)])
@pytest.mark.parametrize("saturate", [False, True], ids=["plain", "saturated"])
def test_bilstm_matches_per_step_oracle(N, T, saturate):
    rng = np.random.default_rng(10 * N + T)
    lstm = BiLSTM(4, 5, rng)
    xs = rng.standard_normal((N, T, 4))
    if saturate:  # every other step drives its gates far past |z| = 50
        xs[:, ::2] *= 400.0
        z = xs[:, ::2].reshape(-1, 4) @ lstm.fwd.Wx.value.T + lstm.fwd.b.value
        assert z.max() >= 50.0 and z.min() <= -50.0
    gy = rng.standard_normal((N, T, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, cache = lstm.forward(xs)
        gx = lstm.backward(cache, gy)
        y_ref, gx_ref, grads_ref = oracle_bilstm(lstm, xs, gy)
    assert rel_err(y, y_ref) < 1e-12
    assert rel_err(gx, gx_ref) < 1e-12
    for p in lstm.params():
        assert rel_err(p.grad, grads_ref[p.name]) < 1e-12, p.name
    assert_same_as_cells_in_turn(lstm, xs, gy, y, cache, gx)


def assert_same_as_cells_in_turn(lstm, xs, gy, y, cache, gx):
    """The BiLSTM pass that gave ``y``, ``cache``, ``gx`` and the current
    parameter gradients is bit-identical to its two cells run one after the
    other on the calling thread. Leaves the in-turn gradients behind."""
    grads = {p.name: p.grad.copy() for p in lstm.params()}
    lstm.zero_grad()
    hf, cf = lstm.fwd.forward(xs)
    hb, cb = lstm.bwd.forward(xs[:, ::-1])
    assert np.array_equal(y, np.concatenate([hf, hb[:, ::-1]], axis=2))
    for got, want in zip(cache, (cf, cb)):
        assert np.array_equal(got["h"], want["h"]) and np.array_equal(got["c"], want["c"])
    H = lstm.hidden
    gxb = lstm.bwd.backward(cb, gy[:, ::-1, H:])
    assert np.array_equal(gx, lstm.fwd.backward(cf, gy[:, :, :H]) + gxb[:, ::-1])
    for p in lstm.params():
        assert np.array_equal(p.grad, grads[p.name]), p.name


@pytest.mark.parametrize("N", [1, 5, 32])
def test_bilstm_runs_the_backward_in_time_cell_on_a_worker_thread(N, monkeypatch):
    rng = np.random.default_rng(40 + N)
    lstm = BiLSTM(4, 5, rng)
    xs = rng.standard_normal((N, 7, 4))
    gy = rng.standard_normal((N, 7, 10))
    ran_on = []
    for name in ("forward", "backward"):
        def recorded(self, *args, run=getattr(LSTMCell, name), name=name):
            ran_on.append((name, "bwd" if self is lstm.bwd else "fwd", threading.get_ident()))
            return run(self, *args)
        monkeypatch.setattr(LSTMCell, name, recorded)
    y, cache = lstm.forward(xs)
    gx = lstm.backward(cache, gy)
    monkeypatch.undo()
    caller = threading.get_ident()
    assert sorted((name, cell, ident == caller) for name, cell, ident in ran_on) == [
        ("backward", "bwd", False), ("backward", "fwd", True),
        ("forward", "bwd", False), ("forward", "fwd", True)]
    assert_same_as_cells_in_turn(lstm, xs, gy, y, cache, gx)


def _raised_within(timeout, fn):
    """The exception ``fn()`` raises, or None. It runs on a thread joined with
    a timeout, so a pass that never returns fails the test instead of hanging it."""
    raised = []

    def run():
        try:
            fn()
        except Exception as e:
            raised.append(e)

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), f"call did not return within {timeout} s"
    return raised[0] if raised else None


def test_lstm_backward_consumes_its_cache():
    rng = np.random.default_rng(11)
    lstm = BiLSTM(3, 4, rng)
    threads = threading.active_count()
    for N in (2, 8):
        xs = rng.standard_normal((N, 5, 3))
        gy = rng.standard_normal((N, 5, 8))
        y, cache = lstm.forward(xs)
        lstm.backward(cache, gy)
        for spend_forward_cache in (True, False):
            if not spend_forward_cache:  # only the backward-in-time cell's cache is spent
                y, cache = lstm.forward(xs)
                lstm.bwd.backward(cache[1], gy[:, ::-1, 4:])
            err = _raised_within(30.0, lambda: lstm.backward(cache, gy))
            assert isinstance(err, StateError), (N, spend_forward_cache)
            # the error is the worker's, raised by its future
            files = [frame.filename for frame in traceback.extract_tb(err.__traceback__)]
            assert any(f.endswith("concurrent/futures/thread.py") for f in files), N
            # ... with the forward cell's error, if it raised one, as its context
            assert isinstance(err.__context__, StateError) == spend_forward_cache, N
            assert threading.active_count() == threads
    h, cell_cache = lstm.fwd.forward(xs)
    lstm.fwd.backward(cell_cache, gy[:, :, :4])
    with pytest.raises(StateError):
        lstm.fwd.backward(cell_cache, gy[:, :, :4])


def test_leaky_relu_is_bit_equal_to_the_select_form():
    rng = np.random.default_rng(12)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0])
    wide = rng.standard_normal(4000) * 10.0 ** rng.integers(-300, 300, 4000)
    x = np.concatenate([np.repeat(special, len(special)), wide, rng.standard_normal(4000)])
    gy = np.concatenate([np.tile(special, len(special)), rng.standard_normal(4000),
                         wide[::-1]])
    assert leaky_relu(x).tobytes() == np.where(x >= 0.0, x, LEAKY_SLOPE * x).tobytes()
    assert (leaky_relu_backward(x, gy).tobytes()
            == np.where(x >= 0.0, gy, LEAKY_SLOPE * gy).tobytes())


def test_point_encoder_invariances_and_gradcheck():
    rng = np.random.default_rng(9)
    enc = PointEncoder(rng, hidden=(8, 12))
    pts = rng.standard_normal((30, 3))
    feat, _ = enc.forward(pts)
    assert feat.shape == (256,)
    perm_feat, _ = enc.forward(pts[rng.permutation(30)])
    assert np.array_equal(feat, perm_feat)
    dup_feat, _ = enc.forward(np.concatenate([pts, pts], axis=0))
    np.testing.assert_allclose(feat, dup_feat, atol=1e-12)

    w = rng.standard_normal(256)

    def loss():
        f, cache = enc.forward(pts)
        enc.backward(cache, w)
        return float((f * w).sum())

    def value():
        return float((enc.forward(pts)[0] * w).sum())

    assert check_param_grads(loss, enc.params(), h=1e-5, tol=1e-3, value_fn=value) < 1e-3


def test_point_encoder_rejects_empty_cloud():
    enc = PointEncoder(np.random.default_rng(10), hidden=(4, 4))
    with pytest.raises(ValueError):
        enc.forward(np.zeros((0, 3)))


def _holds_grad(p):
    return p._grad is not None


def test_fresh_param_holds_no_grad_slot_until_its_first_read():
    value = np.random.default_rng(12).standard_normal((4, 3)).astype(np.float32)
    p = Param("w", value)
    assert not _holds_grad(p)
    p.zero_grad()  # clears a slot that exists, creates none
    assert not _holds_grad(p)
    g = p.grad
    assert _holds_grad(p)
    assert g.dtype == np.float64 and g.shape == (4, 3)
    assert g.tobytes() == np.zeros((4, 3)).tobytes()
    assert p.grad is g


@pytest.mark.parametrize("shape", [(5, 2), (3,), ()])
def test_grad_accumulation_and_zero_grad_keep_the_eager_slot_bytes(shape):
    """A slot created on first use takes ``+=``, ``[...] =`` and ``zero_grad``
    exactly as a zero-filled slot allocated with the parameter did."""
    rng = np.random.default_rng(13)
    value, g1, g2 = (rng.standard_normal(shape) for _ in range(3))
    eager = np.zeros_like(value)
    eager += g1
    eager += g2
    p = Param("w", value)
    p.grad += g1
    p.grad += g2
    assert p.grad.tobytes() == eager.tobytes()
    slot = p.grad
    p.zero_grad()
    assert p.grad is slot and p.grad.tobytes() == np.zeros(shape).tobytes()
    q = Param("w", value)
    q.grad[...] = g1
    assert q.grad.tobytes() == np.asarray(g1, dtype=np.float64).tobytes()


def test_adam_state_creates_the_slot_of_every_param():
    rng = np.random.default_rng(14)
    model = [Linear(6, 4, rng), BiLSTM(4, 3, rng)]
    params = [p for m in model for p in m.params()] + _mixed_params(rng)
    assert not any(_holds_grad(p) for p in params)
    AdamState(params)
    assert all(_holds_grad(p) for p in params)
    assert all(p.grad.tobytes() == np.zeros(p.value.shape).tobytes() for p in params)


def test_adam_zero_gradient_keeps_params():
    p = Param("x", np.array([1.0, 2.0]))
    state = AdamState([p])
    state.step(0.1)
    assert np.array_equal(p.value, [1.0, 2.0])
    assert state.t == 1


def test_adam_first_step_is_signed_lr():
    p = Param("x", np.zeros(3))
    state = AdamState([p])
    p.grad[...] = [0.5, -2.0, 1e-3]
    state.step(0.01)
    np.testing.assert_allclose(p.value, [-0.01, 0.01, -0.01], rtol=1e-4)


def test_adam_quadratic_bowl_convergence():
    rng = np.random.default_rng(11)
    c = rng.standard_normal(8)
    p = Param("x", rng.standard_normal(8))
    state = AdamState([p])
    for _ in range(200):
        p.zero_grad()
        p.grad += 2.0 * (p.value - c)
        state.step(0.05)
    assert np.linalg.norm(p.value - c) < 1e-2


def test_adam_rejects_nonfinite_gradient():
    p = Param("weights.w", np.zeros(2))
    state = AdamState([p])
    p.grad[...] = [np.nan, 0.0]
    with pytest.raises(NumericError, match="weights.w"):
        state.step(0.1)


def _mixed_params(rng):
    return [Param(f"p{i}", rng.standard_normal(shape))
            for i, shape in enumerate([(7, 5), (3,), (), (4, 6, 2), (1, 1), (0,)])]


def test_adam_step_is_bit_identical_to_the_textbook_update():
    rng = np.random.default_rng(4)
    params = _mixed_params(rng)
    ref = [p.value.copy() for p in params]
    m = [np.zeros_like(v) for v in ref]
    v = [np.zeros_like(v) for v in ref]
    state = AdamState(params)
    b1, b2, eps, lr = BETA1, BETA2, EPS, 3e-3
    for t in range(1, 6):
        for p in params:
            p.grad[...] = rng.standard_normal(p.grad.shape) * 10.0 ** rng.integers(-6, 3)
        state.step(lr)
        for i, p in enumerate(params):
            g = p.grad
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            ref[i] = ref[i] - lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
        for i, p in enumerate(params):
            assert p.value.tobytes() == ref[i].tobytes(), (t, p.name)
            assert state.m[i].tobytes() == m[i].tobytes(), (t, p.name)
            assert state.v[i].tobytes() == v[i].tobytes(), (t, p.name)


def test_adam_with_one_parameter_starts_no_thread(monkeypatch):
    """A step runs on the calling thread, with one parameter or many."""
    handoffs = worker_handoffs(monkeypatch)
    rng = np.random.default_rng(6)
    threads = threading.active_count()
    for params in ([Param("x", np.ones(4))],
                   _mixed_params(rng) + [Param("big", rng.standard_normal((9, 4)))]):
        state = AdamState(params)
        for p in params:
            p.grad[...] = 1.0
        state.step(0.1)
        assert handoffs == [] and state.t == 1 and threading.active_count() == threads


@pytest.mark.parametrize("lr", [np.nan, np.inf, 0.0, -1.0], ids=repr)
def test_adam_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    rng = np.random.default_rng(8)
    params = _mixed_params(rng)
    state = AdamState(params)
    for p in params:
        p.grad[...] = rng.standard_normal(p.grad.shape)
    before = [p.value.copy() for p in params]
    with pytest.raises(ValueError, match=f"learning rate .*got {lr}"):
        state.step(lr)
    assert state.t == 0
    for p, value, m, v in zip(params, before, state.m, state.v):
        assert p.value.tobytes() == value.tobytes()
        assert not m.any() and not v.any()


@pytest.mark.parametrize("batch_size", [0, -1])
def test_minibatch_epochs_rejects_a_batch_size_below_one(batch_size):
    steps = []
    with pytest.raises(ValueError, match=f"batch_size .*got {batch_size}"):
        minibatch_epochs(4, 1, batch_size, np.random.default_rng(0),
                         lambda epoch, idx: steps.append(idx) or 0.0, None, "t")
    assert steps == []


def test_adam_checks_every_gradient_before_any_parameter_moves():
    rng = np.random.default_rng(7)
    params = _mixed_params(rng)
    before = [p.value.copy() for p in params]
    for p in params:
        p.grad[...] = rng.standard_normal(p.grad.shape)
    params[-3].grad[...] = np.inf
    with pytest.raises(NumericError, match="p3"):
        AdamState(params).step(0.1)
    for p, value in zip(params, before):
        assert p.value.tobytes() == value.tobytes()


def test_adam_step_allocates_no_parameter_sized_array():
    import tracemalloc
    rng = np.random.default_rng(5)
    params = _mixed_params(rng) + [Param("big", rng.standard_normal((256, 512)))]
    state = AdamState(params)
    for p in params:
        p.grad[...] = rng.standard_normal(p.grad.shape)
    state.step(1e-3)
    tracemalloc.start()
    try:
        state.step(1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the textbook update holds three temporaries of the largest parameter at once
    assert peak < params[-1].value.nbytes


def test_weight_container_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    arrays = {"a.W": rng.standard_normal((3, 4)), "b": rng.standard_normal(7)}
    meta = {"kind": "test", "seed": 12}
    path = tmp_path / "weights.bin"
    artefact.save(path, arrays, meta)
    loaded, loaded_meta = artefact.load(path, "test")
    assert loaded_meta == meta
    for k in arrays:
        assert np.array_equal(loaded[k], arrays[k])


def _damaged_weight_files(tmp_path):
    """(name, bytes, message) of files that are not whole "test" containers."""
    path = tmp_path / "valid.bin"
    artefact.save(path, {"a": np.arange(6.0).reshape(2, 3)}, {"kind": "other"})
    other = path.read_bytes()
    artefact.save(path, {"a": np.arange(6.0).reshape(2, 3)}, {"kind": "test"})
    valid = path.read_bytes()
    hlen = struct.unpack("<I", valid[8:12])[0]
    bad_json = valid[:12] + b"{" * hlen + valid[12 + hlen:]
    return [("empty", b"", "not a container"),
            ("random", np.random.default_rng(0).bytes(200), "not a container"),
            ("version", valid[:4] + struct.pack("<I", 99) + valid[8:], "unsupported"),
            ("short header", valid[:10], "truncated header"),
            ("short manifest", valid[:12 + hlen // 2], "truncated manifest"),
            ("bad manifest", bad_json, "bad manifest"),
            ("short tensor", valid[:-8], "truncated tensor 'a'"),
            ("kind", other, "holds 'other' data, expected 'test'")]


def test_damaged_weight_file_raises_a_typed_error(tmp_path):
    for name, data, message in _damaged_weight_files(tmp_path):
        path = tmp_path / f"{name}.bin"
        path.write_bytes(data)
        with pytest.raises(ArtefactError, match=message) as err:
            artefact.load(path, "test")
        assert isinstance(err.value, SceneMotionError) and isinstance(err.value, ValueError)


def test_module_load_arrays_rejects_mismatch():
    rng = np.random.default_rng(13)
    layer = Linear(3, 2, rng)
    with pytest.raises(ValueError):
        layer.load_arrays({"W": np.zeros((2, 3))})  # missing 'b'


def test_parameter_walk_leaves_no_reference_cycle():
    # a cycle would keep a dropped model's weights alive until the collector runs
    model = MLP((3, 4, 2), np.random.default_rng(15))
    assert list(model.named_params()) == ["layers.0.W", "layers.0.b", "layers.1.W", "layers.1.b"]
    assert model.params() == list(model.named_params().values())
    weight = weakref.ref(model.layers[0].W.value)
    gc.disable()
    try:
        model.params()
        model.named_arrays()
        model.load_arrays(model.named_arrays())
        del model
        assert weight() is None
    finally:
        gc.enable()


def test_mlp_activates_every_layer():
    rng = np.random.default_rng(14)
    mlp = MLP((3, 4, 2), rng)
    x = rng.standard_normal((5, 3))
    y, _ = mlp.forward(x)
    hidden = leaky_relu(mlp.layers[0].forward(x)[0])
    assert y.shape == (5, 2)
    assert np.array_equal(y, leaky_relu(mlp.layers[1].forward(hidden)[0]))
    w = rng.standard_normal(y.shape)

    def loss():
        out, cache = mlp.forward(x)
        mlp.backward(cache, w)
        return float((out * w).sum())

    assert check_param_grads_directional(loss, mlp.params(), n_cases=20, seed=3) < 1e-3
