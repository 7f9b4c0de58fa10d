"""Bi-directional LSTM with hand-written backpropagation through time.

Each direction follows the usual recipe for fast recurrent networks
(Appleyard, Kočiský & Blunsom, arXiv:1604.01946): the input projection of
every step is one GEMM before the time loop; the loop does only the
recurrent GEMM and in-place elementwise work on buffers allocated once per
call; the weight gradients are one GEMM each after the loop. Inside a cell
arrays are time-major, so the rows of one step are contiguous.

The two directions of a BiLSTM share no state, so every pass runs the
backward-in-time cell on a worker thread (``scenemotion._worker``) while the
calling thread runs the forward one (the same paper overlaps independent
recurrent work this way), from one-clip inference to training batches. Each
cell does the same arithmetic on either thread, so results are bit-identical
to the cells run in turn. The gain assumes BLAS runs each call on one
thread, which importing ``scenemotion`` sets unless the user chose a thread
count (``scenemotion._runtime``).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .._worker import both
from ..errors import StateError
from .params import Module, Param, uniform_init


class LSTMCell(Module):
    """Single-direction LSTM; gate order in the stacked weights is i, f, g, o.

    The i, f and o gates use sigmoid(z) = (1 + tanh(z / 2)) / 2, so all four
    gates of a step are one tanh pass and no exponential can overflow.
    """

    def __init__(self, in_dim, hidden, rng, name="lstm"):
        self.in_dim = in_dim
        self.hidden = hidden
        self.Wx = Param(f"{name}.Wx", uniform_init(rng, (4 * hidden, in_dim), in_dim))
        self.Wh = Param(f"{name}.Wh", uniform_init(rng, (4 * hidden, hidden), hidden))
        b = uniform_init(rng, (4 * hidden,), hidden)
        b[hidden:2 * hidden] += 1.0  # open forget gates so endpoint info survives the clip
        self.b = Param(f"{name}.b", b)

    def forward(self, xs):
        """xs: (N, T, D) -> h: (N, T, H) with zero initial state.

        h is a view of the time-major state array the cache holds."""
        N, T, D = xs.shape
        H = self.hidden
        x = np.ascontiguousarray(xs.transpose(1, 0, 2)).reshape(T * N, D)
        gates = x @ self.Wx.value.T
        gates += self.b.value
        gates = gates.reshape(T, N, 4 * H)
        # the tanh argument is z / 2 on the sigmoid gates, then (1 + tanh) / 2
        half = np.full(4 * H, 0.5)
        half[2 * H:3 * H] = 1.0
        shift = 1.0 - half
        c = np.zeros((T + 1, N, H))    # c[t + 1]: cell state after step t
        h = np.zeros((T + 1, N, H))    # h[t + 1]: hidden state after step t
        tc = np.empty((T, N, H))       # tanh(c[t + 1])
        rec = np.empty((N, 4 * H))
        ig = np.empty((N, H))
        WhT = self.Wh.value.T
        for t in range(T):
            a = gates[t]
            if t:
                np.matmul(h[t], WhT, out=rec)
                a += rec
            a *= half
            np.tanh(a, out=a)
            a *= half
            a += shift
            i, f, g, o = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
            np.multiply(f, c[t], out=c[t + 1])
            np.multiply(i, g, out=ig)
            c[t + 1] += ig
            np.tanh(c[t + 1], out=tc[t])
            np.multiply(o, tc[t], out=h[t + 1])
        cache = {"x": x, "gates": gates, "c": c, "tc": tc, "h": h}
        return h[1:].transpose(1, 0, 2), cache

    def backward(self, cache, ghs):
        """ghs: (N, T, H) cotangent on every step's hidden output -> (N, T, D).

        Consumes the cache: each step's gate cotangents are written over its
        gate activations, so a second backward on the same cache raises."""
        gates = cache.pop("gates", None)
        if gates is None:
            raise StateError("LSTM cache was already consumed by a backward pass")
        x, c, tc, h = cache["x"], cache["c"], cache["tc"], cache["h"]
        T, N, H4 = gates.shape
        H = H4 // 4
        Wh = self.Wh.value
        g_col = np.zeros(H4)
        g_col[2 * H:3 * H] = 1.0
        gh = np.empty((N, H))
        gc = np.zeros((N, H))
        u = np.empty((N, H))
        up = np.empty((N, H4))   # cotangent on each gate's activation
        d = np.empty((N, H4))    # the activation's derivative: (1 - a)(a + [gate is g])
        for t in range(T - 1, -1, -1):
            a = gates[t]
            i, f, g, o = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
            if t + 1 < T:
                np.matmul(gates[t + 1], Wh, out=gh)
                gh += ghs[:, t]
            else:
                gh[...] = ghs[:, t]
            np.multiply(gh, tc[t], out=up[:, 3 * H:])
            np.multiply(tc[t], tc[t], out=u)
            np.subtract(1.0, u, out=u)
            u *= o
            u *= gh
            gc += u
            np.multiply(gc, g, out=up[:, :H])
            np.multiply(gc, c[t], out=up[:, H:2 * H])
            np.multiply(gc, i, out=up[:, 2 * H:3 * H])
            gc *= f
            np.subtract(1.0, a, out=d)
            a += g_col
            a *= d
            a *= up
        gz = gates.reshape(T * N, H4)
        self.Wx.grad += gz.T @ x
        self.Wh.grad += gz[N:].T @ h[1:T].reshape((T - 1) * N, H)  # h = 0 before step 0
        self.b.grad += gz.sum(axis=0)
        return (gz @ self.Wx.value).reshape(T, N, -1).transpose(1, 0, 2)


class BiLSTM(Module):
    """Per-step concatenation of a forward and a backward LSTM pass."""

    def __init__(self, in_dim, hidden, rng, name="bilstm"):
        self.hidden = hidden
        self.fwd = LSTMCell(in_dim, hidden, rng, name=f"{name}.fwd")
        self.bwd = LSTMCell(in_dim, hidden, rng, name=f"{name}.bwd")

    def forward(self, xs):
        """xs: (N, T, D) -> (N, T, 2H), a view of a time-major array; T must
        be at least 3 (endpoints + 1)."""
        if xs.ndim != 3:
            raise ValueError(f"expected (N, T, D) input, got shape {xs.shape}")
        if xs.shape[1] < 3:
            raise ValueError(f"sequence too short for a bi-directional pass: T={xs.shape[1]}")
        N, T, _ = xs.shape
        H = self.hidden
        (hf, cf), (hb_rev, cb) = both(
            partial(self.fwd.forward, xs), partial(self.bwd.forward, xs[:, ::-1, :]))
        y = np.empty((T, N, 2 * H))
        y[:, :, :H] = hf.transpose(1, 0, 2)
        y[:, :, H:] = hb_rev.transpose(1, 0, 2)[::-1]
        return y.transpose(1, 0, 2), (cf, cb)

    def backward(self, cache, gy):
        cf, cb = cache
        H = self.hidden
        gxf, gxb_rev = both(
            partial(self.fwd.backward, cf, gy[:, :, :H]),
            partial(self.bwd.backward, cb, gy[:, ::-1, H:]))
        return gxf + gxb_rev[:, ::-1, :]
