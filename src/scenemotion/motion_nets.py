"""Short-term motion synthesis: RouteNet predicts in-between locations and
orientations, PoseNet predicts the body/hand pose along the predicted route.

Both share the same skeleton: a bi-directional LSTM over a (k+1)-step input
sequence whose first/last steps carry the endpoint descriptors and whose
intermediate steps carry only a normalized clock, followed by two FC head
layers applied per step on the LSTM feature and the clip's scene point
feature. The two networks use separate point encoders.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import body
from ._worker import both
from .body import BETA, POSE, R, ROUTE, T
from .errors import NumericError
from .nn.adam import AdamState, minibatch_epochs
from .nn.layers import Linear, leaky_relu, leaky_relu_backward
from .nn.lstm import BiLSTM
from .nn.params import Module
from .nn.pointnet import FEATURE_DIM, PointEncoder
from .rotation import rot6d_to_matrix
from .sequence import MotionSequence

ROUTE_DIM = ROUTE.stop - ROUTE.start  # t(3) + r(6)
POSE_PAIR_DIM = POSE.stop - POSE.start  # p(32) + h(24)
LAMBDA_T = 1.0
LAMBDA_R = 1.0
LAMBDA_P = 1.0
LAMBDA_H = 0.1


def add_product(acc, a, b):
    """``acc += a @ b``: a weight-gradient GEMM, in a form the worker can run."""
    acc += a @ b


class _SeqHead(Module):
    """Two FC layers applied per step on [lstm feature, scene feature].

    The scene feature is the same at every step of a clip, so fc1's scene
    columns are applied once per clip and broadcast over the steps. fc1.W
    keeps its (fc_width, lstm_dim + scene_dim) shape.

    The backward computes fc1's step-column weight gradient on the worker
    thread (``scenemotion._worker``) while the calling thread does the rest.
    The forward's step product stays one GEMM: a BLAS may compute a block of
    its rows with another kernel than the whole (OpenBLAS takes gemv for one
    row and its small-matrix kernel for a short block), so row halves would
    not keep the bits.
    """

    def __init__(self, lstm_dim, scene_dim, fc_width, out_dim, rng, name):
        self.lstm_dim = lstm_dim
        self.fc1 = Linear(lstm_dim + scene_dim, fc_width, rng, name=f"{name}.fc1")
        self.fc2 = Linear(fc_width, out_dim, rng, name=f"{name}.fc2")

    def forward(self, y, feats):
        """y: (S, N, lstm_dim) step-major features; feats: (N, scene_dim)
        -> (S, N, out_dim)."""
        S, N, L = y.shape
        W = self.fc1.W.value
        y = y.reshape(S * N, L)
        h_pre = (y @ W[:, :L].T).reshape(S, N, -1)
        h_pre += feats @ W[:, L:].T + self.fc1.b.value
        out, c2 = self.fc2.forward(leaky_relu(h_pre))
        return out, (y, feats, h_pre, c2)

    def backward(self, cache, gy):
        """gy: (S, N, out_dim) -> (g_y (S, N, lstm_dim), g_feats (N, scene_dim))."""
        y, feats, h_pre, c2 = cache
        S, N, F = h_pre.shape
        L = self.lstm_dim
        W, gW = self.fc1.W.value, self.fc1.W.grad
        g_pre = leaky_relu_backward(h_pre, self.fc2.backward(c2, gy))
        g_clip = g_pre.sum(axis=0)
        g_pre = g_pre.reshape(S * N, F)

        def rest():
            gW[:, L:] += g_clip.T @ feats
            self.fc1.b.grad += g_clip.sum(axis=0)
            return (g_pre @ W[:, :L]).reshape(S, N, L), g_clip @ W[:, L:]

        # fc1's step columns: the weight gradient on the worker, the rest here
        return both(rest, partial(add_product, gW[:, :L], g_pre.T, y))[0]


class _SeqNet(Module):
    """Shared RouteNet/PoseNet machinery over per-step descriptor sequences."""

    step_dim = None
    out_dim = None

    def __init__(self, rng, hidden, fc_width, point_hidden, name="seqnet"):
        self.hidden = hidden
        self.fc_width = fc_width
        self.point_enc = PointEncoder(rng, hidden=point_hidden, name=f"{name}.point")
        self.lstm = BiLSTM(self.step_dim, hidden, rng, name=f"{name}.lstm")
        self.head = _SeqHead(2 * hidden, FEATURE_DIM, fc_width, self.out_dim, rng,
                             name=f"{name}.head")

    def forward_batch(self, xs, feats):
        """xs: (N, k+1, step_dim); feats: (N, 256) -> (N, k-1, out_dim)."""
        k = xs.shape[1] - 1
        y, lstm_cache = self.lstm.forward(xs)
        # the BiLSTM output is a view of a step-major array: its inner steps are contiguous
        out, head_cache = self.head.forward(y.transpose(1, 0, 2)[1:k], feats)
        return np.ascontiguousarray(out.transpose(1, 0, 2)), (lstm_cache, head_cache)

    def backward_batch(self, cache, g_out):
        lstm_cache, head_cache = cache
        N, steps, _ = g_out.shape
        g_inner, g_feats = self.head.backward(head_cache, g_out.transpose(1, 0, 2))
        g_y = np.zeros((steps + 2, N, 2 * self.hidden))
        g_y[1:steps + 1] = g_inner
        g_xs = self.lstm.backward(lstm_cache, g_y.transpose(1, 0, 2))
        return g_xs, g_feats

    def _forward_in_scene(self, xs, cloud_points):
        """(N, k-1, out_dim) for step inputs ``xs`` (N, k+1, step_dim) in one
        scene: one point-encoder pass and one batched pass. The caches are
        dropped at once, so inference holds no activations."""
        feat = self.point_enc.forward(cloud_points)[0]
        return self.forward_batch(xs, np.broadcast_to(feat, (len(xs), FEATURE_DIM)))[0]


class RouteNet(_SeqNet):
    step_dim = ROUTE_DIM + 1
    out_dim = ROUTE_DIM

    def __init__(self, rng, hidden, fc_width, point_hidden):
        super().__init__(rng, hidden, fc_width, point_hidden, name="route")

    @staticmethod
    def step_inputs(starts, ends, k):
        """Goal records starts/ends (N, 75) -> (N, k+1, 10)."""
        xs = np.zeros((len(starts), k + 1, ROUTE_DIM + 1))
        xs[:, :, ROUTE_DIM] = np.arange(k + 1) / k
        xs[:, 0, :ROUTE_DIM] = starts[:, ROUTE]
        xs[:, k, :ROUTE_DIM] = ends[:, ROUTE]
        return xs

    def forward(self, starts, ends, cloud_points, k):
        """Route steps 1..k-1 (N, k-1, 9) between N pairs of goal records (N, 75)."""
        rot6d_to_matrix(starts[:, R])
        rot6d_to_matrix(ends[:, R])
        return self._forward_in_scene(self.step_inputs(starts, ends, k), cloud_points)


class PoseNet(_SeqNet):
    step_dim = POSE_PAIR_DIM + ROUTE_DIM + 1
    out_dim = POSE_PAIR_DIM

    def __init__(self, rng, hidden, fc_width, point_hidden):
        super().__init__(rng, hidden, fc_width, point_hidden, name="pose")

    @staticmethod
    def step_inputs(starts, ends, routes, k):
        """Goal records starts/ends (N, 75), routes (N, k-1, 9) -> (N, k+1, 66)."""
        N, routes = len(starts), np.asarray(routes, dtype=np.float64)
        if routes.shape != (N, k - 1, ROUTE_DIM):
            raise ValueError(f"expected route shape {(N, k - 1, ROUTE_DIM)}, got {routes.shape}")
        xs = np.zeros((N, k + 1, POSE_PAIR_DIM + ROUTE_DIM + 1))
        xs[:, :, -1] = np.arange(k + 1) / k
        xs[:, 0, :POSE_PAIR_DIM] = starts[:, POSE]
        xs[:, k, :POSE_PAIR_DIM] = ends[:, POSE]
        xs[:, 1:k, POSE_PAIR_DIM:POSE_PAIR_DIM + ROUTE_DIM] = routes
        return xs

    def forward(self, starts, ends, routes, cloud_points, k):
        """Pose steps 1..k-1 (N, k-1, 56) between N pairs of goal records (N, 75)
        along their routes (N, k-1, 9)."""
        return self._forward_in_scene(self.step_inputs(starts, ends, routes, k), cloud_points)


# -- losses ---------------------------------------------------------------------

def route_loss(pred, gt):
    """l1 route loss summed over steps 1..k-1."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"route length mismatch: {pred.shape} vs {gt.shape}")
    diff = np.abs(pred - gt)
    return float(LAMBDA_T * diff[..., T].sum() + LAMBDA_R * diff[..., R].sum())


def route_loss_grad(pred, gt):
    g = np.sign(pred - gt)
    g[..., T] *= LAMBDA_T
    g[..., R] *= LAMBDA_R
    return g


def pose_loss(pred, gt):
    """l1 pose loss summed over steps 1..k-1; hands down-weighted."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"pose length mismatch: {pred.shape} vs {gt.shape}")
    diff = np.abs(pred - gt)
    return float(LAMBDA_P * diff[..., :body.POSE_DIM].sum()
                 + LAMBDA_H * diff[..., body.POSE_DIM:].sum())


def pose_loss_grad(pred, gt):
    g = np.sign(pred - gt)
    g[..., :body.POSE_DIM] *= LAMBDA_P
    g[..., body.POSE_DIM:] *= LAMBDA_H
    return g


# -- training ---------------------------------------------------------------------

def _endpoints(frames):
    """The first and the last record of every clip, stacked, and the clips' k."""
    starts, ends = np.stack([f[0] for f in frames]), np.stack([f[-1] for f in frames])
    return starts, ends, len(frames[0]) - 1


def _train_seq_net(model, clips, clouds, inputs, cols, loss, loss_grad, epochs, batch_size,
                   lr, seed, log, tag):
    """Train ``model`` to predict columns ``cols`` of every clip's inner frames
    from ``inputs(idx, frames)``; the one loop behind both trainers."""
    adam = AdamState(model.params())
    enc = model.point_enc

    def step(epoch, idx):
        frames = [clips[i]["frames"] for i in idx]
        sids = [clips[i]["scene"] for i in idx]
        gt = np.stack([f[1:-1, cols] for f in frames])
        n = len(idx)
        feats, feat_caches = enc.encode_scenes(sids, clouds)
        out, cache = model.forward_batch(inputs(idx, frames), feats)
        value = sum(loss(out[i], gt[i]) for i in range(n)) / n
        if not np.isfinite(value):
            raise NumericError(f"{tag} loss is non-finite at epoch {epoch}")
        model.zero_grad()
        _, g_feats = model.backward_batch(cache, loss_grad(out, gt) / n)
        enc.backward_scenes(sids, feat_caches, g_feats)
        adam.step(lr)
        return value

    return minibatch_epochs(len(clips), epochs, batch_size, np.random.default_rng(seed),
                            step, log, tag)


def train_route_net(model, clips, clouds, epochs=20, batch_size=32, lr=1e-3, seed=0,
                    log=None):
    """Phase 1: RouteNet on ground-truth routes. Returns per-epoch mean losses."""
    return _train_seq_net(model, clips, clouds,
                          lambda idx, frames: model.step_inputs(*_endpoints(frames)), ROUTE,
                          route_loss, route_loss_grad, epochs, batch_size, lr, seed, log, "route")


def _frozen_routes(route_model, clips, clouds, batch_size):
    """RouteNet's (k-1, 9) route for every clip, run in clip-order chunks of
    ``batch_size`` clips; no activations are kept."""
    routes = []
    for lo in range(0, len(clips), batch_size):
        chunk = clips[lo:lo + batch_size]
        feats, _ = route_model.point_enc.encode_scenes([c["scene"] for c in chunk], clouds)
        xs = route_model.step_inputs(*_endpoints([c["frames"] for c in chunk]))
        routes.extend(route_model.forward_batch(xs, feats)[0])
    return routes


def train_pose_net(model, route_model, clips, clouds, epochs=20, batch_size=16, lr=1e-3,
                   seed=0, log=None):
    """Phase 2: PoseNet on RouteNet's predicted routes; RouteNet is frozen, so
    every clip's route is computed once per call."""
    def inputs(idx, frames):
        starts, ends, k = _endpoints(frames)
        return model.step_inputs(starts, ends, np.stack([routes[i] for i in idx]), k)

    routes = _frozen_routes(route_model, clips, clouds, batch_size)
    return _train_seq_net(model, clips, clouds, inputs, POSE, pose_loss, pose_loss_grad,
                          epochs, batch_size, lr, seed, log, "pose")


def synthesize_clip(route_model, pose_model, bodies, cloud_points, k):
    """Fill the G-1 gaps of a chain of G >= 2 goal bodies with k-frame clips.

    Returns (G-1)*k + 1 frames: body g is frame g*k verbatim and those frames
    are the chunk boundaries. All bodies must share the shape vector. Every
    gap goes through one RouteNet and one PoseNet pass together.
    """
    goals = np.stack([b.flat() for b in bodies])
    if len(goals) < 2:
        raise ValueError(f"need a chain of at least two bodies, got {len(goals)}")
    if np.any(goals[:, BETA] != goals[0, BETA]):
        raise ValueError("all bodies of a chain must share the shape vector")
    a, b = goals[:-1], goals[1:]
    route = route_model.forward(a, b, cloud_points, k)
    poses = pose_model.forward(a, b, route, cloud_points, k)
    clips = np.empty((len(a), k, body.PARAM_DIM))
    clips[:, 0] = a
    clips[:, 1:, ROUTE] = route
    clips[:, 1:, BETA] = goals[0, BETA]
    clips[:, 1:, POSE] = poses
    frames = np.concatenate([clips.reshape(-1, body.PARAM_DIM), goals[-1:]])
    return MotionSequence(frames=frames, chunk_boundaries=list(range(0, len(frames), k)))
