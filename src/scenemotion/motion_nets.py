"""Short-term motion synthesis: RouteNet predicts in-between locations and
orientations, PoseNet predicts the body/hand pose along the predicted route.

Both share the same skeleton: a bi-directional LSTM over a (k+1)-step input
sequence whose first/last steps carry the endpoint descriptors and whose
intermediate steps carry only a normalized clock, followed by two FC head
layers applied per step with the scene point feature concatenated in. The
two networks use separate point encoders.
"""

from __future__ import annotations

import numpy as np

from . import body
from .errors import NumericError
from .nn.adam import AdamState
from .nn.layers import Linear, leaky_relu, leaky_relu_backward
from .nn.lstm import BiLSTM
from .nn.params import Module
from .nn.pointnet import FEATURE_DIM, PointEncoder
from .sequence import MotionSequence

ROUTE_DIM = 9                      # t(3) + r(6)
POSE_PAIR_DIM = body.POSE_DIM + body.HAND_DIM  # 56
LAMBDA_T = 1.0
LAMBDA_R = 1.0
LAMBDA_P = 1.0
LAMBDA_H = 0.1
MIN_CLIP_DISPLACEMENT = 0.5        # m between clip endpoints


class _SeqHead(Module):
    """Two FC layers applied per step on [lstm feature, scene feature]."""

    def __init__(self, in_dim, fc_width, out_dim, rng, name):
        self.fc1 = Linear(in_dim, fc_width, rng, name=f"{name}.fc1")
        self.fc2 = Linear(fc_width, out_dim, rng, name=f"{name}.fc2")

    def forward(self, x):
        h_pre, c1 = self.fc1.forward(x)
        h = leaky_relu(h_pre)
        y, c2 = self.fc2.forward(h)
        return y, (c1, h_pre, c2)

    def backward(self, cache, gy):
        c1, h_pre, c2 = cache
        g_h = self.fc2.backward(c2, gy)
        g_pre = leaky_relu_backward(h_pre, g_h)
        return self.fc1.backward(c1, g_pre)


class _SeqNet(Module):
    """Shared RouteNet/PoseNet machinery over per-step descriptor sequences."""

    step_dim = None
    out_dim = None

    def __init__(self, rng, hidden=256, fc_width=512, point_hidden=(64, 128), name="seqnet"):
        self.hidden = hidden
        self.fc_width = fc_width
        self.point_enc = PointEncoder(rng, hidden=point_hidden, name=f"{name}.point")
        self.lstm = BiLSTM(self.step_dim, hidden, rng, name=f"{name}.lstm")
        self.head = _SeqHead(2 * hidden + FEATURE_DIM, fc_width, self.out_dim, rng,
                             name=f"{name}.head")

    def forward_batch(self, xs, feats):
        """xs: (N, k+1, step_dim); feats: (N, 256) -> (N, k-1, out_dim)."""
        N, steps, _ = xs.shape
        k = steps - 1
        y, lstm_cache = self.lstm.forward(xs)
        inner = y[:, 1:k, :]
        feat_b = np.broadcast_to(feats[:, None, :], (N, k - 1, FEATURE_DIM))
        cat = np.concatenate([inner, feat_b], axis=2).reshape(N * (k - 1), -1)
        out, head_cache = self.head.forward(cat)
        out = out.reshape(N, k - 1, self.out_dim)
        return out, (lstm_cache, head_cache, N, k)

    def backward_batch(self, cache, g_out):
        lstm_cache, head_cache, N, k = cache
        g_cat = self.head.backward(head_cache, g_out.reshape(N * (k - 1), self.out_dim))
        g_cat = g_cat.reshape(N, k - 1, -1)
        g_y = np.zeros((N, k + 1, 2 * self.hidden))
        g_y[:, 1:k, :] = g_cat[:, :, :2 * self.hidden]
        g_feats = g_cat[:, :, 2 * self.hidden:].sum(axis=1)
        g_xs = self.lstm.backward(lstm_cache, g_y)
        return g_xs, g_feats

    def encode_scenes(self, scene_ids, clouds):
        """One point-encoder pass per distinct scene; returns (feats, caches)."""
        unique = sorted(set(scene_ids))
        feats, caches = {}, {}
        for sid in unique:
            feats[sid], caches[sid] = self.point_enc.forward(clouds[sid])
        return np.stack([feats[sid] for sid in scene_ids]), caches

    def backward_scenes(self, scene_ids, caches, g_feats):
        for sid in sorted(set(scene_ids)):
            rows = [i for i, s in enumerate(scene_ids) if s == sid]
            self.point_enc.backward(caches[sid], g_feats[rows].sum(axis=0))


class RouteNet(_SeqNet):
    step_dim = ROUTE_DIM + 1
    out_dim = ROUTE_DIM

    def __init__(self, rng, hidden=256, fc_width=512, point_hidden=(64, 128)):
        super().__init__(rng, hidden, fc_width, point_hidden, name="route")

    @staticmethod
    def step_inputs(starts, ends, k):
        starts = np.atleast_2d(starts)
        ends = np.atleast_2d(ends)
        N = len(starts)
        xs = np.zeros((N, k + 1, ROUTE_DIM + 1))
        xs[:, :, ROUTE_DIM] = np.arange(k + 1) / k
        xs[:, 0, :ROUTE_DIM] = starts
        xs[:, k, :ROUTE_DIM] = ends
        return xs

    def forward(self, t0, r0, tk, rk, cloud_points, k):
        """Route steps 1..k-1 for one endpoint pair, (k-1, 9)."""
        from .rotation import rot6d_to_matrix
        rot6d_to_matrix(np.asarray(r0, dtype=np.float64))
        rot6d_to_matrix(np.asarray(rk, dtype=np.float64))
        start = np.concatenate([t0, r0])
        end = np.concatenate([tk, rk])
        feat, _ = self.point_enc.forward(cloud_points)
        out, _ = self.forward_batch(self.step_inputs(start, end, k), feat[None, :])
        return out[0]


class PoseNet(_SeqNet):
    step_dim = POSE_PAIR_DIM + ROUTE_DIM + 1
    out_dim = POSE_PAIR_DIM

    def __init__(self, rng, hidden=256, fc_width=512, point_hidden=(64, 128)):
        super().__init__(rng, hidden, fc_width, point_hidden, name="pose")

    @staticmethod
    def step_inputs(start_ph, end_ph, routes, k):
        """start/end (N, 56), routes (N, k-1, 9) -> (N, k+1, 66)."""
        start_ph = np.atleast_2d(start_ph)
        end_ph = np.atleast_2d(end_ph)
        if routes.ndim == 2:
            routes = routes[None, :, :]
        N = len(start_ph)
        if routes.shape[1] != k - 1:
            raise ValueError(f"route length {routes.shape[1]} does not match k-1={k - 1}")
        xs = np.zeros((N, k + 1, POSE_PAIR_DIM + ROUTE_DIM + 1))
        xs[:, :, -1] = np.arange(k + 1) / k
        xs[:, 0, :POSE_PAIR_DIM] = start_ph
        xs[:, k, :POSE_PAIR_DIM] = end_ph
        xs[:, 1:k, POSE_PAIR_DIM:POSE_PAIR_DIM + ROUTE_DIM] = routes
        return xs

    def forward(self, p0, h0, pk, hk, route, cloud_points, k):
        """Pose steps 1..k-1 for one clip, (k-1, 56)."""
        route = np.asarray(route, dtype=np.float64)
        if route.shape != (k - 1, ROUTE_DIM):
            raise ValueError(f"expected route shape {(k - 1, ROUTE_DIM)}, got {route.shape}")
        start = np.concatenate([p0, h0])
        end = np.concatenate([pk, hk])
        feat, _ = self.point_enc.forward(cloud_points)
        out, _ = self.forward_batch(self.step_inputs(start, end, route, k), feat[None, :])
        return out[0]


# -- losses ---------------------------------------------------------------------

def route_loss(pred, gt, lambda_t=LAMBDA_T, lambda_r=LAMBDA_R):
    """l1 route loss summed over steps 1..k-1."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"route length mismatch: {pred.shape} vs {gt.shape}")
    diff = np.abs(pred - gt)
    return float(lambda_t * diff[..., :3].sum() + lambda_r * diff[..., 3:9].sum())


def route_loss_grad(pred, gt, lambda_t=LAMBDA_T, lambda_r=LAMBDA_R):
    g = np.sign(pred - gt)
    g[..., :3] *= lambda_t
    g[..., 3:9] *= lambda_r
    return g


def pose_loss(pred, gt, lambda_p=LAMBDA_P, lambda_h=LAMBDA_H):
    """l1 pose loss summed over steps 1..k-1; hands down-weighted."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"pose length mismatch: {pred.shape} vs {gt.shape}")
    diff = np.abs(pred - gt)
    return float(lambda_p * diff[..., :body.POSE_DIM].sum()
                 + lambda_h * diff[..., body.POSE_DIM:].sum())


def pose_loss_grad(pred, gt, lambda_p=LAMBDA_P, lambda_h=LAMBDA_H):
    g = np.sign(pred - gt)
    g[..., :body.POSE_DIM] *= lambda_p
    g[..., body.POSE_DIM:] *= lambda_h
    return g


# -- training ---------------------------------------------------------------------

def train_route_net(model, clips, clouds, epochs=20, batch_size=32, lr=1e-3, seed=0,
                    log=None):
    """Phase 1: RouteNet on ground-truth routes. Returns per-epoch mean losses."""
    if not clips:
        raise ValueError("empty training set")
    rng = np.random.default_rng(seed)
    adam = AdamState(model.params())
    k = len(clips[0]["frames"]) - 1
    curve = []
    for epoch in range(epochs):
        order = rng.permutation(len(clips))
        losses = []
        for lo in range(0, len(order), batch_size):
            batch = [clips[i] for i in order[lo:lo + batch_size]]
            n = len(batch)
            starts = np.stack([c["frames"][0, 0:9] for c in batch])
            ends = np.stack([c["frames"][k, 0:9] for c in batch])
            gt = np.stack([c["frames"][1:k, 0:9] for c in batch])
            sids = [c["scene"] for c in batch]
            feats, feat_caches = model.encode_scenes(sids, clouds)
            xs = model.step_inputs(starts, ends, k)
            out, cache = model.forward_batch(xs, feats)
            loss = sum(route_loss(out[i], gt[i]) for i in range(n)) / n
            if not np.isfinite(loss):
                raise NumericError(f"route loss is non-finite at epoch {epoch}")
            model.zero_grad()
            g_out = route_loss_grad(out, gt) / n
            _, g_feats = model.backward_batch(cache, g_out)
            model.backward_scenes(sids, feat_caches, g_feats)
            adam.step(lr)
            losses.append(loss)
        curve.append(float(np.mean(losses)))
        if log:
            log(f"route epoch {epoch + 1}/{epochs}: loss {curve[-1]:.4f}")
    return curve


def train_pose_net(model, route_model, clips, clouds, epochs=20, batch_size=16, lr=1e-3,
                   seed=0, log=None):
    """Phase 2: PoseNet on RouteNet's predicted routes; RouteNet is frozen."""
    if not clips:
        raise ValueError("empty training set")
    rng = np.random.default_rng(seed)
    adam = AdamState(model.params())
    k = len(clips[0]["frames"]) - 1
    curve = []
    for epoch in range(epochs):
        order = rng.permutation(len(clips))
        losses = []
        for lo in range(0, len(order), batch_size):
            batch = [clips[i] for i in order[lo:lo + batch_size]]
            n = len(batch)
            sids = [c["scene"] for c in batch]

            # frozen forward pass through RouteNet (no gradients kept)
            starts = np.stack([c["frames"][0, 0:9] for c in batch])
            ends = np.stack([c["frames"][k, 0:9] for c in batch])
            rfeats, _ = route_model.encode_scenes(sids, clouds)
            routes, _ = route_model.forward_batch(route_model.step_inputs(starts, ends, k), rfeats)
            route_model.zero_grad()

            start_ph = np.stack([c["frames"][0, 19:75] for c in batch])
            end_ph = np.stack([c["frames"][k, 19:75] for c in batch])
            gt = np.stack([c["frames"][1:k, 19:75] for c in batch])
            feats, feat_caches = model.encode_scenes(sids, clouds)
            xs = model.step_inputs(start_ph, end_ph, routes, k)
            out, cache = model.forward_batch(xs, feats)
            loss = sum(pose_loss(out[i], gt[i]) for i in range(n)) / n
            if not np.isfinite(loss):
                raise NumericError(f"pose loss is non-finite at epoch {epoch}")
            model.zero_grad()
            g_out = pose_loss_grad(out, gt) / n
            _, g_feats = model.backward_batch(cache, g_out)
            model.backward_scenes(sids, feat_caches, g_feats)
            adam.step(lr)
            losses.append(loss)
        curve.append(float(np.mean(losses)))
        if log:
            log(f"pose epoch {epoch + 1}/{epochs}: loss {curve[-1]:.4f}")
    return curve


def synthesize_clip(route_model, pose_model, start, end, cloud_points, k):
    """Assemble a (k+1)-frame clip; frames 0 and k are the inputs verbatim."""
    if np.any(start.beta != end.beta):
        raise ValueError("start and end bodies must share the shape vector")
    route = route_model.forward(start.t, start.r, end.t, end.r, cloud_points, k)
    poses = pose_model.forward(start.p, start.h, end.p, end.h, route, cloud_points, k)
    frames = np.empty((k + 1, body.PARAM_DIM))
    frames[0] = start.flat()
    frames[k] = end.flat()
    for i in range(1, k):
        frames[i, 0:9] = route[i - 1]
        frames[i, 9:19] = start.beta
        frames[i, 19:75] = poses[i - 1]
    return MotionSequence(frames=frames, chunk_boundaries=[0, k])
