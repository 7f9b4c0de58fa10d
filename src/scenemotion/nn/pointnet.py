"""Order-invariant point-set encoder: shared MLP, max-pool, output projection.

No input-transform sub-network: the encoder must not re-align the scene,
since body and scene share one coordinate frame.
"""

from __future__ import annotations

import numpy as np

from .layers import MLP, Linear
from .params import Module

FEATURE_DIM = 256


class PointEncoder(Module):
    def __init__(self, rng, hidden=(64, 128), name="pointenc"):
        self.point_hidden = tuple(hidden)
        dims = (3,) + tuple(hidden) + (FEATURE_DIM,)
        self.mlp = MLP(dims, rng, name=f"{name}.mlp")
        self.proj = Linear(FEATURE_DIM, FEATURE_DIM, rng, name=f"{name}.proj")

    def forward(self, points):
        """points: (M, 3) -> 256-vector feature."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise ValueError(f"expected non-empty (M, 3) point array, got shape {pts.shape}")
        per_point, mlp_cache = self.mlp.forward(pts)
        # first-occurrence argmax keeps pooling deterministic under ties
        argmax = per_point.argmax(axis=0)
        pooled = per_point[argmax, np.arange(FEATURE_DIM)]
        feat, proj_cache = self.proj.forward(pooled)
        return feat, (pts.shape[0], mlp_cache, argmax, proj_cache)

    def backward(self, cache, g_feat):
        m, mlp_cache, argmax, proj_cache = cache
        g_pooled = self.proj.backward(proj_cache, np.asarray(g_feat, dtype=np.float64))
        g_per_point = np.zeros((m, FEATURE_DIM))
        g_per_point[argmax, np.arange(FEATURE_DIM)] = g_pooled
        return self.mlp.backward(mlp_cache, g_per_point)

    def encode_scenes(self, scene_ids, clouds):
        """Features (N, 256) for a batch whose row i lies in scene
        ``scene_ids[i]``, with one pass per distinct scene of ``clouds``
        ({scene_id: (M, 3) points}); returns (feats, per-scene caches)."""
        feats, caches = {}, {}
        for sid in sorted(set(scene_ids)):
            feats[sid], caches[sid] = self.forward(clouds[sid])
        return np.stack([feats[sid] for sid in scene_ids]), caches

    def backward_scenes(self, scene_ids, caches, g_feats):
        """Backward of encode_scenes: one pass per scene on its rows' summed gradient."""
        for sid in sorted(set(scene_ids)):
            rows = [i for i, s in enumerate(scene_ids) if s == sid]
            self.backward(caches[sid], g_feats[rows].sum(axis=0))
