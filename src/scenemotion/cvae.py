"""Static goal-body CVAE: condition on (scene feature, shape, location,
orientation), encode/decode a 32-dim latent over the pose and hand latents.

The decoder predicts only (p, h); the conditioned (beta, t, r) pass through
unchanged so a sampled body can never contradict its requested goal.
"""

from __future__ import annotations

import numpy as np

from . import body
from .energy import EnergyWeights, scene_energy
from .errors import NumericError
from .nn.adam import AdamState, minibatch_epochs
from .nn.layers import Linear, ResidualBlock, leaky_relu, leaky_relu_backward
from .nn.params import Module, Param
from .nn.pointnet import FEATURE_DIM, PointEncoder
from .rotation import rot6d_to_matrix
# Unused here; the benchmark's binding-site check (perfbench/selftest.py
# BINDING_SITES) expects this module to bind it.
from .sdf import sample_sdf_batch  # noqa: F401

LATENT_DIM = 32
COND_INPUT_DIM = FEATURE_DIM + body.SHAPE_DIM + 3 + 6   # (F_s, beta, t, r)
BODY_VEC_DIM = body.PARAM_DIM                            # full 75-float record
PH_DIM = body.POSE_DIM + body.HAND_DIM                   # decoder output width
FIT_LR = 1e-2   # Adam step size of fit_latent


def kl_loss(mu, log_var):
    """KL(N(mu, sigma^2) || N(0, I)) summed over the last (latent) axis; >= 0."""
    mu = np.asarray(mu, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    return np.sum(0.5 * (mu * mu + np.exp(log_var) - 1.0 - log_var), axis=-1)


def kl_grads(mu, log_var):
    return mu.copy(), 0.5 * (np.exp(log_var) - 1.0)


class GoalCVAE(Module):
    def __init__(self, rng, hidden, cond_dim, point_hidden):
        self.hidden = hidden
        self.cond_dim = cond_dim
        self.point_enc = PointEncoder(rng, hidden=point_hidden, name="cvae.point")
        self.fuse = Linear(COND_INPUT_DIM, cond_dim, rng, name="cvae.fuse")
        self.enc_in = Linear(BODY_VEC_DIM, hidden, rng, name="cvae.enc_in")
        self.enc_blocks = [ResidualBlock(hidden, rng, name=f"cvae.enc_res{i}") for i in range(2)]
        self.enc_fc1 = Linear(hidden + cond_dim, hidden, rng, name="cvae.enc_fc1")
        self.enc_fc2 = Linear(hidden, 2 * LATENT_DIM, rng, name="cvae.enc_fc2")
        self.dec_in = Linear(LATENT_DIM + cond_dim, hidden, rng, name="cvae.dec_in")
        self.dec_blocks = [ResidualBlock(hidden, rng, name=f"cvae.dec_res{i}") for i in range(2)]
        self.dec_out = Linear(hidden, PH_DIM, rng, name="cvae.dec_out")

    # -- condition -------------------------------------------------------------

    def condition_from_feature(self, scene_feat, beta, t, r):
        """Fused conditional feature; inputs may be single vectors or batches."""
        scene_feat = np.atleast_2d(np.asarray(scene_feat, dtype=np.float64))
        beta = np.atleast_2d(np.asarray(beta, dtype=np.float64))
        t = np.atleast_2d(np.asarray(t, dtype=np.float64))
        r = np.atleast_2d(np.asarray(r, dtype=np.float64))
        n = max(len(scene_feat), len(beta))
        if len(scene_feat) == 1 and n > 1:
            scene_feat = np.broadcast_to(scene_feat, (n, FEATURE_DIM))
        x = np.concatenate([scene_feat, beta, t, r], axis=1)
        pre, cache = self.fuse.forward(x)
        return leaky_relu(pre), (cache, pre)

    def condition_backward(self, cache, g_cond):
        """dL/d(scene feature); (beta, t, r) are data and get no gradient."""
        fuse_cache, pre = cache
        return self.fuse.backward(fuse_cache, leaky_relu_backward(pre, g_cond))[:, :FEATURE_DIM]

    # -- encoder ----------------------------------------------------------------

    def encode(self, body_vec, cond):
        """(mu, log_var) of q(z | body, condition). Accepts batches."""
        x = np.atleast_2d(np.asarray(body_vec, dtype=np.float64))
        cond = np.atleast_2d(cond)
        h_pre, c_in = self.enc_in.forward(x)
        h = leaky_relu(h_pre)
        res_caches = []
        for blk in self.enc_blocks:
            h, c = blk.forward(h)
            res_caches.append(c)
        cat = np.concatenate([h, cond], axis=1)
        f_pre, c_fc1 = self.enc_fc1.forward(cat)
        f = leaky_relu(f_pre)
        out, c_fc2 = self.enc_fc2.forward(f)
        mu, log_var = out[:, :LATENT_DIM], out[:, LATENT_DIM:]
        cache = (c_in, h_pre, res_caches, c_fc1, f_pre, c_fc2)
        return mu, log_var, cache

    def encode_backward(self, cache, g_mu, g_log_var):
        c_in, h_pre, res_caches, c_fc1, f_pre, c_fc2 = cache
        g_out = np.concatenate([g_mu, g_log_var], axis=1)
        g_f = self.enc_fc2.backward(c_fc2, g_out)
        g_fpre = leaky_relu_backward(f_pre, g_f)
        g_cat = self.enc_fc1.backward(c_fc1, g_fpre)
        g_h = g_cat[:, :self.hidden]
        g_cond = g_cat[:, self.hidden:]
        for blk, c in zip(reversed(self.enc_blocks), reversed(res_caches)):
            g_h = blk.backward(c, g_h)
        g_hpre = leaky_relu_backward(h_pre, g_h)
        g_x = self.enc_in.backward(c_in, g_hpre)
        return g_x, g_cond

    # -- decoder ----------------------------------------------------------------

    def decode(self, z, cond):
        """Latent + condition -> (p, h) concatenated, deterministic."""
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        cond = np.atleast_2d(cond)
        x = np.concatenate([z, cond], axis=1)
        h_pre, c_in = self.dec_in.forward(x)
        h = leaky_relu(h_pre)
        res_caches = []
        for blk in self.dec_blocks:
            h, c = blk.forward(h)
            res_caches.append(c)
        ph, c_out = self.dec_out.forward(h)
        return ph, (c_in, h_pre, res_caches, c_out)

    def decode_backward(self, cache, g_ph):
        c_in, h_pre, res_caches, c_out = cache
        g_h = self.dec_out.backward(c_out, g_ph)
        for blk, c in zip(reversed(self.dec_blocks), reversed(res_caches)):
            g_h = blk.backward(c, g_h)
        g_hpre = leaky_relu_backward(h_pre, g_h)
        g_x = self.dec_in.backward(c_in, g_hpre)
        return g_x[:, :LATENT_DIM], g_x[:, LATENT_DIM:]

    # -- inference ----------------------------------------------------------------

    def sample_goal_bodies(self, beta, ts, rs, scene_feat, seeds):
        """One goal body per row of ``ts`` (G, 3) and ``rs`` (G, 6), all decoded
        in one batch. Goal g draws z ~ N(0, I) from ``default_rng(seeds[g])``;
        (beta, t, r) pass through verbatim.

        ``scene_feat`` is the scene cloud's ``point_enc`` feature, so a caller
        encodes the cloud once for every use. Raises InvalidRotationError
        naming the first degenerate row of ``rs``.
        """
        beta = np.asarray(beta, dtype=np.float64)
        ts = np.asarray(ts, dtype=np.float64).reshape(-1, 3)
        rs = np.asarray(rs, dtype=np.float64).reshape(-1, 6)
        rot6d_to_matrix(rs)
        cond = self.condition_from_feature(
            scene_feat, np.broadcast_to(beta, (len(ts), body.SHAPE_DIM)), ts, rs)[0]
        z = np.stack([np.random.default_rng(seed).standard_normal(LATENT_DIM)
                      for seed in seeds])
        ph = self.decode(z, cond)[0]
        return [body.BodyParams(t=t, r=r, beta=beta, p=row[:body.POSE_DIM],
                                h=row[body.POSE_DIM:])
                for t, r, row in zip(ts, rs, ph)]

    def sample_goal_body(self, beta, t, r, scene_feat, seed=0):
        """Draw z ~ N(0, I) and decode; (beta, t, r) pass through verbatim."""
        return self.sample_goal_bodies(beta, [t], [r], scene_feat, [seed])[0]


def fit_latent(model, cond, target_ph, steps=500, seed=0):
    """Adam-fit a latent whose decoding matches (p, h) in l1, at step size
    ``FIT_LR``; returns z."""
    rng = np.random.default_rng(seed)
    z = Param("fit.z", 0.1 * rng.standard_normal(LATENT_DIM))
    adam = AdamState([z])
    target = np.asarray(target_ph, dtype=np.float64).reshape(1, PH_DIM)
    for _ in range(steps):
        ph, cache = model.decode(z.value, cond)
        resid = ph - target
        loss = np.abs(resid).sum()
        if not np.isfinite(loss):
            raise NumericError("latent fit diverged to a non-finite loss")
        model.zero_grad()
        z.zero_grad()
        g_z, _ = model.decode_backward(cache, np.sign(resid))
        z.grad += g_z[0]
        adam.step(FIT_LR)
    return z.value.copy()


class CVAETrainer:
    """Joint training of condition/encoder/decoder with scene-aware penalties.

    Loss per item: l1 reconstruction of (p, h) + w_kl * KL + w_col * collision
    + w_cont * contact on the decoded body; averaged over the batch. The KL
    weight linearly warms up over the first ``warmup_frac`` of total steps.
    """

    def __init__(self, model, template, scene_fields, w_kl=0.1, w_col=0.01, w_cont=0.01,
                 warmup_frac=0.1, total_steps=None, seed=0):
        self.model = model
        self.template = template
        self.scene_fields = scene_fields  # scene_id -> SceneField
        self.clouds = {sid: f.cloud.points for sid, f in scene_fields.items()}
        self.w_kl = w_kl
        self.w_col = w_col
        self.w_cont = w_cont
        self.warmup_frac = warmup_frac
        self.total_steps = total_steps
        self.rng = np.random.default_rng(seed)
        self.adam = AdamState(model.params())
        self.step_count = 0

    def kl_weight(self):
        if self.w_kl == 0.0 or not self.total_steps:
            return self.w_kl
        warmup = max(1, int(self.warmup_frac * self.total_steps))
        return self.w_kl * min(1.0, (self.step_count + 1) / warmup)

    def train_step(self, batch_vecs, scene_ids, lr=1e-3):
        """One Adam update on a batch of flat 75-float body records."""
        x = np.asarray(batch_vecs, dtype=np.float64).reshape(-1, BODY_VEC_DIM)
        eps = self.rng.standard_normal((len(x), LATENT_DIM))
        stats = self.forward_backward(x, scene_ids, eps)
        self.adam.step(lr)
        self.step_count += 1
        return stats

    def forward_backward(self, batch_vecs, scene_ids, eps):
        """Deterministic loss + parameter gradients for a fixed noise draw."""
        model = self.model
        x = np.asarray(batch_vecs, dtype=np.float64).reshape(-1, BODY_VEC_DIM)
        n = len(x)
        if n < 1:
            raise ValueError("batch must contain at least one body")
        beta, t, r = x[:, body.BETA], x[:, body.T], x[:, body.R]
        gt_ph = x[:, body.POSE]

        scene_feat, feat_caches = model.point_enc.encode_scenes(scene_ids, self.clouds)
        cond, cond_cache = model.condition_from_feature(scene_feat, beta, t, r)
        mu, log_var, enc_cache = model.encode(x, cond)
        sigma = np.exp(0.5 * log_var)
        z = mu + sigma * eps
        ph, dec_cache = model.decode(z, cond)

        recon = np.abs(ph - gt_ph).sum(axis=1)
        kl = kl_loss(mu, log_var)
        w_kl = self.kl_weight()

        g_ph = np.sign(ph - gt_ph) / n
        e_col_val = 0.0
        e_cont_val = 0.0
        if self.w_col != 0.0 or self.w_cont != 0.0:
            decoded = x.copy()
            decoded[:, body.POSE] = ph
            e_col_val, e_cont_val, g_body = self._body_energies(decoded, scene_ids)
            g_ph += g_body

        total = (recon.mean() + w_kl * kl.mean() + self.w_col * e_col_val
                 + self.w_cont * e_cont_val)
        if not np.isfinite(total):
            raise NumericError(f"CVAE training loss is non-finite at step {self.step_count}")

        model.zero_grad()
        g_z, g_cond_dec = model.decode_backward(dec_cache, g_ph)
        g_kl_mu, g_kl_log_var = kl_grads(mu, log_var)
        g_mu = g_z + (w_kl / n) * g_kl_mu
        g_log_var = g_z * eps * 0.5 * sigma + (w_kl / n) * g_kl_log_var
        _, g_cond_enc = model.encode_backward(enc_cache, g_mu, g_log_var)
        g_feat = model.condition_backward(cond_cache, g_cond_dec + g_cond_enc)
        model.point_enc.backward_scenes(scene_ids, feat_caches, g_feat)

        return {"total": float(total), "recon": float(recon.mean()), "kl": float(kl.mean()),
                "kl_weight": float(w_kl), "e_col": float(e_col_val), "e_cont": float(e_cont_val)}

    def run_epochs(self, vecs, scene_ids, epochs, batch_size, lr, log=None):
        """Shuffled mini-batch epochs; returns per-epoch mean total losses."""
        def step(epoch, idx):
            return self.train_step(vecs[idx], [scene_ids[i] for i in idx], lr=lr)["total"]

        seed = self.rng.integers(2**31)
        return minibatch_epochs(len(vecs), epochs, batch_size, np.random.default_rng(seed),
                                step, log, "cvae")

    def _body_energies(self, frames, scene_ids):
        """Batch-mean collision and contact of decoded bodies (n, 75), plus the
        gradient of w_col * collision + w_cont * contact w.r.t. their (p, h).

        ``energy.scene_energy`` scores each scene's bodies together, as frames
        of one sequence, with the foot and smoothness terms weighted 0."""
        n = len(frames)
        weights = EnergyWeights(foot=0.0, col=self.w_col / n, cont=self.w_cont / n, smooth=0.0)
        mesh, cache = body.forward_batch_with_cache(self.template, frames)
        g = np.zeros(mesh.vertices.shape)
        col = cont = 0.0
        for sid in dict.fromkeys(scene_ids):
            rows = np.array([i for i, s in enumerate(scene_ids) if s == sid])
            report, g[rows] = scene_energy(self.template, mesh.vertices[rows],
                                           self.scene_fields[sid], weights, [], want_grad=True)
            col += report.col
            cont += report.cont
        return col / n, cont / n, body.pullback_batch(cache, g)[:, body.VAR_POSE]
