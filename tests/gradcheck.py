"""Central finite-difference gradient checking for params and inputs."""

from __future__ import annotations

import numpy as np


def fd_grad(fn, x, h=1e-4):
    """Dense central-difference gradient of scalar ``fn`` at array ``x``."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(x)
        flat[i] = orig - h
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def fd_directional(fn, x, direction, h=1e-4):
    """Central-difference directional derivative along ``direction``."""
    x = np.asarray(x, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    return (fn(x + h * d) - fn(x - h * d)) / (2.0 * h)


def rel_error(analytic, numeric, floor=1e-8):
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), floor)
    return np.abs(a - n).max(initial=0.0) / denom


def check_param_grads(loss_fn, params, h=1e-4, tol=1e-3, value_fn=None):
    """Compare each Param's grad slot against finite differences of loss_fn.

    ``loss_fn`` takes no arguments, runs forward+backward from fresh zeroed
    grads, and returns the scalar loss. ``value_fn``, if given, returns the
    same loss from the forward pass alone and takes the finite differences
    in its place. Returns the worst relative error.
    """
    for p in params:
        p.zero_grad()
    loss_fn()
    analytic = [p.grad.copy() for p in params]
    value = value_fn or (lambda: _loss_only(loss_fn, params))
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.value.ravel()
        gn = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = value()
            flat[i] = orig - h
            fm = value()
            flat[i] = orig
            gn[i] = (fp - fm) / (2.0 * h)
        err = rel_error(ga, gn.reshape(p.value.shape))
        worst = max(worst, err)
        if err > tol:
            raise AssertionError(f"gradient check failed for {p.name}: rel error {err:.3e} > {tol}")
    return worst


def _loss_only(loss_fn, params):
    for p in params:
        p.zero_grad()
    return loss_fn()


def check_param_grads_directional(loss_fn, params, n_cases=50, h=1e-4, tol=1e-3, seed=0):
    """Randomized directional FD checks over the joint parameter space.

    Each case draws a random unit direction across all params and compares
    the analytic directional derivative (from the grad slots) against a
    central difference. Far cheaper than a dense check at the same trust
    level for large parameter counts. Returns the worst relative error.
    """
    rng = np.random.default_rng(seed)
    for p in params:
        p.zero_grad()
    loss_fn()
    analytic_grads = [p.grad.copy() for p in params]
    originals = [p.value.copy() for p in params]
    worst = 0.0
    for case in range(n_cases):
        dirs = [rng.standard_normal(p.value.shape) for p in params]
        norm = np.sqrt(sum(float((d * d).sum()) for d in dirs))
        dirs = [d / norm for d in dirs]
        analytic = sum(float((g * d).sum()) for g, d in zip(analytic_grads, dirs))
        for p, o, d in zip(params, originals, dirs):
            p.value[...] = o + h * d
        fp = _loss_only(loss_fn, params)
        for p, o, d in zip(params, originals, dirs):
            p.value[...] = o - h * d
        fm = _loss_only(loss_fn, params)
        for p, o in zip(params, originals):
            p.value[...] = o
        numeric = (fp - fm) / (2.0 * h)
        denom = max(abs(analytic), abs(numeric), 1e-8)
        err = abs(analytic - numeric) / denom
        worst = max(worst, err)
        if err > tol:
            raise AssertionError(f"directional gradient check failed (case {case}): "
                                 f"analytic {analytic:.6e} vs numeric {numeric:.6e}")
    for p in params:
        p.zero_grad()
    loss_fn()
    return worst
