"""Adam with bias correction over Param objects, and the shuffled mini-batch
epoch loop every trainer runs.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """First/second moment buffers plus the shared step counter.

    A step allocates no array the size of a parameter: it works in one
    scratch pair, sized to the largest parameter and allocated here with the
    moments, and does the textbook update's operations in the same order, so
    its results are bit-identical to it. It runs on the calling thread.

    The optimizer owns the gradient slots it reads (``Param.grad``, which a
    model that is only run never creates): it creates every parameter's slot
    here, before the moments, so a trainer's slots and moments are allocated
    together, outside its steps. Refinement (``AdamState([x])``) and
    ``cvae.fit_latent`` train one parameter each, which their first ``grad``
    write would create anyway, so they behave as before.
    """

    def __init__(self, params):
        self.params = list(params)
        for p in self.params:
            p.grad  # noqa: B018 -- the first read creates the slot
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        size = max((p.value.size for p in self.params), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, lr):
        """One Adam update from the params' grad slots; grads are not cleared."""
        if not (np.isfinite(lr) and lr > 0.0):
            raise ValueError(f"learning rate must be a finite positive number, got {lr}")
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise NumericError(f"non-finite gradient in parameter {p.name!r}")
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            a, b = (s[:g.size].reshape(g.shape) for s in self._scratch)
            # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=a)
            a *= g
            v += a
            # value -= (lr (m / bc1)) / (sqrt(v / bc2) + eps)
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            a += EPS
            np.divide(m, bc1, out=b)
            b *= lr
            b /= a
            p.value -= b


def minibatch_epochs(n, epochs, batch_size, rng, step, log, tag):
    """Shuffled mini-batch epochs over ``n`` items; returns per-epoch mean losses.

    Each epoch draws one ``rng.permutation(n)`` and calls ``step(epoch, idx)``
    on consecutive slices of ``batch_size`` indices; ``step`` returns the
    batch loss. Unless ``log`` is None, each epoch logs
    ``"{tag} epoch e/E: loss x"`` through it.
    """
    if n == 0:
        raise ValueError("empty training set")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    curve = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = [step(epoch, order[lo:lo + batch_size]) for lo in range(0, n, batch_size)]
        curve.append(float(np.mean(losses)))
        if log:
            log(f"{tag} epoch {epoch + 1}/{epochs}: loss {curve[-1]:.4f}")
    return curve
