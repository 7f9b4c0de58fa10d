"""Adam with bias correction, over named Param objects or raw arrays."""

from __future__ import annotations

import numpy as np

from ..errors import NumericError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params, beta1=BETA1, beta2=BETA2, eps=EPS):
        self.params = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self, lr):
        """One Adam update from the params' grad slots; grads are not cleared."""
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise NumericError(f"non-finite gradient in parameter {p.name!r}")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
