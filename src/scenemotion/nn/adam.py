"""Adam with bias correction over Param objects, and the shuffled mini-batch
epoch loop every trainer runs.

A step checks every gradient on the calling thread, then updates one of two
fixed parameter groups on the worker thread (``scenemotion._worker``) while
the calling thread updates the other. The worker runs only ``_update``, a
plain numpy loop: the step itself, which the benchmark traces, stays on the
calling thread.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .._worker import both
from ..errors import NumericError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """First/second moment buffers plus the shared step counter.

    A step allocates no array the size of a parameter: it works in scratch
    buffers allocated here with the moments, and does the textbook update's
    operations in the same order, so its results are bit-identical to it.

    The parameters are split once, here, into two groups of about equal size
    (largest first, each into the smaller group). A step updates one group on
    the worker thread (``scenemotion._worker``) while the calling thread
    updates the other; each group has its own scratch pair, sized to its
    largest parameter. A state of one parameter, such as refinement's, has one
    group and updates it on the calling thread.
    """

    def __init__(self, params):
        self.params = list(params)
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        groups, sizes = ([], []), [0, 0]
        for i in sorted(range(len(self.params)), key=lambda i: -self.params[i].value.size):
            g = sizes.index(min(sizes))
            groups[g].append(i)
            sizes[g] += self.params[i].value.size
        self._groups = []
        for group in filter(None, groups):
            size = self.params[group[0]].value.size
            self._groups.append((group, (np.empty(size), np.empty(size))))

    def step(self, lr):
        """One Adam update from the params' grad slots; grads are not cleared."""
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise NumericError(f"non-finite gradient in parameter {p.name!r}")
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        updates = [partial(_update, [(self.params[i], self.m[i], self.v[i]) for i in group],
                           scratch, lr, bc1, bc2) for group, scratch in self._groups]
        if len(updates) == 2:
            both(*updates)
        else:
            for update in updates:
                update()


def _update(entries, scratch, lr, bc1, bc2):
    """The Adam update of every (param, m, v) in ``entries``, in ``scratch``."""
    for p, m, v in entries:
        g = p.grad
        a, b = (s[:g.size].reshape(g.shape) for s in scratch)
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
    curve = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = [step(epoch, order[lo:lo + batch_size]) for lo in range(0, n, batch_size)]
        curve.append(float(np.mean(losses)))
        if log:
            log(f"{tag} epoch {epoch + 1}/{epochs}: loss {curve[-1]:.4f}")
    return curve
