"""One worker thread beside the calling thread, for work that shares nothing with it.

The package assumes two cores and, by its runtime policy (``_runtime``), a
one-thread BLAS. Large BLAS calls, ufunc loops and scipy's k-d query release
the GIL, so these pieces of work run on a second thread while the calling
thread runs its own:

- the backward-in-time direction of a BiLSTM pass;
- every other frame block of the body kernel, and of its adjoint;
- the contact query of an energy evaluation;
- the weight-gradient GEMM of a linear backward (``nn.layers.Linear`` and
  fc1's step columns in the RouteNet/PoseNet head), while the calling thread
  computes the input cotangent;
- one of an Adam state's two parameter groups (``nn.adam.AdamState``).

Each piece does the same arithmetic on either thread, so every result is
bit-identical to running the pieces in turn.

``with worker():`` opens one worker for the block unless one is open already;
every ``both`` call inside, on the same thread, hands its work to that one.
Refinement opens one per call, an energy report one per report, and each
training call (``train_route_net``, ``train_pose_net``, ``CVAETrainer``'s
``train_step`` and ``run_epochs``, ``fit_latent``) one per call, so their
many fan-outs share one thread; a call outside any block opens its own. No
thread is started at import or outlives its block. Work runs in a copy of the
caller's context, so the caller's ``np.errstate`` holds on the worker too.

The worker runs plain closures and numpy calls only, never a function the
benchmark's tracer (``perfbench/tracing.py``) wraps, in inference as in
training: the tracer keeps one span stack per process.
"""

from __future__ import annotations

import contextlib
import contextvars
from concurrent.futures import ThreadPoolExecutor

_open = contextvars.ContextVar("scenemotion_worker", default=None)


@contextlib.contextmanager
def worker():
    """The worker open on this thread, or a new one for the ``with`` block."""
    pool = _open.get()
    if pool is not None:
        yield pool
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        token = _open.set(pool)
        try:
            yield pool
        finally:
            _open.reset(token)


def _on_worker(fn):
    # no worker is open on the worker itself, so work there that fans out
    # again opens its own instead of waiting on its own thread
    _open.set(None)
    return fn()


def both(mine, theirs):
    """``(mine(), theirs())``, with ``theirs`` on the worker meanwhile; an
    exception ``theirs`` raises reaches the caller, ahead of one ``mine`` raised."""
    with worker() as pool:
        pending = pool.submit(contextvars.copy_context().run, _on_worker, theirs)
        try:
            out = mine()
        finally:
            other = pending.result()
    return out, other
