"""One worker thread beside the calling thread, for work that shares nothing with it.

The package assumes two cores and, by its runtime policy (``_runtime``), a
one-thread BLAS. Large BLAS calls and ufunc loops release the GIL, so these
pieces of work run on a second thread while the calling thread runs its own:

- the backward-in-time direction of a BiLSTM's forward and backward passes;
- every other frame block of the body kernel, and of its adjoint;
- the weight-gradient GEMM of fc1's step columns in the RouteNet/PoseNet
  head, while the calling thread computes the rest of its backward.

These four ``both`` sites each have a measured gain (README, "Refinement,
energy reports and training use the same two threads"); the rest of the
package runs on the calling thread. Each piece does the same arithmetic on
either thread, so every result is bit-identical to running the pieces in
turn.

The process holds one worker. The first ``both`` call starts it and every
later call, from any module, hands its work to that one; it lives until the
process ends. A ``both`` made on the worker itself runs its two pieces in
turn, since the worker cannot wait on itself. A forked child drops the
parent's worker, whose thread the fork did not copy, and the child's first
``both`` starts its own. No thread is started at import. Work runs in a copy
of the caller's context, so the caller's ``np.errstate`` holds on the worker
too.

The worker runs plain closures and numpy calls only, never a function the
benchmark's tracer (``perfbench/tracing.py``) wraps, in inference as in
training: the tracer keeps one span stack per process.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor

_lock = threading.Lock()
_pool = None
_thread = None  # the worker's thread, once it has started


def _started():
    global _thread
    _thread = threading.current_thread()


def _forked():
    global _lock, _pool, _thread
    _lock, _pool, _thread = threading.Lock(), None, None


os.register_at_fork(after_in_child=_forked)


def both(mine, theirs):
    """``(mine(), theirs())``, with ``theirs`` on the worker meanwhile; an
    exception ``theirs`` raises reaches the caller, ahead of one ``mine`` raised."""
    global _pool
    if threading.current_thread() is _thread:
        finish = theirs  # on the worker: in turn
    else:
        with _lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(max_workers=1, initializer=_started)
            finish = _pool.submit(contextvars.copy_context().run, theirs).result
    try:
        out = mine()
    finally:
        other = finish()
    return out, other
