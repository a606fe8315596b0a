"""A fixed reference task that measures how fast the host runs at the moment.

On a 2-vCPU Xeon VM shared with other tenants, the host's speed drifts by
about ±20% over minutes, and the drift moves every timing of a run together:
medians over 25-second windows of the feature path, the image path
and a CLI import spread 0.18–0.25 (interquartile range over median), and
longer windows did not shrink that.  The ratio of each to an image-diff
task timed in the same windows spread only 0.05–0.08.

So every run times this task between its operations, all through the run,
and scales its end-to-end timings by ``NOMINAL_MS`` / the task's median time
in that run: the figures are what the run would have measured on a host
where the task takes ``NOMINAL_MS``.  The task uses only numpy and the
standard library on inputs fixed here, never the package, so a change to the
package cannot change the task's work.
"""

from __future__ import annotations

import json
import time

import numpy as np

# About the task's median on the 2-vCPU Xeon VM the bounds were set on.
NOMINAL_MS = 3.0

_rng = np.random.default_rng(0)
_FRAMES = _rng.integers(0, 256, size=(16, 96, 96, 3), dtype=np.uint8)
_KEYS = _rng.permutation(3000).tolist()
# Work buffers, so the task allocates no large array: how fast a fresh
# allocation is depends on what the process allocated and freed before,
# which is up to the package.
_WIDE = np.empty(_FRAMES.shape, dtype=np.int16)
_DIFF = np.empty((_FRAMES.shape[0] - 1, *_FRAMES.shape[1:]), dtype=np.int16)
_FLOAT = np.empty(_FRAMES.shape, dtype=np.float32)


def _task() -> None:
    """Array work like the image path's (frame differences, a float
    conversion) and interpreted work like the sampler's (a loop, a sort,
    JSON out and back)."""
    np.copyto(_WIDE, _FRAMES)
    np.subtract(_WIDE[1:], _WIDE[:-1], out=_DIFF)
    np.abs(_DIFF, out=_DIFF)
    np.copyto(_FLOAT, _FRAMES)
    np.multiply(_FLOAT, _FLOAT, out=_FLOAT)
    energy = float(_FLOAT.mean()) + float(_DIFF.sum(dtype=np.int64))
    acc = 0
    for k in _KEYS:
        acc = (acc * 31 + k) % 1000003
    order = sorted(_KEYS, key=lambda k: (k * 7919) % 3001)
    json.loads(json.dumps({"order": order[:500], "acc": acc, "energy": energy}))


def reference_ms() -> float:
    """Wall time of the task in milliseconds, timed on its second of two
    back-to-back runs: the first brings its data into the CPU caches, so the
    time does not depend on what the operation before it evicted."""
    _task()
    t0 = time.perf_counter_ns()
    _task()
    return (time.perf_counter_ns() - t0) / 1e6
