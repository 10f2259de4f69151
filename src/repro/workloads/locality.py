"""Locality parameterization and measurement.

Fig. 14 sweeps the input-trace locality with a parameter K; the paper
gives the resulting cache hit ratios directly: K=0 -> 80%, K=1 -> 45%,
K=2 -> 30%, with the default synthetic trace at K=0.3 -> 65%.  We
interpolate the published points (log-linearly in K, which fits the
four published values well) so intermediate Ks are meaningful.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.ssd.vcache import VectorCache

#: The paper's published (K, hit-ratio) pairs.
K_TO_HIT_RATIO: Dict[float, float] = {
    0.0: 0.80,
    0.3: 0.65,
    1.0: 0.45,
    2.0: 0.30,
}


def hit_ratio_for_k(k: float) -> float:
    """Hit ratio for a locality parameter K.

    Published points are returned exactly; other Ks interpolate
    piecewise-linearly between (and clamp beyond) them.
    """
    if k < 0:
        raise ValueError("K must be non-negative")
    points = sorted(K_TO_HIT_RATIO.items())
    if k in K_TO_HIT_RATIO:
        return K_TO_HIT_RATIO[k]
    if k <= points[0][0]:
        return points[0][1]
    if k >= points[-1][0]:
        return points[-1][1]
    for (k0, h0), (k1, h1) in zip(points, points[1:]):
        if k0 <= k <= k1:
            fraction = (k - k0) / (k1 - k0)
            return h0 + fraction * (h1 - h0)
    raise AssertionError("unreachable")


def measured_cache_hit_ratio(keys, capacity_entries: int) -> float:
    """Replay the int64 key codes ``keys`` (e.g.
    :meth:`~repro.workloads.tracegen.TraceGenerator.flat_indices`)
    through an LRU cache and report its hit ratio.

    Used to verify the generator: with capacity covering the hot set,
    the measured ratio converges to the configured
    ``hot_access_fraction``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    # A capacity past the accesses would behave the same.
    cache = VectorCache(min(capacity_entries, keys.size))
    cache.hit_mask(keys)
    return cache.hit_ratio
