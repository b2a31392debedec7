"""Shared test helpers (importable as ``tests.helpers``).

Kept separate from ``conftest.py`` so test modules can import utilities
explicitly — conftest stays fixtures-only, and ``python -m pytest``
collects cleanly without relying on conftest's import side effects.
"""

import hashlib

import numpy as np


def numerical_grad(f, x, eps=1e-5):
    """Central-difference gradient of scalar-valued f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def array_sha256(a, dtype=None):
    """Hex sha256 of an array's bytes (after an optional dtype cast)."""
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()


def spd_oracle(g, max_dist):
    """Truncated SPD matrix built one source at a time from ``bfs_distances``.

    The reference ``truncated_spd_matrix`` is held to: hops clipped at
    ``max_dist``, unreachable or farther pairs in the ``max_dist + 1`` bucket.
    """
    from repro.graph import bfs_distances

    want = np.full((g.num_nodes, g.num_nodes), max_dist + 1, dtype=np.int16)
    for s in range(g.num_nodes):
        d = bfs_distances(g, s)
        near = (d >= 0) & (d <= max_dist)
        want[s, near] = d[near]
    return want
