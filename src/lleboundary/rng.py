"""Reproducible random draws.

``uniform(seed, n)`` and ``normal(seed, n)`` read the first raw 64-bit words
of a Philox-4x64 counter-based bit generator keyed by the seed. Variates come
from fixed transforms of those words, not the numpy Generator frontend, so
draws are bit-stable across platforms and numpy versions:

* uniform on [0, 1):  u = (raw >> 11) * 2**-53
* standard normal:    Box-Muller on m = ceil(n/2) pairs, u1 from the first m
  words shifted into (0, 1], u2 from the next m; the first n entries of
  [r cos(2 pi u2), r sin(2 pi u2)] with r = sqrt(-2 log u1)
"""

import numpy as np

_TWO_M53 = 2.0 ** -53


def _raw(seed: int, n: int) -> np.ndarray:
    if not 0 <= seed < 2 ** 128:  # Philox's key is 128 bits
        raise ValueError(f"seed must be a nonnegative integer below 2**128, got {seed}")
    return np.random.Philox(key=int(seed)).random_raw(int(n))


def uniform(seed: int, n: int) -> np.ndarray:
    """n i.i.d. uniforms on [0, 1)."""
    return (_raw(seed, n) >> np.uint64(11)).astype(np.float64) * _TWO_M53


def normal(seed: int, n: int) -> np.ndarray:
    """n i.i.d. standard normals via Box-Muller."""
    m = (int(n) + 1) // 2
    raw = _raw(seed, 2 * m)
    # u1 in (0, 1] so log(u1) is finite; u2 in [0, 1)
    u1 = ((raw[:m] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _TWO_M53
    u2 = (raw[m:] >> np.uint64(11)).astype(np.float64) * _TWO_M53
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:int(n)]
