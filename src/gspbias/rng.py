"""Counter-based random streams for reproducible, order-independent simulation.

Every stochastic unit of work (a trial, a traffic access, a batch of draws)
reads from a Philox stream addressed by an integer unit index.  One Philox
counter block yields exactly four float64 uniforms, so a unit that owns
``blocks_per_unit`` blocks always sees the same uniforms no matter how the
surrounding units are chunked across workers.  All downstream randomness is
derived from these uniforms by inverse-CDF transforms, never by stateful
generator methods, which keeps the per-unit consumption fixed.
"""

from __future__ import annotations

import numpy as np

DOUBLES_PER_BLOCK = 4


def stream_key(master_seed: int, *path: int) -> np.ndarray:
    """Derive a 128-bit Philox key from the master seed and a label path.

    Distinct paths give statistically independent streams; the same path
    always gives the same key.
    """
    seq = np.random.SeedSequence((int(master_seed),) + tuple(int(p) for p in path))
    return seq.generate_state(2, np.uint64)


def unit_uniforms(key: np.ndarray, start_unit: int, n_units: int,
                  blocks_per_unit: int = 1) -> np.ndarray:
    """Uniform draws for units ``start_unit .. start_unit + n_units - 1``.

    Returns an array of shape ``(n_units, 4 * blocks_per_unit)`` where row
    ``r`` depends only on ``key`` and ``start_unit + r``.  Generating the
    same units in any chunking yields bit-identical rows.
    """
    if n_units == 0:
        return np.empty((0, DOUBLES_PER_BLOCK * blocks_per_unit))
    counter = int(start_unit) * int(blocks_per_unit)
    bitgen = np.random.Philox(counter=counter, key=key)
    gen = np.random.Generator(bitgen)
    return gen.random((n_units, DOUBLES_PER_BLOCK * blocks_per_unit))


def fixed_blocks(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """[lo, hi) cut into consecutive ``size``-long (start, stop) pairs, the last
    one shorter: a cut that no thread count changes, one parallel task each."""
    return [(a, min(a + size, hi)) for a in range(lo, hi, size)]
