"""Seed derivation for reproducible multi-trial experiments.

One master seed drives a whole experiment; every trial gets its own
derived seed so trials can run in any order (or in parallel) and any
single trial can be replayed in isolation.  A master seed is any
integer, taken mod 2**64 (a float is refused), and the derivation rule is

    trial_seed(master, i) = first 64-bit word of SeedSequence((master, i))

numpy's SeedSequence hash is documented to be stable across platforms
and releases, and generators built from it (PCG64 via default_rng) draw
bounded uniform integers with Lemire rejection, i.e. without modulo bias.
"""
from __future__ import annotations

import numpy as np

from .graphs import _at_least, _whole

_MASK64 = (1 << 64) - 1


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Derive the seed for one trial from the experiment master seed."""
    master_seed = _whole("master_seed", master_seed) & _MASK64
    trial_index = _at_least("trial_index", trial_index, 0)
    ss = np.random.SeedSequence((master_seed, trial_index))
    return int(ss.generate_state(1, np.uint64)[0])
