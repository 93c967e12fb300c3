"""Deterministic derivation of per-stage random generators.

Every stochastic step of the pipeline (synthesis, block extraction, the
train/test split, weight init, batch sampling) gets its own child generator
derived from the single config seed plus a few name tokens, so reruns with
the same config reproduce every output bit.
"""

import zlib

import numpy as np


def _sequence(seed, parts):
    """The SeedSequence keyed on `seed` and the CRC-32 of each stage/name token in `parts`."""
    return np.random.SeedSequence([int(seed), *(zlib.crc32(str(p).encode("utf-8")) for p in parts)])


def derive_rng(seed, *parts):
    """Child generator keyed on `seed` and the stage/name tokens in `parts`."""
    return np.random.default_rng(_sequence(seed, parts))


def derive_seed(seed, *parts):
    """Plain integer seed derived the same way, for APIs that take one."""
    return int(_sequence(seed, parts).generate_state(1, np.uint64)[0])
