"""Deterministic per-entry seed derivation.

A SplitMix64-style finalizer over (master_seed, stream index) so that
parallel build order never affects which random stream an entry sees.
Every stream of a run is seeded by ``mix_seed(master_seed, index)``,
with one index range per role: table entry ``b`` uses ``b``; replicate
``r`` of truth ``t`` uses ``OBSERVED_OFFSET + t * REPLICATE_BLOCK + r``
for its observed network (``observed_seed``) and
``FILL_OFFSET + t * REPLICATE_BLOCK + r`` for its zero-density fills
(``fill_seed``); auxiliary standardisation draw ``i`` uses
``AUX_OFFSET + i`` (``aux_seed``). ``RunConfig.validate`` keeps every
index inside its role's range. ``abc_run`` without an observed vector,
CLI ``ingest`` and the timing report use replicate (0, 0), the study's
first.
"""

import functools

_MASK = (1 << 64) - 1

# fixed stream-index offsets so different harness roles never collide
OBSERVED_OFFSET = 1_000_000_000
AUX_OFFSET = 2_000_000_000
FILL_OFFSET = 3_000_000_000
# stream indices per truth: the replicates of one truth
REPLICATE_BLOCK = 100_000


def mix_seed(master_seed, index):
    """64-bit mix of a master seed and a stream index."""
    z = (int(master_seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _replicate_seed(offset, master_seed, truth_idx, rep):
    return mix_seed(master_seed, offset + truth_idx * REPLICATE_BLOCK + rep)


# (master_seed, truth_idx, rep) -> seed of that replicate's stream
observed_seed = functools.partial(_replicate_seed, OBSERVED_OFFSET)
fill_seed = functools.partial(_replicate_seed, FILL_OFFSET)


def aux_seed(master_seed, i):
    return mix_seed(master_seed, AUX_OFFSET + i)
