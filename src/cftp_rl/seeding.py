"""Deterministic stream derivation for reproducible, parallelizable runs.

All randomness enters through seeded ``numpy.random.Generator`` streams,
in one of two forms.

- **Substreams.** ``substream(seed, *path)`` extends the SeedSequence spawn
  key with integer path components, so the stream for (seed, run, t) never
  depends on how many other streams were created before it. Every call
  site that takes a Generator (the CLI runners, ``mwal``,
  ``cftp_batch``, ``expert_stationary_samples``, the estimators) derives
  its streams this way.
- **Keyed uniforms.** ``SampleMatrix`` draws one short row per past time
  t, and ``mwal_generative`` one short game-column walk per round t. A
  fresh substream per row or round costs more than its draws, so both
  read a counter-based Philox stream instead (Salmon, Moraes, Dror &
  Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
  ``KeyedUniforms(seed)`` derives one 128-bit key per seed; ``at(t)``
  starts the stream at the one counter word t, counter (0, t, 0, 0), so
  row t, or round t's draws, is a pure function of (seed, t). A keyed draw
  of 24 to 200 doubles costs 5 to 8 us, against 20 to 35 us from a fresh
  substream, about 15 us of it its ``SeedSequence`` (timeit, 2-core Xeon).
"""

from __future__ import annotations

import numpy as np


def seed_sequence(seed) -> np.random.SeedSequence:
    """Normalize an int or SeedSequence to a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed))
    raise TypeError(f"expected int or SeedSequence, got {type(seed).__name__}")


def child_sequence(seed, *path: int) -> np.random.SeedSequence:
    """SeedSequence for the substream at ``path`` under ``seed``.

    A pure function of (seed, path); sibling substreams are statistically
    independent regardless of creation order.
    """
    base = seed_sequence(seed)
    return np.random.SeedSequence(
        entropy=base.entropy, spawn_key=tuple(base.spawn_key) + tuple(int(p) for p in path)
    )


def substream(seed, *path: int) -> np.random.Generator:
    """Generator over the substream at ``path`` under ``seed``."""
    return np.random.default_rng(child_sequence(seed, *path))


def as_generator(rng) -> np.random.Generator:
    """Accept an int seed, SeedSequence, or Generator; return a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(seed_sequence(rng))


class KeyedUniforms:
    """One Philox stream per seed, repositioned to a counter per keyed draw.

    ``at(t)`` sets the counter to (0, t, 0, 0) with an empty buffer and
    returns the shared Generator, so what it draws next equals the draws of
    a fresh ``Generator(Philox(key=key, counter=(0, t, 0, 0)))`` whatever
    the Generator was used for before. ``t`` is a non-negative 64-bit word;
    numpy steps the first word before each block of four doubles, so draws
    at distinct t never overlap. The returned Generator is only valid until
    the next ``at`` call.
    """

    def __init__(self, seed):
        key = seed_sequence(seed).generate_state(2, np.uint64)
        self._bit_generator = np.random.Philox(key=key)
        self._generator = np.random.Generator(self._bit_generator)
        # The setter reads the counter, key and buffer word by word, which
        # is cheaper from Python ints than from numpy arrays: 0.20 against
        # 0.50 us per set, and 0.86 against 1.43 us for at(t).random(out=u)
        # on a 24-entry row (timeit, 2-core AMD EPYC).
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": None, "key": [int(word) for word in key]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._key_and_counter = self._state["state"]

    def at(self, t: int) -> np.random.Generator:
        """The Generator, positioned at counter (0, t, 0, 0)."""
        # The setter copies the counter words, and resets the buffer (and
        # any half-used 32-bit word) from the template.
        self._key_and_counter["counter"] = (0, t, 0, 0)
        self._bit_generator.state = self._state
        return self._generator
