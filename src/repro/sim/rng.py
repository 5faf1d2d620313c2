"""Named, seeded random streams.

All randomness in the network substrate flows through one
:class:`RngStreams` so that (a) runs are reproducible from a single seed
and (b) changing how one component consumes randomness does not perturb
the draws any other component sees.
"""

from __future__ import annotations

import hashlib
import random


class RngStreams:
    """A family of independent :class:`random.Random` streams.

    Each stream is derived from (master seed, stream name) by hashing, so
    streams are stable across runs and independent of creation order.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream called ``name``, created on first use."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}/{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def derive(self, name: str) -> "RngStreams":
        """A child family seeded from (master seed, ``name``).

        Shards use this — ``root.derive(f"shard-{index}")`` — so
        every shard's randomness is a pure function of the root seed and
        the shard index: multi-shard experiments replay exactly, each
        shard's draws are independent of every other shard's, and
        resharding from N to M shards never perturbs the streams of a
        shard index both configurations share.
        """
        digest = hashlib.sha256(f"{self.seed}/derive/{name}".encode()).digest()
        return RngStreams(int.from_bytes(digest[:8], "big"))

    def names(self) -> list[str]:
        """Streams created so far."""
        return sorted(self._streams)
