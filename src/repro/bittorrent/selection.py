"""Piece (fragment) selection: random-first then rarest-first.

As in the reference client, a peer that holds only a handful of fragments
picks random ones (to get something to trade quickly); after that it requests
the rarest fragment among those the uploader can provide, breaking ties
randomly.  Availability is tracked swarm-wide as a fragment-indexed counter.

NOTE: the broadcast loop converts bytes to fragments through the kernels
of ``repro.bittorrent.conversion`` (a compiled one and a Python fallback),
which implement this selection rule in tie-tier form for speed.  Any change
to the policy here — thresholds, tie-breaking, random-stream consumption —
must be mirrored in both; ``tests/test_conversion.py`` checks them against
:meth:`PieceSelector.select_from` and the seed-replay goldens in
``tests/test_seed_replay.py`` flag a divergence on the covered scenarios.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bittorrent.peer import PeerState

#: Below this many held fragments, a peer uses random-first selection.
RANDOM_FIRST_THRESHOLD = 4


class PieceSelector:
    """Swarm-wide fragment availability plus the selection rule."""

    def __init__(self, num_fragments: int,
                 random_first_threshold: int = RANDOM_FIRST_THRESHOLD) -> None:
        if num_fragments <= 0:
            raise ValueError("num_fragments must be positive")
        self.num_fragments = num_fragments
        self.random_first_threshold = random_first_threshold
        self.availability = np.zeros(num_fragments, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # availability maintenance
    # ------------------------------------------------------------------ #
    def register_bitfield(self, have: np.ndarray) -> None:
        """Add a joining peer's initial bitfield to the availability counts."""
        have = np.asarray(have, dtype=bool)
        if have.shape != (self.num_fragments,):
            raise ValueError("bitfield has wrong shape")
        self.availability += have.astype(np.int64)

    def record_receipt(self, fragment: int) -> None:
        """A peer completed ``fragment``: one more replica exists in the swarm."""
        if not 0 <= fragment < self.num_fragments:
            raise IndexError(f"fragment index {fragment} out of range")
        self.availability[fragment] += 1

    # ------------------------------------------------------------------ #
    # selection
    # ------------------------------------------------------------------ #
    def select(
        self,
        downloader: PeerState,
        uploader: PeerState,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Pick the fragment ``downloader`` should take from ``uploader``.

        Returns ``None`` when the uploader has nothing the downloader needs.
        """
        return self.select_from(
            uploader.have, ~downloader.have, downloader.fragment_count, rng
        )

    def select_from(
        self,
        uploader_have: np.ndarray,
        downloader_lack: np.ndarray,
        downloader_count: int,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Hot-path selection on raw bitfields.

        ``downloader_lack`` is the complement of the downloader's bitfield;
        the swarm maintains it incrementally so this path never materialises
        ``~have``.  Consumes the random stream exactly like :meth:`select`.
        """
        wanted = uploader_have & downloader_lack
        candidates = wanted.nonzero()[0]
        if candidates.size == 0:
            return None
        if downloader_count < self.random_first_threshold:
            return int(candidates[int(rng.integers(0, candidates.size))])
        availability = self.availability[candidates]
        rarest = availability.min()
        rarest_candidates = candidates[availability == rarest]
        return int(rarest_candidates[int(rng.integers(0, rarest_candidates.size))])
