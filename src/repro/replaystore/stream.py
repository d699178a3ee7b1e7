"""Lazy, shard-granular replay iteration.

:class:`ReplayStream` is the replay-time view of a
:class:`~repro.replaystore.store.ReplayStore`: it decodes shards on
demand (with a small LRU cache) and serves arbitrary sample subsets via
``gather`` — the protocol :class:`~repro.data.loaders.DataLoader` uses
for lazy sources.  Peak resident replay memory is therefore
``cache_shards`` decoded shards, never the full buffer.

:class:`ConcatReplaySource` splices dense new-task activations together
with a stream along the sample axis, so an NCL trainer sees one
``[T, N_new + N_replay, C]`` source whose batches are bit-for-bit what
``np.concatenate`` + fancy indexing would have produced — that identity
is what makes the store-backed training path reproduce the in-memory
path exactly.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np

from repro import obs
from repro.compression.subsample import TemporalSubsampleCodec
from repro.errors import StoreError
from repro.replaystore.store import INDEX_NAME, ReplayStore

__all__ = ["ReplayStream", "ConcatReplaySource"]


class ReplayStream:
    """On-demand decoded view over a store's samples.

    Parameters
    ----------
    store:
        The backing shard set.
    decompress:
        Mirror of :meth:`LatentReplayBuffer.materialize`'s flag:
        ``True`` zero-stuffs each shard back to
        ``meta.generated_timesteps`` (the SpikingLR cycle); ``False``
        serves stored frames directly (requires codec factor 1).
    cache_shards:
        Decoded shards held in the LRU cache — the replay-time memory
        bound, in units of one dense shard.
    """

    def __init__(
        self, store: ReplayStore, decompress: bool = False, cache_shards: int = 2
    ):
        if cache_shards < 1:
            raise StoreError(f"cache_shards must be >= 1, got {cache_shards}")
        if not decompress and store.meta.codec_factor != 1:
            raise StoreError(
                "cannot stream subsampled frames without decompression: "
                f"store codec factor is {store.meta.codec_factor}"
            )
        self.store = store
        self.decompress = bool(decompress)
        self.cache_shards = int(cache_shards)
        self._codec = TemporalSubsampleCodec(store.meta.codec_factor)
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self.shard_decodes = 0
        #: High-water mark of decoded bytes resident in the LRU cache —
        #: the measured peak replay memory (eviction happens *before*
        #: each decode is admitted, so residency never exceeds
        #: ``cache_shards`` decoded shards).
        self.peak_cache_bytes = 0
        # Snapshot of the shard table at construction: the stream's
        # index->shard mapping and decode cache are only valid against
        # this exact table, so a mutated store must fail loudly rather
        # than serve stale or misrouted samples.
        self._signature = [(s.file, s.num_samples) for s in store.shards]
        self._num_samples = store.num_samples
        # Sample index -> (shard, column) without touching payloads.
        bounds = np.cumsum([n for _, n in self._signature])
        self._bounds = np.concatenate([[0], bounds]).astype(np.int64)
        # Every index commit is an atomic rename, so the index inode
        # identifies the snapshot exactly: a cross-handle mutation (a
        # compaction in another thread or process) is one stat away.
        stat = os.stat(store.root / INDEX_NAME)
        self._index_id = (stat.st_dev, stat.st_ino)
        # Crash-safe reader pin: while held, mutations tombstone this
        # generation's shard files instead of unlinking them, so an
        # in-flight gather finishes against its snapshot and the *next*
        # snapshot check reports the mutation cleanly.
        self._pin = store.pin_reader()

    def close(self) -> None:
        """Release the reader pin (idempotent; ``__del__`` backstops).

        After closing, mutations may reclaim this snapshot's shard
        files immediately; the stream itself remains usable until the
        store actually changes.
        """
        pin = getattr(self, "_pin", None)
        if pin is not None:
            pin.release()

    def __del__(self):
        self.close()

    def __enter__(self) -> "ReplayStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_not_stale(self) -> None:
        current = [(s.file, s.num_samples) for s in self.store.shards]
        if current != self._signature:
            raise StoreError(
                "store was mutated (append/compact) after this ReplayStream "
                "was created; open a fresh stream"
            )
        try:
            stat = os.stat(self.store.root / INDEX_NAME)
        except OSError as error:
            raise StoreError(
                f"store was mutated: index vanished from {self.store.root} "
                f"after this ReplayStream was created: {error}"
            ) from error
        if (stat.st_dev, stat.st_ino) != self._index_id:
            raise StoreError(
                "store was mutated by another handle after this ReplayStream "
                "was created; open a fresh stream"
            )

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Sample count pinned when the stream was opened."""
        return self._num_samples

    @property
    def timesteps(self) -> int:
        """Frames per served sample (post-decompression if enabled)."""
        if self.decompress:
            return self.store.meta.generated_timesteps
        return self.store.meta.stored_frames

    @property
    def num_channels(self) -> int:
        """Channels per sample, from the store metadata."""
        return self.store.meta.num_channels

    @property
    def shape(self) -> tuple[int, int, int]:
        """Logical ``[T, n, C]`` shape of the streamed tensor."""
        return (self.timesteps, self.num_samples, self.num_channels)

    @property
    def labels(self) -> np.ndarray:
        """Labels of the pinned snapshot (stale-stream checked)."""
        self._check_not_stale()
        return self.store.labels

    # ------------------------------------------------------------------
    def _decoded(self, shard_id: int) -> np.ndarray:
        """Decoded (and optionally decompressed) shard, via the LRU."""
        if shard_id in self._cache:
            self._cache.move_to_end(shard_id)
            obs.count("store.cache_hits")
            return self._cache[shard_id]
        obs.count("store.cache_misses")
        self._check_not_stale()
        while len(self._cache) >= self.cache_shards:
            self._cache.popitem(last=False)
        raster, _ = self.store.read_shard(shard_id)
        if self.decompress:
            raster = self._codec.decompress(
                raster, self.store.meta.generated_timesteps
            )
        self.shard_decodes += 1
        self._cache[shard_id] = raster
        resident = sum(int(r.nbytes) for r in self._cache.values())
        if resident > self.peak_cache_bytes:
            self.peak_cache_bytes = resident
        return raster

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Decode the requested samples into a ``[T, k, C]`` raster.

        Output column ``j`` is sample ``indices[j]``; duplicate and
        unsorted indices behave exactly like numpy fancy indexing on the
        dense buffer.  Shards are decoded once per call each.
        """
        self._check_not_stale()
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise StoreError(f"indices must be 1-D, got shape {indices.shape}")
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.num_samples
        ):
            raise StoreError(
                f"indices out of range [0, {self.num_samples}) "
                f"(got [{indices.min()}, {indices.max()}])"
            )
        out = np.empty(
            (self.timesteps, indices.size, self.num_channels), dtype=np.float32
        )
        shard_of = np.searchsorted(self._bounds, indices, side="right") - 1
        # Serve cached shards first: a cold decode evicts the LRU tail,
        # so touching warm shards before any eviction can reach them
        # keeps a recently used shard from being thrown away unread.
        # Output is written by mask position, so the processing order
        # never changes the result.
        needed = np.unique(shard_of)
        ordered = sorted(needed, key=lambda s: (int(s) not in self._cache, s))
        with obs.span(
            "store.gather", category="store", samples=int(indices.size), shards=len(ordered)
        ):
            for shard_id in ordered:
                raster = self._decoded(int(shard_id))
                mask = shard_of == shard_id
                cols = indices[mask] - self._bounds[shard_id]
                out[:, mask, :] = raster[:, cols, :]
        return out

    def __iter__(self):
        """Yield ``(raster, labels)`` shard by shard, in storage order."""
        self._check_not_stale()
        for shard_id in range(len(self._signature)):
            raster = self._decoded(shard_id)
            labels = np.asarray(self.store.shards[shard_id].labels, dtype=np.int64)
            yield raster, labels

    def materialize(self) -> np.ndarray:
        """Densify the whole stream (tests/small stores only)."""
        return self.gather(np.arange(self.num_samples))


class ConcatReplaySource:
    """Dense new-task activations + a lazy replay stream, sample-axis.

    Quacks like the ``[T, N, C]`` array that
    ``np.concatenate([dense, replay], axis=1)`` would build, but the
    replay half stays on disk until a batch actually touches it.
    """

    def __init__(self, dense: np.ndarray, stream: ReplayStream):
        dense = np.asarray(dense, dtype=np.float32)
        if dense.ndim != 3:
            raise StoreError(f"dense part must be [T, N, C], got {dense.shape}")
        if dense.shape[0] != stream.timesteps:
            raise StoreError(
                f"dense part has {dense.shape[0]} frames, stream serves "
                f"{stream.timesteps}"
            )
        if dense.shape[2] != stream.num_channels:
            raise StoreError(
                f"dense part has {dense.shape[2]} channels, stream serves "
                f"{stream.num_channels}"
            )
        self.dense = dense
        self.stream = stream

    @property
    def shape(self) -> tuple[int, int, int]:
        """Combined ``[T, n, C]`` shape of dense plus lazy samples."""
        return (
            self.dense.shape[0],
            self.dense.shape[1] + self.stream.num_samples,
            self.dense.shape[2],
        )

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Gather ``[T, k, C]`` columns, routing each index to its source."""
        indices = np.asarray(indices, dtype=np.int64)
        split = self.dense.shape[1]
        total = self.shape[1]
        if indices.size and (indices.min() < 0 or indices.max() >= total):
            raise StoreError(
                f"indices out of range [0, {total}) "
                f"(got [{indices.min()}, {indices.max()}])"
            )
        out = np.empty(
            (self.shape[0], indices.size, self.shape[2]), dtype=np.float32
        )
        from_dense = indices < split
        out[:, from_dense, :] = self.dense[:, indices[from_dense], :]
        if np.any(~from_dense):
            out[:, ~from_dense, :] = self.stream.gather(indices[~from_dense] - split)
        return out
