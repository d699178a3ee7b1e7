"""Replay-time views over a store: one decode per NCL phase.

:class:`ReplayStream` reads a :class:`~repro.replaystore.store.ReplayStore`
once, under the store's file lock, and then serves arbitrary sample
subsets via ``gather`` from one resident ``[T, n, C]`` array — the
protocol :class:`~repro.data.loaders.DataLoader` uses for batch sources.
Because the whole read happens while no writer can commit, a stream is
never in flight across a mutation: it keeps serving the snapshot it
opened, whatever other handles do to the store afterwards.

:class:`ConcatReplaySource` splices dense new-task activations together
with a stream along the sample axis, so an NCL trainer sees one
``[T, N_new + N_replay, C]`` source whose batches are bit-for-bit what
``np.concatenate`` + fancy indexing would have produced — that identity
is what makes the store-backed training path reproduce the in-memory
path exactly.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.compression.subsample import TemporalSubsampleCodec
from repro.errors import StoreError
from repro.replaystore.store import ReplayStore

__all__ = ["ReplayStream", "ConcatReplaySource"]


def _checked(indices: np.ndarray, total: int) -> np.ndarray:
    """``indices`` as a 1-D int64 array inside ``[0, total)``."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1:
        raise StoreError(f"indices must be 1-D, got shape {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= total):
        raise StoreError(
            f"indices out of range [0, {total}) "
            f"(got [{indices.min()}, {indices.max()}])"
        )
    return indices


class ReplayStream:
    """A store's samples, decoded once when the stream opens.

    Parameters
    ----------
    store:
        The backing shard set.  Its shard table must match the on-disk
        index: a handle left behind by another handle's mutation raises
        :class:`StoreError` instead of decoding a superseded snapshot.
    decompress:
        Mirror of :meth:`LatentReplayBuffer.materialize`'s flag:
        ``True`` zero-stuffs the frames back to
        ``meta.generated_timesteps`` (the SpikingLR cycle); ``False``
        serves stored frames directly (requires codec factor 1).
    """

    def __init__(self, store: ReplayStore, decompress: bool = False):
        if not decompress and store.meta.codec_factor != 1:
            raise StoreError(
                "cannot stream subsampled frames without decompression: "
                f"store codec factor is {store.meta.codec_factor}"
            )
        meta = store.meta
        with store._locked(), obs.span(
            "store.gather",
            category="store",
            samples=store.num_samples,
            shards=store.num_shards,
        ):
            if ReplayStore.open(store.root).shards != store.shards:
                raise StoreError(
                    "store was mutated by another handle after this handle "
                    f"was opened; reopen the store at {store.root}"
                )
            rasters = [store.read_shard(i)[0] for i in range(store.num_shards)]
            data = (
                np.concatenate(rasters, axis=1)
                if rasters
                else np.zeros((meta.stored_frames, 0, meta.num_channels))
            ).astype(np.float32, copy=False)
            if decompress:
                data = TemporalSubsampleCodec(meta.codec_factor).decompress(
                    data, meta.generated_timesteps
                )
            self._labels = store.labels
        data.flags.writeable = False
        self._data = data

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Samples in the snapshot the stream decoded."""
        return self._data.shape[1]

    @property
    def timesteps(self) -> int:
        """Frames per served sample (post-decompression if enabled)."""
        return self._data.shape[0]

    @property
    def num_channels(self) -> int:
        """Channels per sample."""
        return self._data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        """``[T, n, C]`` shape of the decoded snapshot."""
        return self._data.shape

    @property
    def labels(self) -> np.ndarray:
        """Labels of the decoded snapshot, in storage order."""
        return self._labels

    # ------------------------------------------------------------------
    def gather(self, indices: np.ndarray) -> np.ndarray:
        """The requested samples as a ``[T, k, C]`` raster.

        Output column ``j`` is sample ``indices[j]``; duplicate and
        unsorted indices behave exactly like numpy fancy indexing on the
        dense buffer.
        """
        return self._data[:, _checked(indices, self.num_samples), :]

    def materialize(self) -> np.ndarray:
        """The whole decoded snapshot (a read-only array)."""
        return self._data


class ConcatReplaySource:
    """Dense new-task activations + a replay stream, sample-axis.

    Holds the ``[T, n, C]`` array that
    ``np.concatenate([dense, replay], axis=1)`` would build, built once
    when the source is made.
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
        self._data = np.concatenate([dense, stream.materialize()], axis=1)

    @property
    def shape(self) -> tuple[int, int, int]:
        """Combined ``[T, n, C]`` shape of dense plus replayed samples."""
        return self._data.shape

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Gather ``[T, k, C]`` columns of the combined array."""
        return self._data[:, _checked(indices, self.shape[1]), :]
