"""Latent replay buffers: generation, compressed storage, materialisation.

A latent replay (LR) buffer holds the spike activations of the replay
subset ``TS_replay ⊆ TS_pre`` at the input of the LR insertion layer
(paper Fig. 6b).  It is generated once, by running the *frozen* front of
the pre-trained network (Alg. 1 lines 6-20), then replayed every NCL
epoch alongside the new-task activations.

Storage model
-------------
Stored rasters are binary, so the storage authority is the bit-packed
size (1 bit/cell) plus a fixed per-sample header (label + shape
metadata) — see :meth:`LatentReplayBuffer.storage_bytes`.  The Fig. 7
subsampling codec optionally reduces the stored frame count by its
factor; SpikingLR stores ``ceil(T/2)`` frames and zero-stuffs back to
``T`` for replay, Replay4NCL stores its reduced-timestep activations
as-is (factor 1, ``decompress=False``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.bitpack import BitpackCodec
from repro.compression.subsample import TemporalSubsampleCodec
from repro.data.datasets import SpikeDataset
from repro.errors import CodecError, ConfigError
from repro.replaystore.format import SAMPLE_HEADER_BYTES
from repro.snn.network import SpikingNetwork
from repro.snn.threshold import ThresholdController

__all__ = [
    "LatentReplayBuffer",
    "frozen_front_trace",
]


def _frozen_front_pass(
    network: SpikingNetwork,
    insertion_layer: int,
    inputs: np.ndarray,
    controller: ThresholdController | None = None,
):
    """Run the frozen front once; return ``(trace, final_activations)``.

    Layers are forced non-trainable for the pass so no tape is built.
    The shared engine of :func:`frozen_front_trace` (dense accounting)
    and the chunked generation loop in
    :meth:`LatentReplayBuffer.generate_into_store` — one implementation,
    so the op accounting the hw models consume can never diverge
    between the dense and streaming paths.
    """
    from repro.snn.network import _layer_controller
    from repro.snn.state import LayerTraceEntry, SpikeTrace

    network._check_layer_index(insertion_layer)
    trace = SpikeTrace()
    inputs = np.asarray(inputs)
    timesteps = int(inputs.shape[0])
    batch = int(inputs.shape[1])
    activations = inputs
    flags = [
        (layer, layer.trainable)
        for layer in network.hidden_layers[:insertion_layer]
    ]
    try:
        for layer, _ in flags:
            layer.set_trainable(False)
        for layer, _ in flags:
            out = layer.forward(activations, _layer_controller(controller, layer))
            trace.add(
                LayerTraceEntry(
                    name=layer.name,
                    n_in=layer.n_in,
                    n_out=layer.n_out,
                    recurrent=layer.recurrent,
                    input_spike_count=float(np.asarray(activations).sum()),
                    output_spike_count=float(out.data.sum()),
                    timesteps=timesteps,
                    batch=batch,
                )
            )
            activations = out.data
    finally:
        for layer, flag in flags:
            layer.set_trainable(flag)
    return trace, activations


def frozen_front_trace(
    network: SpikingNetwork,
    insertion_layer: int,
    inputs: np.ndarray,
    controller: ThresholdController | None = None,
):
    """Forward-only trace of the frozen front over ``inputs``.

    Runs layers ``0 .. insertion_layer-1`` purely for op accounting
    (spike counts per layer feed the hardware latency/energy models).
    ``controller`` must match whatever the accounted pass used (e.g. the
    generation controller for the latent-buffer trace) so the spike
    counts are faithful.  Returns an empty trace for
    ``insertion_layer=0`` (raw-input insertion has no frozen front).
    """
    trace, _ = _frozen_front_pass(network, insertion_layer, inputs, controller)
    return trace


@dataclass
class LatentReplayBuffer:
    """Compressed latent activations of the replay subset.

    Attributes
    ----------
    compressed:
        ``[T_stored, N, C]`` binary raster of stored frames (time-major).
    labels:
        ``[N]`` labels of the replay samples.
    insertion_layer:
        Weight layer the activations feed (``Lins``).
    generated_timesteps:
        Timestep count the frozen part ran at during generation.
    codec:
        The temporal subsampling codec the buffer was stored with.
    """

    compressed: np.ndarray
    labels: np.ndarray
    insertion_layer: int
    generated_timesteps: int
    codec: TemporalSubsampleCodec

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        network: SpikingNetwork,
        replay_data: SpikeDataset,
        insertion_layer: int,
        timesteps: int,
        compression_factor: int = 1,
        controller: ThresholdController | None = None,
    ) -> "LatentReplayBuffer":
        """Run the frozen front on the replay subset and store the result.

        Parameters
        ----------
        network:
            The pre-trained network (its layers below ``insertion_layer``
            act as the frozen feature extractor).
        replay_data:
            ``TS_replay`` — the stored subset of the pre-training set.
        timesteps:
            Temporal resolution of generation: 100 for SpikingLR, the
            reduced ``T*`` for Replay4NCL.
        compression_factor:
            Fig. 7 subsampling factor applied before storage.
        controller:
            Optional adaptive threshold controller active while the
            frozen part generates activations (Alg. 1 lines 8-19).
        """
        if len(replay_data) == 0:
            raise ConfigError("replay dataset is empty")
        inputs = replay_data.to_dense(timesteps)
        activations = network.activations_at(
            insertion_layer, inputs, controller=controller
        )
        codec = TemporalSubsampleCodec(compression_factor)
        return cls(
            compressed=codec.compress(activations),
            labels=replay_data.labels.copy(),
            insertion_layer=insertion_layer,
            generated_timesteps=timesteps,
            codec=codec,
        )

    @classmethod
    def generate_into_store(
        cls,
        network: SpikingNetwork,
        replay_data: SpikeDataset,
        root,
        *,
        insertion_layer: int,
        timesteps: int,
        compression_factor: int = 1,
        controller: ThresholdController | None = None,
        shard_samples: int | None = None,
        overwrite: bool = False,
    ):
        """Generate latent data directly into an on-disk replay store.

        The streaming twin of :meth:`generate` + :meth:`to_store`: the
        replay subset is pushed through the frozen front in
        shard-samples-sized chunks, each chunk encoded and appended to
        the store immediately — so generation's peak resident latent
        memory is one shard, not the whole buffer, which is what lets a
        long task sequence persist every step without ever holding a
        dense per-task buffer (results are bitwise-identical to the
        dense path: per-sample dynamics are batch-independent).

        When ``controller`` is not None the adaptive threshold observes
        *batch-aggregated* spike statistics, so chunked generation would
        change the thresholds Alg. 1 lines 8-19 produce; generation then
        falls back to one dense pass (still released right after the
        store append).

        Returns ``(store, trace)`` where ``trace`` is the frozen-front
        :class:`~repro.snn.state.SpikeTrace` of the generation pass (the
        op-accounting input; empty for ``insertion_layer=0``).
        """
        from repro.replaystore.store import DEFAULT_SHARD_SAMPLES
        from repro.snn.state import LayerTraceEntry, SpikeTrace

        if len(replay_data) == 0:
            raise ConfigError("replay dataset is empty")
        network._check_layer_index(insertion_layer)
        chunk_samples = shard_samples or DEFAULT_SHARD_SAMPLES

        if controller is not None:
            buffer = cls.generate(
                network,
                replay_data,
                insertion_layer=insertion_layer,
                timesteps=timesteps,
                compression_factor=compression_factor,
                controller=controller,
            )
            store = buffer.to_store(
                root, shard_samples=chunk_samples, overwrite=overwrite
            )
            trace = frozen_front_trace(
                network,
                insertion_layer,
                replay_data.to_dense(timesteps),
                controller=controller,
            )
            return store, trace

        codec = TemporalSubsampleCodec(compression_factor)
        store = None
        chunk_traces = []
        for start in range(0, len(replay_data), chunk_samples):
            chunk = replay_data.subset(
                np.arange(start, min(start + chunk_samples, len(replay_data)))
            )
            chunk_trace, activations = _frozen_front_pass(
                network, insertion_layer, chunk.to_dense(timesteps)
            )
            chunk_traces.append(chunk_trace)
            compressed = codec.compress(
                np.asarray(activations, dtype=np.float32)
            )
            if store is None:
                from repro.replaystore.store import ReplayStore

                store = ReplayStore.create(
                    root,
                    stored_frames=compressed.shape[0],
                    num_channels=compressed.shape[2],
                    generated_timesteps=timesteps,
                    insertion_layer=insertion_layer,
                    codec_factor=compression_factor,
                    shard_samples=chunk_samples,
                    overwrite=overwrite,
                )
            store.append(compressed, chunk.labels)

        # Merge the per-chunk traces: spike counts sum across chunks,
        # the batch extent is the whole subset.
        trace = SpikeTrace()
        for i, first in enumerate(chunk_traces[0].entries):
            trace.add(
                LayerTraceEntry(
                    name=first.name,
                    n_in=first.n_in,
                    n_out=first.n_out,
                    recurrent=first.recurrent,
                    input_spike_count=sum(
                        t.entries[i].input_spike_count for t in chunk_traces
                    ),
                    output_spike_count=sum(
                        t.entries[i].output_spike_count for t in chunk_traces
                    ),
                    timesteps=timesteps,
                    batch=len(replay_data),
                )
            )
        return store, trace

    def __post_init__(self):
        if self.compressed.ndim != 3:
            raise CodecError(
                f"compressed buffer must be [T, N, C], got shape {self.compressed.shape}"
            )
        if self.labels.shape[0] != self.compressed.shape[1]:
            raise CodecError(
                f"{self.labels.shape[0]} labels for {self.compressed.shape[1]} samples"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Stored replay samples."""
        return int(self.compressed.shape[1])

    @property
    def num_channels(self) -> int:
        """Input channels per stored frame."""
        return int(self.compressed.shape[2])

    @property
    def stored_frames(self) -> int:
        """Frames kept per sample after compression."""
        return int(self.compressed.shape[0])

    def storage_bytes(self) -> int:
        """Latent memory footprint: bit-packed payload + per-sample headers.

        This is the quantity behind the paper's latent-memory comparison
        (Fig. 12): SpikingLR stores ``ceil(100/2) = 50`` frames/sample,
        Replay4NCL stores ``T* = 40`` — a 20% saving, slightly more once
        the fixed headers are amortised over fewer frames.
        """
        payload = BitpackCodec().packed_bytes(self.compressed.shape)
        return payload + SAMPLE_HEADER_BYTES * self.num_samples

    # ------------------------------------------------------------------
    # Persistence (repro.replaystore)
    # ------------------------------------------------------------------
    def to_store(
        self,
        root,
        shard_samples: int | None = None,
        overwrite: bool = False,
    ) -> "ReplayStore":
        """Persist this buffer as a sharded on-disk replay store.

        The dense raster is chunked into shards of ``shard_samples``
        columns (``replaystore`` default when None), each encoded with
        the smaller of the bitpack/address-event codecs for its density.
        Shard codecs are lossless, so the store replays this buffer
        bit for bit.
        """
        from repro.replaystore.store import DEFAULT_SHARD_SAMPLES, ReplayStore

        store = ReplayStore.create(
            root,
            stored_frames=self.stored_frames,
            num_channels=self.num_channels,
            generated_timesteps=self.generated_timesteps,
            insertion_layer=self.insertion_layer,
            codec_factor=self.codec.factor,
            shard_samples=shard_samples or DEFAULT_SHARD_SAMPLES,
            overwrite=overwrite,
        )
        store.append(self.compressed, self.labels)
        return store

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def materialize(self, decompress: bool) -> np.ndarray:
        """Return the replay raster ``[T, N, C]`` for NCL training.

        ``decompress=True`` zero-stuffs back to ``generated_timesteps``
        (the SpikingLR cycle); ``decompress=False`` replays the stored
        frames directly (Replay4NCL — only valid when the codec factor is
        1, i.e. the stored frames already *are* the training resolution).
        """
        if decompress:
            return self.codec.decompress(self.compressed, self.generated_timesteps)
        if self.codec.factor != 1:
            raise CodecError(
                "cannot replay subsampled frames without decompression: "
                f"codec factor is {self.codec.factor}"
            )
        return self.compressed.astype(np.float32, copy=True)

    def decompressed_cells_per_replay(self, decompress: bool) -> int:
        """Raster cells written by one decompression pass (cost model)."""
        if not decompress:
            return 0
        return int(
            self.generated_timesteps * self.num_samples * self.num_channels
        )
