"""Persistent, budgeted, streaming replay-memory engine.

The paper's latent replay buffer, grown into a storage system: shards of
codec-compressed binary rasters on disk (``format``/``store``), lazy
shard-at-a-time replay into training (``stream``), and a write-side
archive that keeps the per-step member stores of a long task sequence
under one global byte budget with class-balanced eviction
(``federation``).
``LatentReplayBuffer.to_store()`` and the run entry points with a
store-backed spec — ``NCLMethod.run(...,
replay=ReplaySpec(store_dir=...))`` and ``repro.scenario.run_scenario``
likewise — are the high-level faces; ``repro store`` is the CLI one.
"""

from repro.replaystore.federation import (
    FederatedReplayStore,
    FederationStats,
    class_balanced_admit,
)
from repro.replaystore.format import (
    CODEC_AER,
    CODEC_BITPACK,
    SAMPLE_HEADER_BYTES,
    ShardHeader,
    choose_codec,
    codec_payload_bytes,
    decode_shard,
    encode_shard,
    peek_header,
)
from repro.replaystore.store import (
    ReplayStore,
    ShardInfo,
    StoreMeta,
    StoreStats,
)
from repro.replaystore.stream import ConcatReplaySource, ReplayStream

__all__ = [
    "CODEC_AER",
    "CODEC_BITPACK",
    "SAMPLE_HEADER_BYTES",
    "ShardHeader",
    "choose_codec",
    "codec_payload_bytes",
    "encode_shard",
    "decode_shard",
    "peek_header",
    "ReplayStore",
    "ShardInfo",
    "StoreMeta",
    "StoreStats",
    "ConcatReplaySource",
    "ReplayStream",
    "FederatedReplayStore",
    "FederationStats",
    "class_balanced_admit",
]
