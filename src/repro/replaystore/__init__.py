"""Persistent, budgeted, streaming replay-memory engine.

The paper's latent replay buffer, grown into a storage system: shards of
codec-compressed binary rasters on disk (``format``/``store``), hard
byte budgets with pluggable admission/eviction (``policies``/
``builder``), lazy shard-at-a-time replay into training (``stream``),
and multi-store federation for long task sequences under one global
budget (``federation``).
``LatentReplayBuffer.to_store()`` and the run entry points with a
store-backed spec — ``NCLMethod.run(...,
replay=ReplaySpec(store_dir=...))`` and ``repro.scenario.run_scenario``
likewise — are the high-level faces; ``repro store`` is the CLI one.
"""

from repro.replaystore.builder import SAMPLE_HEADER_BYTES, StreamingStoreBuilder
from repro.replaystore.federation import (
    FederatedReplayStore,
    FederatedReplayStream,
    FederationStats,
)
from repro.replaystore.format import (
    CODEC_AER,
    CODEC_BITPACK,
    ShardHeader,
    choose_codec,
    codec_payload_bytes,
    decode_shard,
    encode_shard,
    peek_header,
)
from repro.replaystore.policies import (
    ClassBalancedPolicy,
    EvictionPolicy,
    FIFOPolicy,
    ReservoirPolicy,
    get_policy,
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
    "EvictionPolicy",
    "FIFOPolicy",
    "ReservoirPolicy",
    "ClassBalancedPolicy",
    "get_policy",
    "StreamingStoreBuilder",
    "ReplayStore",
    "ShardInfo",
    "StoreMeta",
    "StoreStats",
    "ConcatReplaySource",
    "ReplayStream",
    "FederatedReplayStore",
    "FederatedReplayStream",
    "FederationStats",
]
