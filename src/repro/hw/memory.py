"""Latent-replay memory model (paper Fig. 12).

Latent activations are binary rasters, so storage is 1 bit per cell plus
fixed per-sample metadata.  SpikingLR stores ``ceil(T/2)`` frames/sample
(Fig. 7 factor-2 subsampling of T=100); Replay4NCL stores ``T*`` frames
natively — 40 vs 50 is the paper's headline 20% saving, rising slightly
once headers amortise differently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.bitpack import BitpackCodec
from repro.core.latent_replay import LatentReplayBuffer
from repro.errors import ConfigError
from repro.replaystore.format import SAMPLE_HEADER_BYTES

__all__ = [
    "latent_memory_bytes",
    "LatentMemoryModel",
    "StoreAudit",
    "audit_store",
    "FederationAudit",
    "audit_federation",
]


def latent_memory_bytes(
    stored_frames: int,
    num_samples: int,
    num_channels: int,
    header_bytes: int = SAMPLE_HEADER_BYTES,
) -> int:
    """Bytes to store a latent buffer of the given geometry."""
    if stored_frames <= 0 or num_samples <= 0 or num_channels <= 0:
        raise ConfigError("buffer geometry must be positive")
    if header_bytes < 0:
        raise ConfigError(f"header_bytes must be >= 0, got {header_bytes}")
    payload = BitpackCodec().packed_bytes((stored_frames, num_samples, num_channels))
    return payload + header_bytes * num_samples


@dataclass(frozen=True)
class StoreAudit:
    """Analytic model vs. measured bytes of one on-disk replay store.

    ``modelled_bytes`` is the Fig. 12 storage model applied to the
    store's geometry (bit-packed payload + per-sample headers);
    ``payload_bytes`` is what the per-shard codecs actually encoded
    (never larger than the bitmap, since the denser codec is chosen per
    shard); ``disk_bytes`` is the real on-disk total including shard
    headers and the index.
    """

    modelled_bytes: int
    payload_bytes: int
    disk_bytes: int
    num_shards: int
    num_samples: int

    @property
    def payload_saving(self) -> float:
        """Fractional saving of the codec payload vs the analytic model."""
        return 1.0 - self.payload_bytes / self.modelled_bytes

    @property
    def format_overhead_bytes(self) -> int:
        """Index + shard-header bytes on top of the raw codec payload."""
        return self.disk_bytes - self.payload_bytes


def audit_store(store, header_bytes: int = SAMPLE_HEADER_BYTES) -> StoreAudit:
    """Cross-check the analytic latent-memory model against a real store.

    This is the accounting bridge the ``repro store stats`` CLI and the
    store tests use: if the model and the shard files ever diverge
    beyond codec choice + format overhead, either the storage model or
    the store format has drifted.
    """
    if store.num_samples == 0:
        raise ConfigError(f"store at {store.root} holds no samples to audit")
    modelled = latent_memory_bytes(
        store.meta.stored_frames,
        store.num_samples,
        store.meta.num_channels,
        header_bytes,
    )
    return StoreAudit(
        modelled_bytes=modelled,
        payload_bytes=store.payload_bytes(),
        disk_bytes=store.disk_bytes(),
        num_shards=store.num_shards,
        num_samples=store.num_samples,
    )


@dataclass(frozen=True)
class FederationAudit:
    """Model-vs-disk accounting of a federated replay store.

    Aggregates the per-member :class:`StoreAudit` rows and adds the
    federation's own budget ledger: ``budget_model_bytes`` is the
    per-sample budget model (the quantity the federation's
    ``budget_bytes`` caps, packed per sample), while ``modelled_bytes``
    sums the members' Fig. 12 bitmap models.  Empty members (fully
    evicted by rebalancing) contribute zero and carry no audit row.
    """

    member_audits: dict[str, StoreAudit]
    modelled_bytes: int
    payload_bytes: int
    disk_bytes: int
    budget_model_bytes: int
    budget_bytes: int | None
    num_members: int
    num_samples: int

    @property
    def budget_utilization(self) -> float | None:
        """Budget-model bytes over the budget (None when unbudgeted)."""
        if self.budget_bytes is None:
            return None
        return self.budget_model_bytes / self.budget_bytes

    @property
    def within_budget(self) -> bool:
        """The federation's core invariant (vacuously true unbudgeted)."""
        if self.budget_bytes is None:
            return True
        return self.budget_model_bytes <= self.budget_bytes


def audit_federation(federation, header_bytes: int = SAMPLE_HEADER_BYTES):
    """Cross-check the latent-memory model against a whole federation.

    The federated twin of :func:`audit_store`: every non-empty member
    store gets the model-vs-disk check, and the federation's global
    byte-budget invariant is surfaced as
    :attr:`FederationAudit.within_budget` — the quantity the
    long-task-sequence tests assert never goes false across steps.
    """
    if federation.num_members == 0:
        raise ConfigError(
            f"federation at {federation.root} has no members to audit"
        )
    member_audits: dict[str, StoreAudit] = {}
    for name, store in federation.members():
        if store.num_samples > 0:
            member_audits[name] = audit_store(store, header_bytes)
    return FederationAudit(
        member_audits=member_audits,
        modelled_bytes=sum(a.modelled_bytes for a in member_audits.values()),
        payload_bytes=federation.payload_bytes(),
        disk_bytes=federation.disk_bytes(),
        budget_model_bytes=federation.model_bytes(),
        budget_bytes=federation.budget_bytes,
        num_members=federation.num_members,
        num_samples=federation.num_samples,
    )


@dataclass(frozen=True)
class LatentMemoryModel:
    """Comparative latent-memory accounting across methods/layers."""

    header_bytes: int = SAMPLE_HEADER_BYTES

    def audit_store(self, store) -> StoreAudit:
        """Model-vs-disk audit of a replay store (see :func:`audit_store`)."""
        return audit_store(store, self.header_bytes)

    def buffer_bytes(self, buffer: LatentReplayBuffer) -> int:
        """Resident bytes of a latent replay buffer under this model."""
        return latent_memory_bytes(
            buffer.stored_frames,
            buffer.num_samples,
            buffer.num_channels,
            self.header_bytes,
        )

    def geometry_bytes(
        self, stored_frames: int, num_samples: int, num_channels: int
    ) -> int:
        """Resident bytes for an explicit buffer geometry."""
        return latent_memory_bytes(
            stored_frames, num_samples, num_channels, self.header_bytes
        )

    def saving(self, reference_bytes: int, candidate_bytes: int) -> float:
        """Fractional saving of candidate vs reference (0.2 == 20%)."""
        if reference_bytes <= 0:
            raise ConfigError("reference_bytes must be positive")
        return 1.0 - candidate_bytes / reference_bytes
