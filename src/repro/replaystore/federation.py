"""Federation of per-task replay stores under one global byte budget.

A long task stream persists one :class:`~repro.replaystore.store.ReplayStore`
per continual step.  The federation composes those member stores into a
single class-balanced replay view and owns the *global* memory
invariant: the modelled bytes of all members together never exceed
``budget_bytes``.  When a new member pushes the total over budget,
:meth:`FederatedReplayStore.rebalance` re-admits every stored sample —
in global arrival order — through one of the existing
:mod:`~repro.replaystore.policies` and rewrites each member to hold only
its survivors (:meth:`~repro.replaystore.store.ReplayStore.filter`), so
eviction pressure flows *across* stores: a class-balanced policy will
evict over-represented classes from old members to make room for a new
task's samples.

On disk a federation is a directory of member stores plus one index::

    root/
      federation.json     # budget, policy, seed, member order
      step-000/           # ordinary ReplayStore directories
        index.json
        shard-00000.bin
      step-001/
        ...

Member stores stay fully self-describing — ``repro store stats
root/step-000`` keeps working — the federation only adds the budget
ledger and the composed view on top.

Byte accounting uses the same per-sample model as the
:class:`~repro.replaystore.builder.StreamingStoreBuilder` (bit-packed
payload + :data:`~repro.replaystore.builder.SAMPLE_HEADER_BYTES`), so a
federation budget and a builder budget mean the same thing.
"""

from __future__ import annotations

import json
import shutil
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro import obs
from repro.compression.bitpack import BitpackCodec
from repro.errors import StoreError
from repro.ioutil import FileLock, atomic_write_json
from repro.replaystore.builder import SAMPLE_HEADER_BYTES
from repro.replaystore.policies import get_policy
from repro.replaystore.store import INDEX_NAME, ReplayStore
from repro.replaystore.stream import ReplayStream
from repro.seeding import spawn

__all__ = [
    "FEDERATION_INDEX_NAME",
    "FEDERATION_LOCK_NAME",
    "DEFAULT_OPEN_MEMBERS",
    "FederationStats",
    "FederatedReplayStore",
    "FederatedReplayStream",
]

FEDERATION_INDEX_NAME = "federation.json"
#: Lock file guarding federation-index read-modify-write (a stable
#: inode; the index itself is renamed on every commit).
FEDERATION_LOCK_NAME = "federation.json.lock"
FEDERATION_VERSION = 1

#: Default cap on simultaneously open member handles/streams.  Member
#: indexes are small, but a long task stream has one member per step —
#: opening them all eagerly is exactly what the lazy path exists to
#: avoid.
DEFAULT_OPEN_MEMBERS = 8


@dataclass(frozen=True)
class FederationStats:
    """Aggregate view of a federation (the ``repro store federate`` payload)."""

    num_members: int
    num_samples: int
    sample_bytes: int
    model_bytes: int
    budget_bytes: int | None
    policy: str
    member_samples: dict[str, int]
    class_counts: dict[int, int]

    @property
    def budget_utilization(self) -> float | None:
        """Modelled bytes over budget (None when unbudgeted)."""
        if self.budget_bytes is None:
            return None
        return self.model_bytes / self.budget_bytes


class FederatedReplayStore:
    """Ordered member stores + global budget ledger + composed view."""

    def __init__(
        self,
        root: Path,
        member_names: list[str],
        budget_bytes: int | None,
        policy: str,
        seed: int,
        rebalances: int = 0,
        pending_removal: list[str] | None = None,
        member_samples: dict[str, int] | None = None,
        geometry: dict | None = None,
        max_open_members: int = DEFAULT_OPEN_MEMBERS,
    ):
        if max_open_members < 1:
            raise StoreError(
                f"max_open_members must be >= 1, got {max_open_members}"
            )
        self.root = Path(root)
        self.member_names = list(member_names)
        self.budget_bytes = None if budget_bytes is None else int(budget_bytes)
        self.policy = policy
        self.seed = int(seed)
        #: Count of completed rebalance passes; keys the rebalance RNG so
        #: repeated passes stay deterministic yet independent.
        self.rebalances = int(rebalances)
        #: Member dirs an interrupted ``create(overwrite=True)`` still
        #: owes a removal — the crash ledger :meth:`adopt` consults so a
        #: stale dir is never silently re-registered as fresh latents.
        self.pending_removal = list(pending_removal or [])
        #: Per-member sample counts, maintained by :meth:`adopt` and
        #: :meth:`rebalance`, so :meth:`stream` can lay out the global
        #: index space without opening a single member.
        self.member_samples: dict[str, int] = dict(member_samples or {})
        #: Latent geometry shared by every member (persisted at first
        #: adopt); lets :meth:`adopt` validate and :meth:`stream` plan
        #: lazily, again without opening a reference member.
        self.geometry = dict(geometry) if geometry else None
        self.max_open_members = int(max_open_members)
        self._members: OrderedDict[str, ReplayStore] = OrderedDict()

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    @contextmanager
    def _locked(self):
        """Exclusive advisory lock over federation-index mutation."""
        lock = FileLock(self.root / FEDERATION_LOCK_NAME)
        lock.acquire()
        try:
            yield lock
        finally:
            lock.release()

    def _reload(self) -> None:
        """Refresh this handle from the on-disk index (under the lock).

        Mutating ops reload before modifying so read-modify-write cycles
        from concurrent handles compose; a handle whose index vanished
        gets a clean :class:`~repro.errors.StoreError`.
        """
        fresh = type(self).open(self.root, max_open_members=self.max_open_members)
        self.member_names = fresh.member_names
        self.budget_bytes = fresh.budget_bytes
        self.policy = fresh.policy
        self.seed = fresh.seed
        self.rebalances = fresh.rebalances
        self.pending_removal = fresh.pending_removal
        self.member_samples = fresh.member_samples
        self.geometry = fresh.geometry
        # Cached handles may predate another handle's commit; drop them
        # so the next access reopens against the current member state.
        self._members.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: str | Path,
        *,
        budget_bytes: int | None = None,
        policy: str = "class-balanced",
        seed: int = 0,
        overwrite: bool = False,
    ) -> "FederatedReplayStore":
        """Initialise an empty federation directory."""
        root = Path(root)
        index_path = root / FEDERATION_INDEX_NAME
        if budget_bytes is not None and budget_bytes <= 0:
            raise StoreError(f"budget_bytes must be positive, got {budget_bytes}")
        get_policy(policy)  # validate the name up front
        federation = cls(root, [], budget_bytes, policy, seed)
        with federation._locked():
            if index_path.exists() and not overwrite:
                raise StoreError(
                    f"federation already exists at {root} "
                    "(pass overwrite=True to replace)"
                )
            # Overwrite must take the old run's member stores with it:
            # leaving them on disk would let a later `adopt` silently mix
            # stale latents into the new archive.
            old_names: list[str] = []
            if index_path.exists():
                try:
                    previous = cls.open(root)
                    old_names = previous.member_names + previous.pending_removal
                except StoreError:
                    old_names = []  # corrupt index: replace it, keep the dirs
            root.mkdir(parents=True, exist_ok=True)
            # Two-phase overwrite: commit an index that *records* the old
            # member dirs as pending removal, remove them, then commit
            # again with the ledger cleared.  A crash in the removal
            # window leaves an empty federation whose ledger still names
            # every orphan dir — adopt refuses them until the caller
            # acknowledges (allow_orphan=True) or create runs again.
            federation.pending_removal = list(old_names)
            federation._write_index()
            for name in old_names:
                member_dir = root / name
                if member_dir.is_dir():
                    shutil.rmtree(member_dir)
            federation.pending_removal = []
            federation._write_index()
        return federation

    @classmethod
    def open(
        cls,
        root: str | Path,
        *,
        max_open_members: int = DEFAULT_OPEN_MEMBERS,
    ) -> "FederatedReplayStore":
        """Load an existing federation from its index."""
        root = Path(root)
        index_path = root / FEDERATION_INDEX_NAME
        if not index_path.exists():
            raise StoreError(
                f"no federation at {root} (missing {FEDERATION_INDEX_NAME})"
            )
        try:
            payload = json.loads(index_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise StoreError(
                f"corrupt federation index at {index_path}: {error}"
            ) from error
        if payload.get("version") != FEDERATION_VERSION:
            raise StoreError(
                f"unsupported federation index version {payload.get('version')!r}"
            )
        try:
            return cls(
                root,
                list(payload["members"]),
                payload["budget_bytes"],
                payload["policy"],
                int(payload["seed"]),
                rebalances=int(payload.get("rebalances", 0)),
                pending_removal=list(payload.get("pending_removal", [])),
                member_samples={
                    str(k): int(v)
                    for k, v in payload.get("member_samples", {}).items()
                },
                geometry=payload.get("geometry"),
                max_open_members=max_open_members,
            )
        except (KeyError, TypeError) as error:
            raise StoreError(
                f"malformed federation index at {index_path}: {error}"
            ) from error

    def configure(
        self,
        *,
        budget_bytes: int | None = None,
        policy: str | None = None,
        seed: int | None = None,
    ) -> None:
        """Update the budget ledger of an existing federation.

        ``None`` keeps the stored value; explicit values are validated
        and persisted immediately (the next :meth:`rebalance` enforces
        them).  This is how ``repro store federate`` retrofits a budget
        onto a federation created without one.
        """
        if budget_bytes is not None and budget_bytes <= 0:
            raise StoreError(
                f"budget_bytes must be positive, got {budget_bytes}"
            )
        if policy is not None:
            get_policy(policy)  # validate the name
        with self._locked():
            self._reload()
            if budget_bytes is not None:
                self.budget_bytes = int(budget_bytes)
            if policy is not None:
                self.policy = policy
            if seed is not None:
                self.seed = int(seed)
            self._write_index()

    def _write_index(self) -> None:
        """Atomically replace the index (write-to-temp + rename)."""
        payload = {
            "version": FEDERATION_VERSION,
            "budget_bytes": self.budget_bytes,
            "policy": self.policy,
            "seed": self.seed,
            "rebalances": self.rebalances,
            "members": list(self.member_names),
            "pending_removal": list(self.pending_removal),
            "member_samples": {
                name: int(count) for name, count in self.member_samples.items()
            },
            "geometry": self.geometry,
        }
        atomic_write_json(self.root / FEDERATION_INDEX_NAME, payload)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def member(self, name: str) -> ReplayStore:
        """The named member store (opened lazily, LRU-capped cache).

        At most :attr:`max_open_members` handles stay cached; the least
        recently used is dropped when the cap is hit (a
        :class:`~repro.replaystore.store.ReplayStore` handle is just a
        parsed index — dropping it costs a reopen, nothing else).
        """
        if name not in self.member_names:
            raise StoreError(
                f"{name!r} is not a member of the federation at {self.root}"
            )
        if name in self._members:
            self._members.move_to_end(name)
            return self._members[name]
        while len(self._members) >= self.max_open_members:
            self._members.popitem(last=False)
        store = ReplayStore.open(self.root / name)
        self._members[name] = store
        return store

    def members(self) -> Iterator[tuple[str, ReplayStore]]:
        """Member stores in registration (task-arrival) order, lazily.

        A generator: members open one at a time through the LRU cache,
        so iterating a thousand-member federation never holds a thousand
        parsed indexes at once.
        """
        for name in self.member_names:
            yield name, self.member(name)

    @staticmethod
    def _geometry_of(store: ReplayStore) -> dict:
        """The meta fields every member must agree on."""
        return {
            "stored_frames": store.meta.stored_frames,
            "num_channels": store.meta.num_channels,
            "codec_factor": store.meta.codec_factor,
            "insertion_layer": store.meta.insertion_layer,
            "generated_timesteps": store.meta.generated_timesteps,
        }

    def adopt(self, name: str, *, allow_orphan: bool = False) -> ReplayStore:
        """Register the store at ``root/name`` as the next member.

        The store must already exist (e.g. written by a store-backed NCL
        step) and must share the federation's latent geometry — a
        federation composes stores of *one* insertion point, so mixed
        frame/channel geometry is a caller bug, not a mergeable state.

        A name on the :attr:`pending_removal` ledger is a directory an
        interrupted ``create(overwrite=True)`` failed to delete: its
        contents predate the current federation, so adopting it would
        silently resurrect stale latents.  Such names are refused unless
        the caller passes ``allow_orphan=True`` to explicitly claim the
        old data (which also clears the ledger entry).
        """
        if not name or "/" in name or "\\" in name or name in (".", ".."):
            raise StoreError(
                f"member name must be a plain directory name, got {name!r}"
            )
        with self._locked():
            self._reload()
            if name in self.member_names:
                raise StoreError(f"{name!r} is already a member of the federation")
            if name in self.pending_removal and not allow_orphan:
                raise StoreError(
                    f"cannot adopt {name!r}: the directory predates this "
                    "federation (an interrupted overwrite left it behind) "
                    "and holds stale latents; pass allow_orphan=True to "
                    "claim it anyway, or delete the directory"
                )
            path = self.root / name
            if not (path / INDEX_NAME).exists():
                raise StoreError(f"no replay store to adopt at {path}")
            store = ReplayStore.open(path)
            geometry = self._geometry_of(store)
            reference = self.geometry
            if reference is None and self.member_names:
                # Pre-ledger federation index: fall back to a member open.
                reference = self._geometry_of(self.member(self.member_names[0]))
            if reference is not None and geometry != reference:
                # Insertion layer and generation timesteps are part of
                # the geometry: stores from different insertion points
                # can share frame/channel counts (equal-width hidden
                # layers) yet live in different feature spaces —
                # federating them would serve semantically mixed replay
                # data with no error.
                raise StoreError(
                    f"cannot adopt {name!r}: geometry "
                    f"(T={geometry['stored_frames']}, "
                    f"C={geometry['num_channels']}, "
                    f"factor={geometry['codec_factor']}, "
                    f"Lins={geometry['insertion_layer']}, "
                    f"Tgen={geometry['generated_timesteps']}) does not match "
                    f"the federation's (T={reference['stored_frames']}, "
                    f"C={reference['num_channels']}, "
                    f"factor={reference['codec_factor']}, "
                    f"Lins={reference['insertion_layer']}, "
                    f"Tgen={reference['generated_timesteps']})"
                )
            if self.geometry is None:
                self.geometry = geometry
            if name in self.pending_removal:
                self.pending_removal.remove(name)
            self.member_names.append(name)
            self.member_samples[name] = store.num_samples
            self._members[name] = store
            self._write_index()
        return store

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def num_members(self) -> int:
        """Number of member stores in the federation."""
        return len(self.member_names)

    @property
    def num_samples(self) -> int:
        """Total samples across every member store."""
        return sum(store.num_samples for _, store in self.members())

    @property
    def labels(self) -> np.ndarray:
        """All labels in global arrival order (index-only)."""
        parts = [store.labels for _, store in self.members()]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts)

    @property
    def sample_bytes(self) -> int:
        """Modelled bytes per stored sample (builder's budget model)."""
        if not self.member_names:
            raise StoreError("an empty federation has no sample geometry")
        geometry = self.geometry
        if geometry is None:  # pre-ledger index: open the first member
            geometry = self._geometry_of(self.member(self.member_names[0]))
        packed = BitpackCodec().packed_bytes(
            (geometry["stored_frames"], geometry["num_channels"])
        )
        return packed + SAMPLE_HEADER_BYTES

    def model_bytes(self) -> int:
        """Modelled federation footprint: ``num_samples * sample_bytes``."""
        if not self.member_names:
            return 0
        return self.num_samples * self.sample_bytes

    def payload_bytes(self) -> int:
        """Actual codec payload bytes across all members."""
        return sum(store.payload_bytes() for _, store in self.members())

    def disk_bytes(self) -> int:
        """On-disk total: member stores plus the federation index."""
        total = (self.root / FEDERATION_INDEX_NAME).stat().st_size
        for _, store in self.members():
            total += store.disk_bytes()
        return total

    def class_counts(self) -> dict[int, int]:
        """Per-class sample counts aggregated over all members."""
        counts: dict[int, int] = {}
        for label in self.labels:
            counts[int(label)] = counts.get(int(label), 0) + 1
        return dict(sorted(counts.items()))

    def stats(self) -> FederationStats:
        """Aggregate :class:`FederationStats` for reporting."""
        return FederationStats(
            num_members=self.num_members,
            num_samples=self.num_samples,
            sample_bytes=self.sample_bytes if self.member_names else 0,
            model_bytes=self.model_bytes(),
            budget_bytes=self.budget_bytes,
            policy=self.policy,
            member_samples={
                name: store.num_samples for name, store in self.members()
            },
            class_counts=self.class_counts(),
        )

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def over_budget(self) -> bool:
        """Whether the modelled footprint currently exceeds the budget."""
        if self.budget_bytes is None or not self.member_names:
            return False
        return self.model_bytes() > self.budget_bytes

    def rebalance(self) -> int:
        """Enforce the global budget across members; returns evictions.

        Every stored sample is offered — in global arrival order — to a
        fresh instance of the federation's
        :class:`~repro.replaystore.policies.EvictionPolicy` at the
        budget's capacity; survivors keep their member and storage
        order, losers are evicted via
        :meth:`~repro.replaystore.store.ReplayStore.filter`.  The pass
        is index-only until the per-member rewrites, so decision cost
        never touches shard payloads.  Deterministic: the RNG derives
        from the federation seed and the rebalance counter.  A no-op
        (returns 0) when unbudgeted or already within budget.
        """
        with self._locked():
            self._reload()
            if not self.over_budget():
                return 0
            with obs.span(
                "federation.rebalance", category="store", members=self.num_members
            ) as _span:
                evicted = self._rebalance(_span)
        obs.count("federation.evictions", evicted)
        return evicted

    def _rebalance(self, _span) -> int:
        """The budget-enforcement pass :meth:`rebalance` wraps in a span.

        Runs under the federation lock with a freshly reloaded index.
        Member rewrites take each member's own store lock in turn, so a
        rebalance serializes against direct appends to individual
        members without holding every member lock at once.
        """
        capacity = self.budget_bytes // self.sample_bytes
        if capacity < 1:
            raise StoreError(
                f"budget of {self.budget_bytes} B holds no sample "
                f"({self.sample_bytes} B each)"
            )
        policy = get_policy(self.policy)
        policy.reset()
        rng = spawn(self.seed, f"federation-rebalance:{self.rebalances}")

        # Policy pass over (member, local index) in global arrival order.
        kept_labels: list[int] = []
        kept_sources: list[tuple[str, int]] = []
        for name, store in self.members():
            for local, label in enumerate(store.labels):
                slot = policy.admit(int(label), kept_labels, capacity, rng)
                if slot is None:
                    continue
                if slot == len(kept_labels):
                    kept_labels.append(int(label))
                    kept_sources.append((name, local))
                else:
                    kept_labels[slot] = int(label)
                    kept_sources[slot] = (name, local)

        # Rewrite each member with its survivors (storage order kept).
        evicted = 0
        for name, store in self.members():
            survivors = np.asarray(
                sorted(local for member, local in kept_sources if member == name),
                dtype=np.int64,
            )
            evicted += store.filter(survivors)
            self.member_samples[name] = store.num_samples
        self.rebalances += 1
        self._write_index()
        _span.set(evicted=evicted)
        return evicted

    # ------------------------------------------------------------------
    # Composed view
    # ------------------------------------------------------------------
    def stream(
        self,
        decompress: bool = False,
        cache_shards: int = 2,
        max_open_streams: int | None = None,
    ) -> "FederatedReplayStream":
        """Lazy class-spanning view over every member's samples.

        Fully lazy end to end: the global index layout comes from the
        persisted per-member sample counts (falling back to one
        index-only open per member for pre-ledger federations), and a
        member's :class:`~repro.replaystore.stream.ReplayStream` is only
        opened when a gather first touches it — at most
        ``max_open_streams`` (default :attr:`max_open_members`) member
        streams stay open at once.
        """
        geometry = self.geometry
        if geometry is None and self.member_names:
            geometry = self._geometry_of(self.member(self.member_names[0]))
        counts: list[tuple[str, int]] = []
        for name in self.member_names:
            if name in self.member_samples:
                counts.append((name, self.member_samples[name]))
            else:  # pre-ledger index: index-only open, one at a time
                counts.append((name, self.member(name).num_samples))
        entries = [(name, count) for name, count in counts if count > 0]
        if not entries:
            raise StoreError(
                f"federation at {self.root} holds no samples to stream"
            )
        assert geometry is not None  # non-empty federation has geometry
        if not decompress and geometry["codec_factor"] != 1:
            raise StoreError(
                "cannot stream subsampled frames without decompression: "
                f"store codec factor is {geometry['codec_factor']}"
            )
        root = self.root

        def opener(name: str) -> ReplayStream:
            return ReplayStream(
                ReplayStore.open(root / name),
                decompress=decompress,
                cache_shards=cache_shards,
            )

        timesteps = (
            geometry["generated_timesteps"]
            if decompress
            else geometry["stored_frames"]
        )
        return FederatedReplayStream.lazy(
            openers=[
                (lambda name=name: opener(name)) for name, _count in entries
            ],
            counts=[count for _name, count in entries],
            timesteps=timesteps,
            num_channels=geometry["num_channels"],
            max_open_streams=(
                self.max_open_members
                if max_open_streams is None
                else max_open_streams
            ),
        )

    def __repr__(self) -> str:
        return (
            f"FederatedReplayStore(root={str(self.root)!r}, "
            f"members={self.num_members}, policy={self.policy!r}, "
            f"budget={self.budget_bytes})"
        )


class FederatedReplayStream:
    """Sample-axis concatenation of member :class:`ReplayStream` views.

    Serves the same lazy-source protocol as a single stream (``shape`` /
    ``gather`` / ``labels`` / shard iteration), with indices routed to
    members by global arrival order — so a federation trains exactly
    like one big store while peak resident memory stays
    ``cache_shards`` decoded shards per *open* member stream.

    Member streams are lazy: constructed via :meth:`lazy` (the
    :meth:`FederatedReplayStore.stream` path), a member is only opened
    when a gather first touches it, and at most ``max_open_streams``
    stay open — the least recently used is closed (its reader pin
    released) when the cap is hit.  The plain constructor takes
    already-open streams and never evicts them (an evicted pre-built
    stream could not be reopened).
    """

    def __init__(self, streams: list[ReplayStream]):
        if not streams:
            raise StoreError("FederatedReplayStream needs at least one stream")
        first = streams[0]
        for stream in streams[1:]:
            if (
                stream.timesteps != first.timesteps
                or stream.num_channels != first.num_channels
            ):
                raise StoreError(
                    f"member streams disagree on geometry: "
                    f"[T={first.timesteps}, C={first.num_channels}] vs "
                    f"[T={stream.timesteps}, C={stream.num_channels}]"
                )
        self._init(
            openers=[(lambda s=s: s) for s in streams],
            counts=[s.num_samples for s in streams],
            timesteps=first.timesteps,
            num_channels=first.num_channels,
            max_open_streams=len(streams),
            preopened=list(streams),
        )

    @classmethod
    def lazy(
        cls,
        openers: list[Callable[[], ReplayStream]],
        counts: list[int],
        timesteps: int,
        num_channels: int,
        max_open_streams: int = DEFAULT_OPEN_MEMBERS,
    ) -> "FederatedReplayStream":
        """Build a stream whose members open on first gather.

        ``openers[i]`` must return a fresh stream over member ``i``
        holding exactly ``counts[i]`` samples; a mismatch at open time
        (the member was mutated after the layout was taken) raises
        :class:`~repro.errors.StoreError` instead of misrouting indices.
        """
        if not openers:
            raise StoreError("FederatedReplayStream needs at least one stream")
        if len(openers) != len(counts):
            raise StoreError(
                f"{len(openers)} openers but {len(counts)} member counts"
            )
        if max_open_streams < 1:
            raise StoreError(
                f"max_open_streams must be >= 1, got {max_open_streams}"
            )
        self = cls.__new__(cls)
        self._init(
            openers=list(openers),
            counts=[int(c) for c in counts],
            timesteps=int(timesteps),
            num_channels=int(num_channels),
            max_open_streams=int(max_open_streams),
            preopened=None,
        )
        return self

    def _init(
        self,
        openers: list[Callable[[], ReplayStream]],
        counts: list[int],
        timesteps: int,
        num_channels: int,
        max_open_streams: int,
        preopened: list[ReplayStream] | None,
    ) -> None:
        self._openers = openers
        self._counts = counts
        self._timesteps = timesteps
        self._num_channels = num_channels
        self.max_open_streams = max(1, max_open_streams)
        self._open: OrderedDict[int, ReplayStream] = OrderedDict()
        if preopened is not None:
            self._open.update(enumerate(preopened))
        #: Member streams opened over this view's lifetime (telemetry;
        #: the concurrency tests assert the LRU cap from it).
        self.member_opens = len(self._open)
        # Peaks of already-closed member streams, so peak_cache_bytes
        # survives eviction.
        self._retired_peak_bytes = 0
        bounds = np.cumsum(counts)
        self._bounds = np.concatenate([[0], bounds]).astype(np.int64)

    # ------------------------------------------------------------------
    # Member stream lifecycle
    # ------------------------------------------------------------------
    def _stream(self, member: int) -> ReplayStream:
        """Member stream ``member``, opening (and LRU-evicting) as needed."""
        if member in self._open:
            self._open.move_to_end(member)
            return self._open[member]
        while len(self._open) >= self.max_open_streams:
            _, victim = self._open.popitem(last=False)
            self._retired_peak_bytes += victim.peak_cache_bytes
            victim.close()
        stream = self._openers[member]()
        if stream.num_samples != self._counts[member]:
            stream.close()
            raise StoreError(
                f"store was mutated: member {member} now holds "
                f"{stream.num_samples} samples, this view was laid out "
                f"for {self._counts[member]}; open a fresh stream"
            )
        if (
            stream.timesteps != self._timesteps
            or stream.num_channels != self._num_channels
        ):
            stream.close()
            raise StoreError(
                f"member streams disagree on geometry: "
                f"[T={self._timesteps}, C={self._num_channels}] vs "
                f"[T={stream.timesteps}, C={stream.num_channels}]"
            )
        self._open[member] = stream
        self.member_opens += 1
        obs.count("federation.member_opens")
        return stream

    @property
    def open_streams(self) -> int:
        """Member streams currently open (bounded by the LRU cap)."""
        return len(self._open)

    def close(self) -> None:
        """Close every open member stream (releasing reader pins)."""
        while self._open:
            _, stream = self._open.popitem(last=False)
            self._retired_peak_bytes += stream.peak_cache_bytes
            stream.close()

    def __enter__(self) -> "FederatedReplayStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Lazy-source protocol
    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Total samples across the member streams."""
        return int(self._bounds[-1])

    @property
    def timesteps(self) -> int:
        """Generated timesteps per sample (uniform across members)."""
        return self._timesteps

    @property
    def num_channels(self) -> int:
        """Channels per sample (uniform across members)."""
        return self._num_channels

    @property
    def shape(self) -> tuple[int, int, int]:
        """Logical ``[T, n, C]`` shape of the concatenated stream."""
        return (self.timesteps, self.num_samples, self.num_channels)

    @property
    def labels(self) -> np.ndarray:
        """Labels of every member stream, concatenated in member order.

        Opens members one at a time through the LRU, so even the full
        label sweep never exceeds the open-handle cap.
        """
        return np.concatenate(
            [self._stream(i).labels for i in range(len(self._counts))]
        )

    @property
    def peak_cache_bytes(self) -> int:
        """Upper bound on decoded-shard residency across member streams.

        Open member LRU caches are resident *simultaneously*, so the
        federated high-water mark is the sum of the members' peaks
        (closed members contribute the peak they retired with).  A
        bound, not an exact joint maximum: members need not peak at the
        same instant.
        """
        return self._retired_peak_bytes + sum(
            s.peak_cache_bytes for s in self._open.values()
        )

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Decode the requested samples into a ``[T, k, C]`` raster.

        Behaves exactly like fancy indexing on the member-concatenated
        dense array (duplicates and arbitrary order included).
        """
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
        member_of = np.searchsorted(self._bounds, indices, side="right") - 1
        with obs.span(
            "federation.gather", category="store", samples=int(indices.size)
        ):
            for member in np.unique(member_of):
                mask = member_of == member
                local = indices[mask] - self._bounds[member]
                out[:, mask, :] = self._stream(int(member)).gather(local)
        return out

    def __iter__(self):
        """Yield ``(raster, labels)`` shard by shard across members."""
        for member in range(len(self._counts)):
            yield from self._stream(member)

    def materialize(self) -> np.ndarray:
        """Densify the whole federation (tests/small stores only)."""
        return self.gather(np.arange(self.num_samples))
