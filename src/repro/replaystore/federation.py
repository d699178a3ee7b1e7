"""Federation of per-task replay stores under one global byte budget.

A long task stream persists one :class:`~repro.replaystore.store.ReplayStore`
per continual step.  The federation is the write-side archive of those
member stores: it owns the *global* memory invariant — the modelled
bytes of all members together never exceed ``budget_bytes``.  When a new
member pushes the total over budget, :meth:`FederatedReplayStore.rebalance`
re-admits every stored sample — in global arrival order — through
class-balanced admission (:func:`class_balanced_admit`) and rewrites
each member to hold only its survivors
(:meth:`~repro.replaystore.store.ReplayStore.filter`), so eviction
pressure flows *across* stores: over-represented classes are evicted
from old members to make room for a new task's samples.  Training never
reads the federation as a whole; each step replays its own member
through a :class:`~repro.replaystore.stream.ReplayStream`.

On disk a federation is a directory of member stores plus one index::

    root/
      federation.json     # budget, admission rule, seed, member order
      step-000/           # ordinary ReplayStore directories
        index.json
        shard-00000.bin
      step-001/
        ...

Member stores stay fully self-describing — ``repro store stats
root/step-000`` keeps working — the federation only adds the budget
ledger on top.

Byte accounting uses the Fig. 12 per-sample storage model (bit-packed
payload + :data:`~repro.replaystore.format.SAMPLE_HEADER_BYTES`), so a
federation budget and ``LatentReplayBuffer.storage_bytes`` mean the
same thing.
"""

from __future__ import annotations

import json
import shutil
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.compression.bitpack import BitpackCodec
from repro.errors import StoreError
from repro.ioutil import FileLock, atomic_write_json
from repro.replaystore.format import SAMPLE_HEADER_BYTES
from repro.replaystore.store import (
    INDEX_NAME,
    ReplayStore,
    index_int,
    is_int,
    malformed_index,
)
from repro.seeding import spawn

__all__ = [
    "FEDERATION_INDEX_NAME",
    "FEDERATION_LOCK_NAME",
    "MAX_OPEN_MEMBERS",
    "ADMISSION_RULE",
    "FederationStats",
    "FederatedReplayStore",
    "class_balanced_admit",
]

FEDERATION_INDEX_NAME = "federation.json"
#: Lock file guarding federation-index read-modify-write (a stable
#: inode; the index itself is renamed on every commit).
FEDERATION_LOCK_NAME = "federation.json.lock"
FEDERATION_VERSION = 1

#: Cap on cached member handles.  Member indexes are small, but a long
#: task stream has one member per step — the LRU keeps a sweep over a
#: thousand members from holding a thousand parsed indexes at once.
MAX_OPEN_MEMBERS = 8

#: The store meta fields every member must agree on (the index's
#: ``geometry`` ledger).
_GEOMETRY_KEYS = (
    "stored_frames",
    "num_channels",
    "codec_factor",
    "insertion_layer",
    "generated_timesteps",
)

#: The admission rule of every rebalance, recorded in the index as
#: ``policy``.  An index naming any other rule is refused on open rather
#: than silently rebalanced under a different one.
ADMISSION_RULE = "class-balanced"


def class_balanced_admit(
    labels: Sequence[int], capacity: int, rng: np.random.Generator
) -> list[int]:
    """Stream ``labels`` through class-balanced admission at ``capacity``.

    Returns the positions (into ``labels``) of the kept samples in slot
    order.  Arrivals fill free slots first; once full, a sample whose
    class is not the largest evicts a random member of the largest class
    (smallest label id on ties), and a sample of an already-largest
    class falls back to per-class reservoir sampling, so every class
    stays a uniform sample of its own arrivals.  This preserves the
    paper's class-stratified replay guarantee under streaming arrivals.
    Deterministic given ``rng``: at most one draw per arrival.
    """
    if capacity < 1:
        raise StoreError(f"admission capacity must be >= 1, got {capacity}")
    kept: list[int] = []
    kept_labels: list[int] = []
    counts: dict[int, int] = {}
    seen: dict[int, int] = {}
    for position, label in enumerate(labels):
        label = int(label)
        seen[label] = seen.get(label, 0) + 1
        if len(kept) < capacity:
            kept.append(position)
            kept_labels.append(label)
            counts[label] = counts.get(label, 0) + 1
            continue
        max_count = max(counts.values())
        if counts.get(label, 0) < max_count:
            # Rebalance: push out a random member of the largest class.
            victim = min(c for c, n in counts.items() if n == max_count)
            slots = [i for i, kept_label in enumerate(kept_labels) if kept_label == victim]
            slot = slots[int(rng.integers(0, len(slots)))]
        else:
            # The class is already (joint-)largest: per-class reservoir.
            draw = int(rng.integers(0, seen[label]))
            if draw >= counts[label]:
                continue
            slots = [i for i, kept_label in enumerate(kept_labels) if kept_label == label]
            slot = slots[draw]
        evicted = kept_labels[slot]
        counts[evicted] -= 1
        if not counts[evicted]:
            del counts[evicted]
        counts[label] = counts.get(label, 0) + 1
        kept[slot] = position
        kept_labels[slot] = label
    return kept


def _is_plain_name(name) -> bool:
    """Whether ``name`` is a plain directory name (no path traversal)."""
    return (
        isinstance(name, str)
        and bool(name)
        and "/" not in name
        and "\\" not in name
        and name not in (".", "..")
    )


def _name_list(
    payload: dict, key: str, path: Path, default: list | None = None
) -> list[str]:
    """Member-name list ``key`` of the federation index at ``path``."""
    value = payload.get(key, default)
    if (
        not isinstance(value, list)
        or not all(_is_plain_name(name) for name in value)
        or len(set(value)) != len(value)
    ):
        raise malformed_index(path, key, "a list of distinct member names", value)
    return list(value)


@dataclass(frozen=True)
class FederationStats:
    """Aggregate view of a federation (the ``repro store federate`` payload)."""

    num_members: int
    num_samples: int
    sample_bytes: int
    model_bytes: int
    budget_bytes: int | None
    member_samples: dict[str, int]
    class_counts: dict[int, int]

    @property
    def budget_utilization(self) -> float | None:
        """Modelled bytes over budget (None when unbudgeted)."""
        if self.budget_bytes is None:
            return None
        return self.model_bytes / self.budget_bytes


class FederatedReplayStore:
    """Ordered member stores + global budget ledger."""

    def __init__(
        self,
        root: Path,
        member_names: list[str],
        budget_bytes: int | None,
        seed: int,
        rebalances: int = 0,
        pending_removal: list[str] | None = None,
        geometry: dict | None = None,
    ):
        self.root = Path(root)
        self.member_names = list(member_names)
        self.budget_bytes = None if budget_bytes is None else int(budget_bytes)
        self.seed = int(seed)
        #: Count of completed rebalance passes; keys the rebalance RNG so
        #: repeated passes stay deterministic yet independent.
        self.rebalances = int(rebalances)
        #: Member dirs an interrupted ``create(overwrite=True)`` still
        #: owes a removal — the crash ledger :meth:`adopt` consults so a
        #: stale dir is never silently re-registered as fresh latents.
        self.pending_removal = list(pending_removal or [])
        #: Latent geometry shared by every member (persisted at first
        #: adopt); lets :meth:`adopt` validate and :attr:`sample_bytes`
        #: price a sample without opening a reference member.
        self.geometry = dict(geometry) if geometry else None
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
        fresh = type(self).open(self.root)
        self.member_names = fresh.member_names
        self.budget_bytes = fresh.budget_bytes
        self.seed = fresh.seed
        self.rebalances = fresh.rebalances
        self.pending_removal = fresh.pending_removal
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
        seed: int = 0,
        overwrite: bool = False,
    ) -> "FederatedReplayStore":
        """Initialise an empty federation directory."""
        root = Path(root)
        index_path = root / FEDERATION_INDEX_NAME
        if budget_bytes is not None and budget_bytes <= 0:
            raise StoreError(f"budget_bytes must be positive, got {budget_bytes}")
        federation = cls(root, [], budget_bytes, seed)
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
    def open(cls, root: str | Path) -> "FederatedReplayStore":
        """Load an existing federation from its index.

        Every field is validated: a malformed value raises
        :class:`~repro.errors.StoreError` naming the file and the field,
        and an index whose ``policy`` is not :data:`ADMISSION_RULE` is
        refused rather than rebalanced under a different rule.  A
        ``member_samples`` entry left by older indexes is ignored.
        """
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
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != FEDERATION_VERSION:
            raise StoreError(f"unsupported federation index version {version!r}")
        policy = payload.get("policy", ADMISSION_RULE)
        if policy != ADMISSION_RULE:
            raise StoreError(
                f"federation at {root} uses eviction policy {policy!r}; only "
                f"{ADMISSION_RULE!r} admission is supported"
            )
        budget = None
        if payload.get("budget_bytes", 0) is not None:  # missing is malformed
            budget = index_int(payload, "budget_bytes", index_path, minimum=1)
        geometry = payload.get("geometry")
        if geometry is not None and not (
            isinstance(geometry, dict)
            and set(geometry) == set(_GEOMETRY_KEYS)
            and all(is_int(value) and value >= 0 for value in geometry.values())
        ):
            raise malformed_index(
                index_path, "geometry", f"an object of {_GEOMETRY_KEYS}", geometry
            )
        return cls(
            root,
            _name_list(payload, "members", index_path),
            budget,
            index_int(payload, "seed", index_path, minimum=None),
            rebalances=index_int(payload, "rebalances", index_path, default=0),
            pending_removal=_name_list(
                payload, "pending_removal", index_path, default=[]
            ),
            geometry=geometry,
        )

    def configure(
        self,
        *,
        budget_bytes: int | None = None,
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
        with self._locked():
            self._reload()
            if budget_bytes is not None:
                self.budget_bytes = int(budget_bytes)
            if seed is not None:
                self.seed = int(seed)
            self._write_index()

    def _write_index(self) -> None:
        """Atomically replace the index (write-to-temp + rename)."""
        payload = {
            "version": FEDERATION_VERSION,
            "budget_bytes": self.budget_bytes,
            "policy": ADMISSION_RULE,
            "seed": self.seed,
            "rebalances": self.rebalances,
            "members": list(self.member_names),
            "pending_removal": list(self.pending_removal),
            "geometry": self.geometry,
        }
        atomic_write_json(self.root / FEDERATION_INDEX_NAME, payload)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def member(self, name: str) -> ReplayStore:
        """The named member store (opened lazily, LRU-capped cache).

        At most :data:`MAX_OPEN_MEMBERS` handles stay cached; the least
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
        while len(self._members) >= MAX_OPEN_MEMBERS:
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
        return {key: getattr(store.meta, key) for key in _GEOMETRY_KEYS}

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
        if not _is_plain_name(name):
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
        """Modelled bytes per stored sample (Fig. 12 storage model)."""
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

        Every stored sample is offered — in global arrival order — to
        :func:`class_balanced_admit` at the budget's capacity; survivors
        keep their member and storage order, losers are evicted via
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
        rng = spawn(self.seed, f"federation-rebalance:{self.rebalances}")

        # Admission pass over (member, local index) in global arrival order.
        sources: list[tuple[str, int]] = []
        labels: list[int] = []
        for name, store in self.members():
            sources += [(name, local) for local in range(store.num_samples)]
            labels += store.labels.tolist()
        survivors: dict[str, list[int]] = {name: [] for name in self.member_names}
        for position in class_balanced_admit(labels, capacity, rng):
            name, local = sources[position]
            survivors[name].append(local)

        # Rewrite each member with its survivors (storage order kept).
        evicted = 0
        for name, store in self.members():
            evicted += store.filter(np.asarray(sorted(survivors[name]), dtype=np.int64))
        self.rebalances += 1
        self._write_index()
        _span.set(evicted=evicted)
        return evicted

    def __repr__(self) -> str:
        return (
            f"FederatedReplayStore(root={str(self.root)!r}, "
            f"members={self.num_members}, budget={self.budget_bytes})"
        )
