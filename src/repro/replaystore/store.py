"""The chunked, file-backed replay store.

A store is a directory::

    store/
      index.json        # metadata + shard table (labels, sizes, offsets)
      shard-00000.bin   # one encoded shard per file (format.py)
      shard-00001.bin
      ...

The index is the lookup authority: it carries per-shard sample counts,
labels, codec choice, and payload byte offsets, so listing, budgeting
and class statistics never touch shard payloads.  Shard files are only
read when their samples are actually replayed (see ``stream.py``).

Shards are immutable once written; mutation happens by appending new
shards or by :meth:`ReplayStore.compact`, which rewrites the shard set
at uniform occupancy (after evictions leave ragged shards behind).

Concurrency: every index mutation runs under an exclusive advisory
:class:`~repro.ioutil.FileLock` (``index.json.lock``) and re-reads the
on-disk index before modifying it, so handles in different threads or
processes serialize their read-modify-write cycles; the atomic index
rename stays the commit point.  Readers register themselves through
crash-safe pins (``.readers/``): a compaction that finds live readers
leaves the superseded shard files on disk as a *tombstone generation*
(recorded in the index) instead of unlinking them, so an in-flight
gather against the old snapshot finishes cleanly — the reader then gets
a clean :class:`~repro.errors.StoreError` at its next snapshot check,
never a raw ``FileNotFoundError``.  Tombstones are swept by later
mutations once no live reader pins a generation that can reference
them.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import StoreError
from repro.ioutil import (
    FileLock,
    Pin,
    acquire_pin,
    atomic_write_json,
    live_pin_payloads,
)
from repro.replaystore.format import decode_shard, encode_shard, peek_header

__all__ = [
    "StoreMeta",
    "ShardInfo",
    "StoreStats",
    "ReplayStore",
    "INDEX_NAME",
    "LOCK_NAME",
    "READERS_DIR",
    "index_int",
    "is_int",
    "malformed_index",
]

INDEX_NAME = "index.json"
#: Lock file guarding index read-modify-write (never renamed, unlike
#: the index itself, so the locked inode is stable).
LOCK_NAME = "index.json.lock"
#: Directory of crash-safe reader pins (see :mod:`repro.ioutil`).
READERS_DIR = ".readers"
INDEX_VERSION = 1

#: Default samples per shard; also the replay-time decode granularity
#: (peak resident replay memory is ~``shard_samples`` dense samples).
DEFAULT_SHARD_SAMPLES = 64


def is_int(value) -> bool:
    """Whether ``value`` is a JSON integer (``bool`` excluded)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_shard_entry(entry) -> bool:
    """Whether ``entry`` is a well-typed row of the shard table."""
    if not isinstance(entry, dict) or set(entry) != _SHARD_KEYS:
        return False
    counts = (entry["num_samples"], entry["payload_bytes"], entry["payload_offset"])
    labels = entry["labels"]
    return (
        isinstance(entry["file"], str)
        and isinstance(entry["codec"], str)
        and all(is_int(count) and count >= 0 for count in counts)
        and isinstance(labels, list)
        and len(labels) == entry["num_samples"]
        and all(is_int(label) for label in labels)
    )


def malformed_index(path: Path, key: str, expected: str, value) -> StoreError:
    """The error for index field ``key`` at ``path`` not being ``expected``."""
    return StoreError(
        f"malformed index at {path}: field {key!r} must be {expected}, "
        f"got {value!r}"
    )


def index_int(
    payload: dict,
    key: str,
    path: Path,
    *,
    default: int | None = None,
    minimum: int | None = 0,
) -> int:
    """Integer field ``key`` of the index at ``path``, at least ``minimum``.

    A missing key yields ``default`` (malformed when there is none); a
    non-integer or too-small value raises :class:`StoreError` naming
    the file and the field instead of escaping as a raw Python error.
    """
    value = payload.get(key, default)
    if not is_int(value) or (minimum is not None and value < minimum):
        expected = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise malformed_index(path, key, expected, value)
    return value


@dataclass(frozen=True)
class StoreMeta:
    """Geometry and provenance of the stored latent data."""

    stored_frames: int
    num_channels: int
    generated_timesteps: int
    insertion_layer: int = 0
    codec_factor: int = 1
    shard_samples: int = DEFAULT_SHARD_SAMPLES

    def __post_init__(self):
        if self.stored_frames <= 0 or self.num_channels <= 0:
            raise StoreError(
                f"store geometry must be positive, got T={self.stored_frames} "
                f"C={self.num_channels}"
            )
        if self.generated_timesteps <= 0:
            raise StoreError(
                f"generated_timesteps must be positive, got {self.generated_timesteps}"
            )
        if self.codec_factor < 1:
            raise StoreError(f"codec_factor must be >= 1, got {self.codec_factor}")
        if self.shard_samples <= 0:
            raise StoreError(f"shard_samples must be positive, got {self.shard_samples}")


@dataclass
class ShardInfo:
    """One row of the index's shard table."""

    file: str
    num_samples: int
    codec: str
    payload_bytes: int
    payload_offset: int
    labels: list[int] = field(default_factory=list)


_SHARD_KEYS = {f.name for f in fields(ShardInfo)}


@dataclass(frozen=True)
class StoreStats:
    """Aggregate view of a store (the ``repro store stats`` payload)."""

    num_shards: int
    num_samples: int
    stored_frames: int
    num_channels: int
    codec_shards: dict[str, int]
    payload_bytes: int
    disk_bytes: int
    class_counts: dict[int, int]

    @property
    def bytes_per_sample(self) -> float:
        """Mean packed payload bytes per stored sample."""
        return self.payload_bytes / self.num_samples if self.num_samples else 0.0


class ReplayStore:
    """Persistent shard set + index over one latent-replay buffer."""

    def __init__(
        self,
        root: Path,
        meta: StoreMeta,
        shards: list[ShardInfo],
        generation: int = 0,
        tombstones: list[dict] | None = None,
    ):
        self.root = Path(root)
        self.meta = meta
        self.shards = shards
        #: Bumped by :meth:`compact`; compacted shard files carry the
        #: generation in their name so a rewrite never collides with the
        #: files the current index still points at.
        self.generation = int(generation)
        #: Superseded shard files kept on disk for live pinned readers:
        #: ``[{"file": name, "generation": g}]`` where ``g`` is the
        #: generation whose commit orphaned the file.  Swept by
        #: :meth:`sweep_tombstones` once no reader can reference them.
        self.tombstones: list[dict] = list(tombstones or [])

    # ------------------------------------------------------------------
    # Locking + reader registry
    # ------------------------------------------------------------------
    @contextmanager
    def _locked(self):
        """Exclusive advisory lock over index read-modify-write."""
        lock = FileLock(self.root / LOCK_NAME)
        lock.acquire()
        try:
            yield lock
        finally:
            lock.release()

    def pin_reader(self) -> Pin:
        """Register a live reader pinned to the current generation.

        While the pin is held (a crashed holder releases it
        automatically), mutations keep this generation's shard files on
        disk as tombstones instead of unlinking them, so the reader's
        in-flight gathers finish against its snapshot.  Release the pin
        as soon as the snapshot view is dropped.
        """
        return acquire_pin(
            self.root / READERS_DIR, {"generation": self.generation}
        )

    def _pinned_generations(self) -> list[int]:
        """Generations pinned by live readers (unparseable pins pin all)."""
        return [
            int(payload.get("generation", -1))
            for payload in live_pin_payloads(self.root / READERS_DIR)
        ]

    def _commit_and_sweep(self, orphans: list[str]) -> None:
        """Commit the index, then remove unpinned superseded files.

        ``orphans`` are files the *new* generation no longer references.
        Every candidate (prior tombstones included) is recorded in the
        committed index first, so a crash after the rename never loses
        track of a file; deletion only touches candidates no live
        reader's pinned generation can reference.  Caller holds the
        index lock.
        """
        candidates = list(self.tombstones) + [
            {"file": name, "generation": self.generation} for name in orphans
        ]
        self.tombstones = candidates
        self._write_index()  # atomic rename: the commit point
        if not candidates:
            return
        pinned = self._pinned_generations()
        keep = []
        dropped = 0
        for tomb in candidates:
            if any(g < int(tomb["generation"]) for g in pinned):
                keep.append(tomb)
                continue
            (self.root / str(tomb["file"])).unlink(missing_ok=True)
            dropped += 1
        if dropped:
            self.tombstones = keep
            self._write_index()
            obs.count("store.tombstones_swept", dropped)

    def sweep_tombstones(self) -> int:
        """Delete tombstoned files no live reader pins; returns count.

        Safe to call any time (takes the index lock); mutations sweep
        opportunistically, so explicit calls are only needed to reclaim
        disk promptly after long-lived readers close.
        """
        with self._locked():
            self._reload()
            before = len(self.tombstones)
            self._commit_and_sweep([])
            return before - len(self.tombstones)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: str | Path,
        *,
        stored_frames: int,
        num_channels: int,
        generated_timesteps: int,
        insertion_layer: int = 0,
        codec_factor: int = 1,
        shard_samples: int = DEFAULT_SHARD_SAMPLES,
        overwrite: bool = False,
    ) -> "ReplayStore":
        """Initialise an empty store directory (refuses to clobber one)."""
        root = Path(root)
        index_path = root / INDEX_NAME
        meta = StoreMeta(
            stored_frames=stored_frames,
            num_channels=num_channels,
            generated_timesteps=generated_timesteps,
            insertion_layer=insertion_layer,
            codec_factor=codec_factor,
            shard_samples=shard_samples,
        )
        store = cls(root, meta, [])
        with store._locked():
            if index_path.exists() and not overwrite:
                raise StoreError(
                    f"store already exists at {root} (pass overwrite=True to replace)"
                )
            root.mkdir(parents=True, exist_ok=True)
            if overwrite:
                for old in root.glob("shard-*.bin"):
                    old.unlink()
            store._write_index()
        return store

    @classmethod
    def open(cls, root: str | Path) -> "ReplayStore":
        """Load an existing store from its index."""
        root = Path(root)
        meta, shards, generation, tombstones = cls._read_index(root / INDEX_NAME)
        return cls(root, meta, shards, generation=generation, tombstones=tombstones)

    @staticmethod
    def _read_index(
        index_path: Path,
    ) -> tuple[StoreMeta, list[ShardInfo], int, list[dict]]:
        """Parse and validate an index (shared by ``open`` and reload)."""
        if not index_path.exists():
            raise StoreError(
                f"no replay store at {index_path.parent} (missing {INDEX_NAME})"
            )
        try:
            payload = json.loads(index_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise StoreError(f"corrupt store index at {index_path}: {error}") from error
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != INDEX_VERSION:
            raise StoreError(f"unsupported store index version {version!r}")
        try:
            meta = StoreMeta(**payload.get("meta"))
        except TypeError as error:
            raise malformed_index(
                index_path, "meta", "an object of store geometry", payload.get("meta")
            ) from error
        shards = payload.get("shards")
        if not isinstance(shards, list):
            raise malformed_index(index_path, "shards", "a list", shards)
        for entry in shards:
            if not _is_shard_entry(entry):
                raise malformed_index(index_path, "shards", "shard entries", entry)
        shards = [ShardInfo(**entry) for entry in shards]
        generation = index_int(payload, "generation", index_path, default=0)
        tombstones = payload.get("tombstones", [])
        if not isinstance(tombstones, list) or not all(
            isinstance(tomb, dict)
            and isinstance(tomb.get("file"), str)
            and is_int(tomb.get("generation"))
            for tomb in tombstones
        ):
            raise malformed_index(
                index_path,
                "tombstones",
                "a list of {file, generation} entries",
                tombstones,
            )
        return meta, shards, generation, tombstones

    def _reload(self) -> None:
        """Refresh this handle from the on-disk index.

        Called at the start of every locked mutation so read-modify-write
        cycles from concurrent handles compose instead of clobbering each
        other (the second writer starts from the first writer's commit).
        """
        self.meta, self.shards, self.generation, self.tombstones = (
            self._read_index(self.root / INDEX_NAME)
        )

    def _write_index(self) -> None:
        """Atomically replace the index (write-to-temp + rename)."""
        payload = {
            "version": INDEX_VERSION,
            "generation": self.generation,
            "meta": {
                "stored_frames": self.meta.stored_frames,
                "num_channels": self.meta.num_channels,
                "generated_timesteps": self.meta.generated_timesteps,
                "insertion_layer": self.meta.insertion_layer,
                "codec_factor": self.meta.codec_factor,
                "shard_samples": self.meta.shard_samples,
            },
            "shards": [
                {
                    "file": s.file,
                    "num_samples": s.num_samples,
                    "codec": s.codec,
                    "payload_bytes": s.payload_bytes,
                    "payload_offset": s.payload_offset,
                    "labels": list(map(int, s.labels)),
                }
                for s in self.shards
            ],
            "tombstones": [
                {"file": str(t["file"]), "generation": int(t["generation"])}
                for t in self.tombstones
            ],
        }
        atomic_write_json(self.root / INDEX_NAME, payload)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shard files in the store."""
        return len(self.shards)

    @property
    def num_samples(self) -> int:
        """Total samples across every shard."""
        return sum(s.num_samples for s in self.shards)

    @property
    def labels(self) -> np.ndarray:
        """All labels in storage order (index-only, no shard reads)."""
        if not self.shards:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(
            [np.asarray(s.labels, dtype=np.int64) for s in self.shards]
        )

    def payload_bytes(self) -> int:
        """Codec payload bytes across all shards (index accounting)."""
        return sum(s.payload_bytes for s in self.shards)

    def disk_bytes(self) -> int:
        """Actual bytes on disk: shard files plus the index itself."""
        try:
            total = (self.root / INDEX_NAME).stat().st_size
            for shard in self.shards:
                total += (self.root / shard.file).stat().st_size
        except OSError as error:
            raise StoreError(
                f"store was mutated by another handle while measuring "
                f"disk usage at {self.root}: {error}"
            ) from error
        return total

    def stats(self) -> StoreStats:
        """Aggregate :class:`StoreStats` over shards and classes."""
        codec_shards: dict[str, int] = {}
        class_counts: dict[int, int] = {}
        for shard in self.shards:
            codec_shards[shard.codec] = codec_shards.get(shard.codec, 0) + 1
            for label in shard.labels:
                class_counts[int(label)] = class_counts.get(int(label), 0) + 1
        return StoreStats(
            num_shards=self.num_shards,
            num_samples=self.num_samples,
            stored_frames=self.meta.stored_frames,
            num_channels=self.meta.num_channels,
            codec_shards=codec_shards,
            payload_bytes=self.payload_bytes(),
            disk_bytes=self.disk_bytes(),
            class_counts=dict(sorted(class_counts.items())),
        )

    # ------------------------------------------------------------------
    # Shard I/O
    # ------------------------------------------------------------------
    def append(self, raster: np.ndarray, labels: np.ndarray) -> list[int]:
        """Persist ``[T_stored, n, C]`` samples as one or more new shards.

        The raster is split into chunks of ``meta.shard_samples`` columns;
        each chunk becomes an immutable shard file.  Returns the new shard
        ids.
        """
        raster = np.asarray(raster)
        labels = np.asarray(labels)
        if raster.ndim != 3:
            raise StoreError(f"append expects [T, n, C], got shape {raster.shape}")
        if raster.shape[0] != self.meta.stored_frames:
            raise StoreError(
                f"raster has {raster.shape[0]} frames, store holds "
                f"{self.meta.stored_frames}"
            )
        if raster.shape[2] != self.meta.num_channels:
            raise StoreError(
                f"raster has {raster.shape[2]} channels, store holds "
                f"{self.meta.num_channels}"
            )
        if labels.ndim != 1 or labels.shape[0] != raster.shape[1]:
            raise StoreError(
                f"{labels.shape} labels incompatible with raster {raster.shape}"
            )
        with self._locked():
            self._reload()
            new_ids: list[int] = []
            for start in range(0, raster.shape[1], self.meta.shard_samples):
                chunk = raster[:, start : start + self.meta.shard_samples, :]
                chunk_labels = labels[start : start + self.meta.shard_samples]
                new_ids.append(self._write_shard(chunk, chunk_labels))
            self._commit_and_sweep([])
        return new_ids

    def _shard_name(self, shard_id: int) -> str:
        """Next free ``shard-NNNNN.bin`` name (never reuses a tombstone).

        Plain sequential naming would collide with a same-numbered file
        kept alive as a tombstone after a compaction, silently clobbering
        the snapshot a pinned reader is still gathering from.
        """
        used = {s.file for s in self.shards}
        used.update(str(t["file"]) for t in self.tombstones)
        while f"shard-{shard_id:05d}.bin" in used:
            shard_id += 1
        return f"shard-{shard_id:05d}.bin"

    def _write_shard(self, raster: np.ndarray, labels: np.ndarray) -> int:
        shard_id = len(self.shards)
        with obs.span("store.encode_shard", category="store", shard=shard_id) as sp:
            blob = encode_shard(raster, labels)
            sp.set(bytes=len(blob), samples=int(raster.shape[1]))
        obs.count("store.bytes_encoded", len(blob))
        obs.count("store.shards_encoded")
        header = peek_header(blob)
        name = self._shard_name(shard_id)
        (self.root / name).write_bytes(blob)
        self.shards.append(
            ShardInfo(
                file=name,
                num_samples=header.num_samples,
                codec=header.codec,
                payload_bytes=header.payload_bytes,
                payload_offset=len(blob) - header.payload_bytes,
                labels=[int(v) for v in labels],
            )
        )
        return shard_id

    def read_shard(self, shard_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode one shard to its dense ``[T_stored, n, C]`` raster."""
        if not 0 <= shard_id < len(self.shards):
            raise StoreError(
                f"shard {shard_id} out of range (store has {len(self.shards)})"
            )
        info = self.shards[shard_id]
        path = self.root / info.file
        with obs.span("store.decode_shard", category="store", shard=shard_id) as sp:
            try:
                blob = path.read_bytes()
            except OSError as error:
                raise StoreError(
                    f"shard file {info.file} is gone — store was mutated by "
                    f"another handle (compacted, filtered, or rebuilt); "
                    f"reopen the store to see its current state: {error}"
                ) from error
            sp.set(bytes=len(blob))
            raster, labels = decode_shard(blob)
        obs.count("store.bytes_decoded", len(blob))
        obs.count("store.shards_decoded")
        if raster.shape[1] != info.num_samples:
            raise StoreError(
                f"shard {shard_id} disagrees with the index: "
                f"{raster.shape[1]} samples, index says {info.num_samples}"
            )
        expected = np.asarray(info.labels, dtype=np.int64)
        mismatch = np.flatnonzero(labels != expected)
        if mismatch.size:
            first = int(mismatch[0])
            raise StoreError(
                f"shard {shard_id} disagrees with the index: "
                f"{mismatch.size} label(s) differ, first at sample {first} "
                f"(shard says {labels[first]}, index says {expected[first]})"
            )
        return raster, labels

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def filter(self, keep: np.ndarray) -> int:
        """Keep only the samples at global indices ``keep``; returns evictions.

        ``keep`` indexes the store's global sample order (storage order,
        the order :attr:`labels` uses); kept samples preserve that order.
        This is the eviction primitive of cross-store rebalancing: a
        federation decides *which* samples survive, ``filter`` rewrites
        the shard set to hold exactly those.  Streams shard-by-shard like
        :meth:`compact` and shares its crash-safety: new-generation files
        first, atomic index rename as the commit point, old files removed
        last.  Filtering to the full index set is a no-op (no rewrite).
        """
        keep = np.asarray(keep, dtype=np.int64)
        if keep.ndim != 1:
            raise StoreError(f"keep indices must be 1-D, got shape {keep.shape}")
        with self._locked():
            self._reload()
            total = self.num_samples
            if keep.size:
                if keep.min() < 0 or keep.max() >= total:
                    raise StoreError(
                        f"keep indices out of range [0, {total}) "
                        f"(got [{keep.min()}, {keep.max()}])"
                    )
                if np.any(np.diff(keep) <= 0):
                    raise StoreError("keep indices must be strictly increasing")
            if keep.size == total:
                return 0
            evicted = total - int(keep.size)
            target = self.meta.shard_samples
            old_files = [s.file for s in self.shards]
            generation = self.generation + 1

            staged: list[ShardInfo] = []
            pending_raster: list[np.ndarray] = []
            pending_labels: list[np.ndarray] = []
            pending = 0

            def flush(force: bool) -> None:
                nonlocal pending
                while pending >= target or (force and pending > 0):
                    raster = np.concatenate(pending_raster, axis=1)
                    labels = np.concatenate(pending_labels)
                    take = min(target, raster.shape[1])
                    blob = encode_shard(raster[:, :take, :], labels[:take])
                    header = peek_header(blob)
                    name = f"shard-g{generation:03d}-{len(staged):05d}.bin"
                    (self.root / name).write_bytes(blob)
                    staged.append(
                        ShardInfo(
                            file=name,
                            num_samples=header.num_samples,
                            codec=header.codec,
                            payload_bytes=header.payload_bytes,
                            payload_offset=len(blob) - header.payload_bytes,
                            labels=[int(v) for v in labels[:take]],
                        )
                    )
                    pending_raster[:] = (
                        [raster[:, take:, :]] if take < raster.shape[1] else []
                    )
                    pending_labels[:] = (
                        [labels[take:]] if take < labels.shape[0] else []
                    )
                    pending -= take

            offset = 0
            for shard_id in range(len(self.shards)):
                count = self.shards[shard_id].num_samples
                local = keep[(keep >= offset) & (keep < offset + count)] - offset
                offset += count
                if local.size == 0:
                    continue
                raster, labels = self.read_shard(shard_id)
                pending_raster.append(raster[:, local, :])
                pending_labels.append(labels[local])
                pending += int(local.size)
                flush(force=False)
            flush(force=True)

            self.shards = staged
            self.generation = generation
            self._commit_and_sweep(old_files)
        return evicted

    def compact(self, shard_samples: int | None = None) -> int:
        """Rewrite all shards at uniform occupancy; returns the new count.

        Used after budget evictions leave ragged shards, or to retarget
        the decode granularity.  Streams shard-by-shard, so peak memory
        stays at ~2 shards regardless of store size.

        Crash-safe: the new generation's shard files are written under
        names the current index never references, the atomic index
        rename is the commit point, and only then are the old
        generation's files removed.  A crash anywhere leaves a store
        that opens cleanly (at worst with orphaned files from the
        interrupted generation).
        """
        if shard_samples is not None and shard_samples <= 0:
            raise StoreError(f"shard_samples must be positive, got {shard_samples}")
        with self._locked():
            self._reload()
            target = shard_samples or self.meta.shard_samples
            old_files = [s.file for s in self.shards]
            generation = self.generation + 1

            staged: list[ShardInfo] = []
            pending_raster: list[np.ndarray] = []
            pending_labels: list[np.ndarray] = []
            pending = 0

            def flush(force: bool) -> None:
                nonlocal pending
                while pending >= target or (force and pending > 0):
                    raster = np.concatenate(pending_raster, axis=1)
                    labels = np.concatenate(pending_labels)
                    take = min(target, raster.shape[1])
                    blob = encode_shard(raster[:, :take, :], labels[:take])
                    header = peek_header(blob)
                    name = f"shard-g{generation:03d}-{len(staged):05d}.bin"
                    (self.root / name).write_bytes(blob)
                    staged.append(
                        ShardInfo(
                            file=name,
                            num_samples=header.num_samples,
                            codec=header.codec,
                            payload_bytes=header.payload_bytes,
                            payload_offset=len(blob) - header.payload_bytes,
                            labels=[int(v) for v in labels[:take]],
                        )
                    )
                    pending_raster[:] = (
                        [raster[:, take:, :]] if take < raster.shape[1] else []
                    )
                    pending_labels[:] = (
                        [labels[take:]] if take < labels.shape[0] else []
                    )
                    pending -= take

            for shard_id in range(len(self.shards)):
                raster, labels = self.read_shard(shard_id)
                pending_raster.append(raster)
                pending_labels.append(labels)
                pending += raster.shape[1]
                flush(force=False)
            flush(force=True)

            self.shards = staged
            self.generation = generation
            self.meta = StoreMeta(
                stored_frames=self.meta.stored_frames,
                num_channels=self.meta.num_channels,
                generated_timesteps=self.meta.generated_timesteps,
                insertion_layer=self.meta.insertion_layer,
                codec_factor=self.meta.codec_factor,
                shard_samples=target,
            )
            self._commit_and_sweep(old_files)
        return len(self.shards)

    def __repr__(self) -> str:
        return (
            f"ReplayStore(root={str(self.root)!r}, shards={self.num_shards}, "
            f"samples={self.num_samples})"
        )
