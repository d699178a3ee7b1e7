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
read when their samples are replayed (see ``stream.py``) or rewritten.

Shards are immutable once written; mutation happens by appending new
shards or by :meth:`ReplayStore.compact`, which rewrites the shard set
at uniform occupancy (after evictions leave ragged shards behind).

Concurrency: every index mutation runs under an exclusive advisory
:class:`~repro.ioutil.FileLock` (``index.json.lock``) and re-reads the
on-disk index before modifying it, so handles in different threads or
processes serialize their read-modify-write cycles; the atomic index
rename stays the commit point, and superseded shard files are unlinked
right after it.  A replay read takes the same lock for the whole decode
(:class:`~repro.replaystore.stream.ReplayStream`), so no read is ever in
flight across a mutation.  A handle that another handle's mutation left
behind gets a clean :class:`~repro.errors.StoreError`, never a raw
``FileNotFoundError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import StoreError
from repro.ioutil import atomic_write_json, locked
from repro.replaystore.format import decode_shard, encode_shard, peek_header

__all__ = [
    "StoreMeta",
    "ShardInfo",
    "StoreStats",
    "ReplayStore",
    "INDEX_NAME",
    "LOCK_NAME",
    "index_int",
    "is_int",
    "malformed_index",
]

INDEX_NAME = "index.json"
#: Lock file guarding index read-modify-write (never renamed, unlike
#: the index itself, so the locked inode is stable).
LOCK_NAME = "index.json.lock"
INDEX_VERSION = 1

#: Default samples per shard: the unit of encoding, codec choice and
#: file I/O (a replay read decodes every shard of the store once).
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
    ):
        self.root = Path(root)
        self.meta = meta
        self.shards = shards
        #: Bumped by :meth:`compact`; compacted shard files carry the
        #: generation in their name so a rewrite never collides with the
        #: files the current index still points at.
        self.generation = int(generation)

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    def _locked(self):
        """Exclusive advisory lock over index read-modify-write and reads."""
        return locked(self.root / LOCK_NAME)

    def _commit(self, orphans: list[str]) -> None:
        """Commit the index, then unlink the files it no longer references.

        The atomic index rename is the commit point, so a crash before
        the unlinks leaves at worst orphaned files, never an index that
        points at a missing shard.  Caller holds the index lock.
        """
        self._write_index()
        for name in orphans:
            (self.root / name).unlink(missing_ok=True)

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
        meta, shards, generation = cls._read_index(root / INDEX_NAME)
        return cls(root, meta, shards, generation=generation)

    @staticmethod
    def _read_index(index_path: Path) -> tuple[StoreMeta, list[ShardInfo], int]:
        """Parse and validate an index (shared by ``open`` and reload).

        Keys this version does not read (fields written by older
        versions) are ignored; the next commit drops them.
        """
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
        return meta, shards, generation

    def _reload(self) -> None:
        """Refresh this handle from the on-disk index.

        Called at the start of every locked mutation so read-modify-write
        cycles from concurrent handles compose instead of clobbering each
        other (the second writer starts from the first writer's commit).
        """
        self.meta, self.shards, self.generation = self._read_index(
            self.root / INDEX_NAME
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
            self._commit([])
        return new_ids

    def _write_shard(self, raster: np.ndarray, labels: np.ndarray) -> int:
        shard_id = len(self.shards)
        with obs.span("store.encode_shard", category="store", shard=shard_id) as sp:
            blob = encode_shard(raster, labels)
            sp.set(bytes=len(blob), samples=int(raster.shape[1]))
        obs.count("store.bytes_encoded", len(blob))
        obs.count("store.shards_encoded")
        self.shards.append(self._write_file(f"shard-{shard_id:05d}.bin", blob, labels))
        return shard_id

    def _write_file(self, name: str, blob: bytes, labels: np.ndarray) -> ShardInfo:
        """Write an encoded shard to ``name``; returns its index row."""
        header = peek_header(blob)
        (self.root / name).write_bytes(blob)
        return ShardInfo(
            file=name,
            num_samples=header.num_samples,
            codec=header.codec,
            payload_bytes=header.payload_bytes,
            payload_offset=len(blob) - header.payload_bytes,
            labels=[int(v) for v in labels],
        )

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
        the shard set to hold exactly those.  Shares :meth:`compact`'s
        rewrite and its crash-safety.  Filtering to the full index set is
        a no-op (no rewrite).
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

            def survivors():
                offset = 0
                for shard_id, info in enumerate(self.shards):
                    local = keep[(keep >= offset) & (keep < offset + info.num_samples)]
                    local -= offset
                    offset += info.num_samples
                    if local.size:
                        raster, labels = self.read_shard(shard_id)
                        yield raster[:, local, :], labels[local]

            self._rewrite(survivors(), self.meta)
        return total - int(keep.size)

    def compact(self, shard_samples: int | None = None) -> int:
        """Rewrite all shards at uniform occupancy; returns the new count.

        Used after budget evictions leave ragged shards, or to retarget
        the shard size.  Streams shard-by-shard, so peak memory stays at
        ~2 shards regardless of store size.
        """
        if shard_samples is not None and shard_samples <= 0:
            raise StoreError(f"shard_samples must be positive, got {shard_samples}")
        with self._locked():
            self._reload()
            meta = replace(
                self.meta, shard_samples=shard_samples or self.meta.shard_samples
            )
            self._rewrite(map(self.read_shard, range(self.num_shards)), meta)
        return len(self.shards)

    def _rewrite(self, pieces, meta: StoreMeta) -> None:
        """Re-pack ``pieces`` as the next generation and commit it.

        ``pieces`` yields ``(raster, labels)`` runs of samples in storage
        order; they are cut into shards of ``meta.shard_samples`` samples
        (the last one may be short).  Crash-safe: the new generation's
        files are written under names the current index never
        references, the atomic index rename is the commit point, and only
        then are the old generation's files removed — a crash anywhere
        leaves a store that opens cleanly (at worst with orphaned files
        from the interrupted generation).  Caller holds the index lock.
        """
        target = meta.shard_samples
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
                name = f"shard-g{generation:03d}-{len(staged):05d}.bin"
                staged.append(self._write_file(name, blob, labels[:take]))
                pending_raster[:] = [raster[:, take:, :]] if take < pending else []
                pending_labels[:] = [labels[take:]] if take < pending else []
                pending -= take

        for raster, labels in pieces:
            pending_raster.append(raster)
            pending_labels.append(labels)
            pending += raster.shape[1]
            flush(force=False)
        flush(force=True)

        old_files = [s.file for s in self.shards]
        self.shards = staged
        self.generation = generation
        self.meta = meta
        self._commit(old_files)

    def __repr__(self) -> str:
        return (
            f"ReplayStore(root={str(self.root)!r}, shards={self.num_shards}, "
            f"samples={self.num_samples})"
        )
