"""Checkpointing: save and restore predictor state.

Long-running stream consumers need to survive restarts without
replaying the stream.  Because a MinHash predictor's entire state is a
set of fixed-width arrays plus a degree table, it serialises naturally
into a single ``.npz`` archive, its members stored, not deflated
(deflate took ~85% of the write time to shrink the archive ~45%, and
uniform-hash values only ~10%):

* ``values``/``witnesses`` — the per-vertex slot matrices, stacked in
  one ``(n, k)`` array each (row order = ``vertex_ids``),
* ``degrees`` — the exact degree table,
* configuration scalars (k, seed, flags) for validation at load time,
* a ``sha256`` content checksum over every payload array, verified on
  load, so a torn or bit-rotted file is rejected with
  :class:`~repro.errors.CheckpointCorruptError` instead of resuming
  from garbage,
* optionally, the ingest guard's state (``guard_*`` fields: seen edges,
  degrees, high-water mark) under a checksum of its own,
  ``guard_sha256``.  Only a resume reads them (``read_checkpoint(...,
  guard=True)``); serving reads skip those members altogether, and a
  checkpoint without them loads as before.

Loading is one verification step, :func:`read_checkpoint`, feeding two
builders: :meth:`VerifiedCheckpoint.to_predictor` restores a predictor
*bit-identical* to the original (every future update and query gives
the same answer; the round-trip test pins this), and
:meth:`VerifiedCheckpoint.export_arrays` hands the verified matrices to
the serving tier with no predictor in between.  Deflated archives from
earlier releases load the same way.  Checkpoints embed a format version
and the hash seed; loading a checkpoint into an incompatible library
version or configuration fails loudly instead of silently mixing hash
spaces.

The archive is streamed, not built in memory: members go out one at a
time in name order (``guard_sha256`` and ``sha256`` last), the slot
matrices gathered from the live store in sorted-row chunks of
:data:`~repro.core.predictor.ROW_CHUNK` rows, each chunk feeding the
checksum as it is written.  A save holds one chunk buffer and a few
per-vertex columns, never a sorted copy of the store; the members and
checksums are byte-for-byte what ``np.savez`` of the same fields gives.

Writes to a filesystem path are **atomic**: the archive is written to a
temporary sibling file, flushed and fsynced, then moved over the target
with ``os.replace``.  A crash mid-write therefore never destroys the
last good checkpoint — the worst case is a stray ``*.tmp-*`` file that
the next write cleans up.  Writes to an already-open file object (the
distributed-ingest transport) skip the rename dance.

Only the exact-degree configuration is checkpointable: Count-Min degree
tables and the biased predictor's refresh buffers are supported by
their own ``state`` accessors but intentionally not bundled here (the
paper's deployment mode is the exact-degree uniform sketch).
"""

from __future__ import annotations

import hashlib
import os
import time
import zipfile
import zlib
from pathlib import Path
from typing import IO, Dict, Mapping, NamedTuple, Optional, Union

import numpy as np

from repro.core.config import SketchConfig
from repro.core.dynamic import DynamicArrays, DynamicMinHashPredictor
from repro.core.predictor import ROW_CHUNK, MinHashLinkPredictor, SketchArrays
from repro.errors import CheckpointCorruptError, ConfigurationError, ReproError, SketchStateError
from repro.obs.registry import MetricsRegistry

__all__ = [
    "save_predictor",
    "load_predictor",
    "read_checkpoint",
    "VerifiedCheckpoint",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 2

PathLike = Union[str, Path]

#: Prefix distinguishing caller-supplied metadata fields (stream offset,
#: checkpoint generation, ...) from predictor payload fields.
_META_PREFIX = "meta_"

#: Prefix of the ingest guard's fields, checksummed apart (in
#: ``guard_sha256``) so that reads which skip them still verify.
_GUARD_PREFIX = "guard_"
_GUARD_CHECKSUM = _GUARD_PREFIX + "sha256"

#: Exceptions numpy/zipfile raise on truncated or garbled archives.  A
#: half-written ``.npz`` can die in the zip directory (``BadZipFile``,
#: also a stored member's CRC), in a deflated member's stream
#: (``zlib.error``, archives from earlier releases), in the ``.npy`` header
#: parse (``ValueError``), or at a short read (``EOFError``/``OSError``).
_CORRUPTION_ERRORS = (
    zipfile.BadZipFile,
    zipfile.LargeZipFile,
    zlib.error,
    ValueError,
    EOFError,
    OSError,
)


def _payload_checksum(fields: Mapping[str, np.ndarray], guard: bool = False) -> str:
    """Deterministic sha256 over the predictor fields, or with
    ``guard`` over the guard fields (checksums excluded either way).

    Field name, dtype, shape and raw bytes all feed the digest, so a
    renamed, retyped, reshaped or bit-flipped array is all caught.
    :func:`_write_archive` computes the same digest as it writes.
    """
    digest = hashlib.sha256()
    for name in sorted(fields):
        if name in ("sha256", _GUARD_CHECKSUM) or name.startswith(_GUARD_PREFIX) != guard:
            continue
        dtype, shape, chunks = _member(fields[name])
        _digest_header(digest, name, dtype, shape)
        for chunk in chunks:
            digest.update(memoryview(chunk))
    return digest.hexdigest()


def _digest_header(digest, name: str, dtype: np.dtype, shape: tuple) -> None:
    for part in (name, str(dtype), repr(shape)):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")


class _SortedRows(NamedTuple):
    """A store matrix as an archive member: its rows in ``order``,
    gathered :data:`~repro.core.predictor.ROW_CHUNK` rows at a time into
    one reused buffer, so no sorted copy of the matrix is ever made."""

    column: np.ndarray
    order: np.ndarray

    def chunks(self):
        buffer = np.empty((min(ROW_CHUNK, len(self.order)),) + self.column.shape[1:], self.column.dtype)
        for start in range(0, len(self.order), ROW_CHUNK):
            rows = self.order[start : start + ROW_CHUNK]
            # mode="clip" (the rows are all in range) keeps np.take from
            # buffering the output.
            yield np.take(self.column, rows, axis=0, out=buffer[: len(rows)], mode="clip")


def _member(value) -> tuple:
    """``(dtype, shape, chunks)`` of one field: its C-order bytes are
    the concatenation of the chunks."""
    if isinstance(value, _SortedRows):
        return value.column.dtype, (len(value.order),) + value.column.shape[1:], value.chunks()
    array = np.asarray(value)
    return array.dtype, array.shape, (np.ascontiguousarray(array),)


def _write_archive(handle: IO[bytes], fields: Mapping[str, object]) -> None:
    """Write ``fields`` as the stored archive ``np.savez`` would, one
    member at a time in name order, hashing each chunk as it is written;
    ``guard_sha256`` (when there are guard fields) and ``sha256`` go
    last.  ``np.load`` reads the result like any ``.npz``."""
    digests = {False: hashlib.sha256(), True: hashlib.sha256()}
    with zipfile.ZipFile(handle, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True) as archive:

        def write(name: str, value) -> None:
            dtype, shape, chunks = _member(value)
            digest = digests[name.startswith(_GUARD_PREFIX)]
            _digest_header(digest, name, dtype, shape)
            header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape}
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                for chunk in chunks:
                    view = memoryview(chunk)
                    member.write(view)
                    digest.update(view)

        for name in sorted(fields):
            write(name, fields[name])
        if any(name.startswith(_GUARD_PREFIX) for name in fields):
            write(_GUARD_CHECKSUM, np.frombuffer(digests[True].digest(), dtype=np.uint8))
        write("sha256", np.frombuffer(digests[False].digest(), dtype=np.uint8))


def _write_atomic(path_or_file: Union[PathLike, IO[bytes]], fields: Mapping[str, object]) -> None:
    """:func:`_write_archive`, atomically for paths."""
    if hasattr(path_or_file, "write"):
        _write_archive(path_or_file, fields)
        return
    path = Path(path_or_file)
    # np.savez appends ".npz" to suffixless *paths*, but not to open file
    # objects — keep that quirk so atomic writes land on the same name.
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            _write_archive(handle, fields)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def save_predictor(
    predictor: Union[MinHashLinkPredictor, DynamicMinHashPredictor],
    path: Union[PathLike, IO[bytes]],
    *,
    metadata: Optional[Mapping[str, int]] = None,
    metrics: Optional[MetricsRegistry] = None,
    guard: Optional[Mapping[str, np.ndarray]] = None,
) -> int:
    """Write a checkpoint; returns the number of vertices saved.

    ``metadata`` is an optional mapping of integer-valued fields (e.g.
    ``{"stream_offset": 1024}``) stored alongside the predictor state,
    checksummed with it, and returned verbatim as
    :attr:`VerifiedCheckpoint.metadata` by :func:`read_checkpoint`.

    ``guard`` is an optional mapping of arrays (the
    :meth:`~repro.stream.policies.StreamGuard.state_arrays` of the
    ingest guard) stored in the same archive under their own checksum,
    and returned as :attr:`VerifiedCheckpoint.guard` by
    ``read_checkpoint(..., guard=True)``.

    ``metrics`` (optional) records the save into the ``persist_*``
    instruments: ``persist_save_seconds`` (latency histogram) and
    ``persist_bytes_written_total`` (archive bytes; file
    objects report a position delta when they are seekable).

    Raises :class:`SketchStateError` for configurations whose state is
    not fully capturable (Count-Min degrees).
    """
    started = time.perf_counter()
    if predictor.config.degree_mode != "exact":
        raise SketchStateError(
            "only exact-degree predictors are checkpointable; "
            f"got degree_mode={predictor.config.degree_mode!r}"
        )
    track = predictor.config.track_witnesses
    if isinstance(predictor, DynamicMinHashPredictor):
        # Dynamic predictors checkpoint their *raw counter state* (the
        # lossless CSR export), never the materialized views: a future
        # merge may still need dead or negative counters, and liveness
        # is recomputed from high_water/ttl on every query anyway.
        dynamic = predictor.export_dynamic_arrays()
        saved_rows = len(dynamic.vertex_ids)
        fields: Dict[str, np.ndarray] = {
            "format_version": np.int64(FORMAT_VERSION),
            "dynamic": np.bool_(True),
            "k": np.int64(predictor.config.k),
            "seed": np.uint64(predictor.config.seed),
            "track_witnesses": np.bool_(track),
            "ttl": np.float64(predictor.config.ttl),
            "high_water": np.float64(dynamic.high_water),
            "vertex_ids": dynamic.vertex_ids,
            "adj_indptr": dynamic.indptr,
            "adj_keys": dynamic.keys,
            "adj_counts": dynamic.counts,
            "adj_last_seen": dynamic.last_seen,
            "op_counts": dynamic.op_counts,
        }
    else:
        # The rows in export_arrays() order (sorted ids), streamed from
        # the store: the (n, k) members are gathered chunk by chunk.
        stored = predictor._stored_arrays()
        order = np.argsort(stored.vertex_ids)
        saved_rows = len(order)
        fields = {
            "format_version": np.int64(FORMAT_VERSION),
            "k": np.int64(predictor.config.k),
            "seed": np.uint64(predictor.config.seed),
            "track_witnesses": np.bool_(track),
            "vertex_ids": stored.vertex_ids[order],
            "values": _SortedRows(stored.values, order),
            "witnesses": (
                _SortedRows(stored.witnesses, order) if track else np.empty((0, 0), dtype=np.int64)
            ),
            "update_counts": stored.update_counts[order],
            "degrees": stored.degrees[order],
        }
    for key, value in (metadata or {}).items():
        fields[_META_PREFIX + key] = np.int64(value)
    for key, value in (guard or {}).items():
        fields[_GUARD_PREFIX + key] = np.asarray(value)
    before = _position_of(path)
    _write_atomic(path, fields)
    if metrics is not None and metrics.enabled:
        metrics.histogram(
            "persist_save_seconds", "Wall seconds per checkpoint save"
        ).observe(time.perf_counter() - started)
        written = _archive_bytes(path, before)
        if written is not None:
            metrics.counter(
                "persist_bytes_written_total", "Checkpoint archive bytes written"
            ).inc(written)
    return saved_rows


def _position_of(path: Union[PathLike, IO[bytes]]) -> Optional[int]:
    """Stream position for seekable file objects, else ``None``."""
    if hasattr(path, "write"):
        try:
            return path.tell()  # type: ignore[union-attr]
        except (OSError, ValueError):
            return None
    return None


def _archive_bytes(path: Union[PathLike, IO[bytes]], before: Optional[int]) -> Optional[int]:
    """Bytes the finished archive occupies (``None`` when unknowable)."""
    if hasattr(path, "write"):
        after = _position_of(path)
        if before is not None and after is not None:
            return after - before
        return None
    resolved = Path(path)
    if resolved.suffix != ".npz":  # mirror np.savez's suffix quirk
        resolved = resolved.with_name(resolved.name + ".npz")
    try:
        return resolved.stat().st_size
    except OSError:
        return None


def load_predictor(
    path: Union[PathLike, IO[bytes]],
) -> Union[MinHashLinkPredictor, DynamicMinHashPredictor]:
    """Reconstruct a predictor from a checkpoint written by
    :func:`save_predictor`.

    The restored object answers every query identically to the saved
    one and accepts further stream updates.  Raises
    :class:`~repro.errors.CheckpointCorruptError` (a
    :class:`SketchStateError`) if the file is truncated, fails its
    embedded checksum, or is not a checkpoint archive at all.
    """
    return read_checkpoint(path).to_predictor()


def read_checkpoint(
    path: Union[PathLike, IO[bytes]],
    *,
    metrics: Optional[MetricsRegistry] = None,
    guard: bool = False,
) -> "VerifiedCheckpoint":
    """Read and verify a checkpoint (field inventory, version,
    checksum, configuration, metadata), building nothing from it yet.

    The guard fields are read and verified only with ``guard=True`` (a
    resume); otherwise :attr:`VerifiedCheckpoint.guard` is ``None``
    and those archive members are never read.

    ``metrics`` (optional) records successful reads into
    ``persist_load_seconds``.
    """
    started = time.perf_counter()
    try:
        with np.load(path) as archive:
            checkpoint = _verify(
                {
                    field: archive[field]
                    for field in archive.files
                    if guard or not field.startswith(_GUARD_PREFIX)
                },
                describe(path),
            )
    except ReproError:
        raise
    except FileNotFoundError:
        raise  # an absent checkpoint is not a corrupt one
    except _CORRUPTION_ERRORS as error:
        raise CheckpointCorruptError(
            f"checkpoint {describe(path)} is truncated or corrupt: {error}"
        ) from error
    if metrics is not None and metrics.enabled:
        metrics.histogram(
            "persist_load_seconds", "Wall seconds per checkpoint read and verification"
        ).observe(time.perf_counter() - started)
    return checkpoint


def describe(path: Union[PathLike, IO[bytes]]) -> str:
    """A human-readable name for a checkpoint target (path or buffer)."""
    return str(path) if isinstance(path, (str, Path)) else getattr(path, "name", "<buffer>")


#: Every field a version-2 checkpoint must carry (plus ``sha256``,
#: checked separately so its absence gets its own diagnosis).
_REQUIRED_FIELDS = (
    "format_version",
    "k",
    "seed",
    "track_witnesses",
    "vertex_ids",
    "values",
    "witnesses",
    "update_counts",
    "degrees",
)

#: Schema of a dynamic (deletion-tolerant) checkpoint: the raw CSR
#: counter state instead of materialized slot matrices.  The ``dynamic``
#: flag field selects which inventory applies.
_DYNAMIC_REQUIRED_FIELDS = (
    "format_version",
    "dynamic",
    "k",
    "seed",
    "track_witnesses",
    "ttl",
    "high_water",
    "vertex_ids",
    "adj_indptr",
    "adj_keys",
    "adj_counts",
    "adj_last_seen",
    "op_counts",
)


class VerifiedCheckpoint(NamedTuple):
    """A checkpoint's fields after every load-time check passed.

    ``guard`` holds the ingest guard's arrays (prefix stripped) when
    they were asked for and the checkpoint has them, else ``None``."""

    config: SketchConfig
    fields: Dict[str, np.ndarray]
    metadata: Dict[str, int]
    guard: Optional[Dict[str, np.ndarray]] = None

    def export_arrays(self) -> SketchArrays:
        """The verified slot matrices, as
        :meth:`MinHashLinkPredictor.export_arrays
        <repro.core.predictor.MinHashLinkPredictor.export_arrays>` gives
        them (dynamic checkpoints hold CSR state instead and raise)."""
        if self.config.dynamic_mode:
            raise SketchStateError("a dynamic checkpoint holds no slot matrices")
        fields = self.fields
        return SketchArrays(
            fields["vertex_ids"],
            fields["values"],
            fields["witnesses"] if self.config.track_witnesses else None,
            fields["update_counts"],
            fields["degrees"],
        )

    def to_predictor(self) -> Union[MinHashLinkPredictor, DynamicMinHashPredictor]:
        """A live predictor, bit-identical to the one that was saved."""
        if not self.config.dynamic_mode:
            return MinHashLinkPredictor.from_arrays(self.config, self.export_arrays())
        fields = self.fields
        return DynamicMinHashPredictor.from_dynamic_arrays(
            self.config,
            DynamicArrays(
                vertex_ids=fields["vertex_ids"],
                indptr=fields["adj_indptr"],
                keys=fields["adj_keys"],
                counts=fields["adj_counts"],
                last_seen=fields["adj_last_seen"],
                op_counts=fields["op_counts"],
                high_water=float(fields["high_water"]),
            ),
        )


def _verify(fields: Dict[str, np.ndarray], name: str) -> VerifiedCheckpoint:
    # Field inventory before anything else: a valid .npz that is not a
    # predictor checkpoint at all (or a half-schema from some other
    # tool) must fail with a diagnosis, not a KeyError traceback.  The
    # ``dynamic`` flag selects which schema the archive claims to be.
    is_dynamic = "dynamic" in fields and bool(fields["dynamic"])
    required = _DYNAMIC_REQUIRED_FIELDS if is_dynamic else _REQUIRED_FIELDS
    missing = [field for field in required if field not in fields]
    if missing:
        raise CheckpointCorruptError(
            f"checkpoint {name} is not a predictor checkpoint archive: "
            f"missing field(s) {', '.join(missing)} "
            f"(holds: {', '.join(sorted(fields)) or 'nothing'})"
        )
    # Version next: a future format may checksum differently, and the
    # "wrong library version" diagnosis beats a checksum mismatch.
    version = int(fields["format_version"])
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"checkpoint format version {version} is not supported "
            f"(this library writes version {FORMAT_VERSION})"
        )
    stored = fields.pop("sha256", None)
    if stored is None:
        raise CheckpointCorruptError(f"checkpoint {name} has no embedded checksum")
    expected = bytes(np.asarray(stored, dtype=np.uint8)).hex()
    actual = _payload_checksum(fields)
    if actual != expected:
        raise CheckpointCorruptError(
            f"checkpoint {name} failed checksum verification "
            f"(stored {expected[:12]}..., recomputed {actual[:12]}...)"
        )
    try:
        config = SketchConfig(
            k=int(fields["k"]),
            seed=int(fields["seed"]),
            track_witnesses=bool(fields["track_witnesses"]),
            dynamic_mode=is_dynamic,
            ttl=float(fields["ttl"]) if is_dynamic else 0.0,
        )
    except ConfigurationError as error:
        # Checksummed but unusable: the archive was written with a
        # configuration this library refuses to construct.
        raise ConfigurationError(
            f"checkpoint {name} carries an incompatible sketch "
            f"configuration: {error}"
        ) from error
    metadata = {
        field[len(_META_PREFIX):]: int(value)
        for field, value in fields.items()
        if field.startswith(_META_PREFIX)
    }
    return VerifiedCheckpoint(config, fields, metadata, _verify_guard(fields, name))


def _verify_guard(fields: Dict[str, np.ndarray], name: str) -> Optional[Dict[str, np.ndarray]]:
    """Pop and verify the guard fields, if the read loaded any."""
    stored = fields.pop(_GUARD_CHECKSUM, None)
    guard = {
        field[len(_GUARD_PREFIX):]: fields.pop(field)
        for field in [field for field in fields if field.startswith(_GUARD_PREFIX)]
    }
    if stored is None:
        if guard:
            raise CheckpointCorruptError(f"checkpoint {name} has guard fields but no guard checksum")
        return None
    expected = bytes(np.asarray(stored, dtype=np.uint8)).hex()
    actual = _payload_checksum({_GUARD_PREFIX + key: value for key, value in guard.items()}, guard=True)
    if actual != expected:
        raise CheckpointCorruptError(
            f"checkpoint {name} failed guard checksum verification "
            f"(stored {expected[:12]}..., recomputed {actual[:12]}...)"
        )
    return guard
