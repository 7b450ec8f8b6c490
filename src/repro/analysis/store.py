"""Content-addressed, shared, persistent store of derived I/O bounds.

The paper's value proposition is that a parametric bound is derived *once*
per program and then reused forever; :class:`BoundStore` is the subsystem
that makes the "forever" part real.  It replaces the ad-hoc flat-directory
JSON cache of the first ``Analyzer`` iteration with a first-class store:

* **content-addressed layout** — entries live at
  ``<root>/objects/<2-hex-shard>/<key>.json`` where the key is the program
  fingerprint crossed with the result-relevant config signature, so the same
  derivation is found by every process, suite run and machine sharing the
  root;
* **shared default root** — ``$REPRO_STORE`` when set, otherwise
  ``~/.cache/repro`` (the per-user XDG-style location), so suites,
  benchmarks and services all hit one store without any configuration;
* **schema negotiation** — every entry is a versioned envelope; a payload
  without one is a miss.  Entries written by a *newer* library version are
  treated as misses and are not overwritten (a check-then-replace guard:
  best-effort under mixed-version writers racing on one key, absolute
  otherwise);
* **eviction** — :meth:`BoundStore.gc` enforces a size budget by evicting
  least-recently-used entries (access times are bumped on every hit, so the
  policy works on ``noatime`` mounts too);
* **concurrent-writer safety** — writes go through a temporary file in the
  destination shard followed by an atomic :func:`os.replace`; readers treat
  missing, truncated or unparseable entries as misses, so any number of
  writers and readers can share a store without locks;
* **one decode path** — every read (:meth:`BoundStore.get`,
  :meth:`~BoundStore.get_task`, :meth:`~BoundStore.get_simulation`) checks
  the envelope and decodes the body with its kind's decoder, and counts a
  hit only when the body decodes, so the session hit/miss counters are
  true;
* **shared warm results** — a store keeps the results it decoded last,
  keyed by the bytes of their entry, and a read of an unchanged entry
  returns the same result object instead of a fresh copy (results are
  immutable everywhere in the library), so a caller holding many warm reads
  holds one result per entry and a warm read skips the parse and the decode.

Maintenance is exposed programmatically (:meth:`stats`, :meth:`gc`,
:meth:`clear`) and on the command line::

    python -m repro cache stats
    python -m repro cache gc --budget 64M
    python -m repro cache clear
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import tarfile
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, TypeVar

from ..core.bounds import IOBoundResult

#: Version of the *derivation semantics*.  Bump it whenever an algorithm
#: change (strategy logic, set counting, decomposition, simplification) can
#: alter a derived bound: the version is folded into every store key (see
#: :func:`repro.analysis.result_key`), so a warm shared store never
#: serves results computed by older, differently-behaving code.
#: History: 2 — the nested-case-split counting fix in ``repro.sets``;
#: 3 — symbolic (Algorithm 5) wavefront validation replaces the
#: concrete-CDAG check and ``_omega_range`` takes the tightest bound per
#: piece instead of the first; 4 — a read of a 0-dimensional array
#: (``A[]``) has the whole iteration space as its kernel, like any other
#: constant map, instead of {0}.
DERIVATION_VERSION = 4

#: Environment variable naming the default store root.
STORE_ENV = "REPRO_STORE"

#: Environment variable holding the default size budget (e.g. ``256M``).
BUDGET_ENV = "REPRO_STORE_BUDGET"

#: Version of the on-disk entry envelope written by this library.  Entries
#: with a *larger* ``store_schema`` come from a newer library: they are
#: reported as misses and never overwritten.  Payloads with no envelope at
#: all count as "schema 0" and are misses.
STORE_SCHEMA = 1

_SIZE_SUFFIXES = {"": 1, "K": 1024, "M": 1024**2, "G": 1024**3, "T": 1024**4}

#: Archive member names accepted by :meth:`BoundStore.import_archive`: the
#: sharded layout with a result key, a ``-task`` key or a ``-sim`` key as the
#: stem.  Anything else in the tar — absolute paths, ``..`` traversals,
#: unrelated files — is skipped, never extracted: members are read through
#: ``extractfile`` and re-written through the store's own atomic write path,
#: so a hostile archive cannot place a file anywhere but a valid entry slot.
_ARCHIVE_MEMBER_PATTERN = re.compile(
    r"objects/[0-9a-f]{2}/([0-9a-f]{64}-(?:[0-9a-f]{16}|task|sim))\.json"
)

#: With a size budget configured, ``put`` triggers a full ``gc`` sweep only
#: every this many writes — a sweep walks and stats the whole store, so
#: running it per write would make batch derivation quadratic in store size.
GC_WRITE_INTERVAL = 8

#: Decoded results a store keeps for warm reads (least recently read go first).
DECODED_RESULTS = 64

#: The envelope field holding each entry kind's body.
_BODY_FIELDS = {"result": "result", "task": "task_result", "simulation": "simulation"}

T = TypeVar("T")


def default_store_root() -> Path:
    """The shared store root: ``$REPRO_STORE`` or ``~/.cache/repro``."""
    env = os.environ.get(STORE_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def parse_size(text: str | int | None) -> int | None:
    """Parse a human-readable size (``"64M"``, ``"1G"``, ``4096``) to bytes."""
    if text is None:
        return None
    if isinstance(text, int):
        return text
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([KMGT]?)I?B?\s*", text.upper())
    if match is None:
        raise ValueError(f"cannot parse size {text!r} (expected e.g. 4096, 64M, 1G)")
    return int(float(match.group(1)) * _SIZE_SUFFIXES[match.group(2)])


def _default_budget() -> int | None:
    env = os.environ.get(BUDGET_ENV)
    return parse_size(env) if env else None


@dataclass
class StoreStats:
    """Snapshot of a store's on-disk state plus this process's session counters."""

    root: str
    entries: int = 0
    total_bytes: int = 0
    shards: int = 0
    schema_versions: dict[int, int] = field(default_factory=dict)
    #: Entry kinds on disk: whole-program ``"result"`` envelopes vs.
    #: task-level ``"task"`` envelopes (plus ``"unreadable"``).
    kinds: dict[str, int] = field(default_factory=dict)
    size_budget: int | None = None
    #: Session counters (this BoundStore instance, this process only).
    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "shards": self.shards,
            "schema_versions": {str(k): v for k, v in sorted(self.schema_versions.items())},
            "kinds": dict(sorted(self.kinds.items())),
            "size_budget": self.size_budget,
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "evictions": self.evictions,
            },
        }


class BoundStore:
    """Content-addressed persistent store of :class:`IOBoundResult` entries.

    Parameters
    ----------
    root:
        Store root directory.  ``None`` resolves the shared default
        (``$REPRO_STORE`` or ``~/.cache/repro``).
    size_budget:
        Byte budget enforced by :meth:`gc` (and opportunistically after every
        write).  ``None`` reads ``$REPRO_STORE_BUDGET``; when that is unset
        too, the store is unbounded until :meth:`gc` is called with an
        explicit budget.  Accepts ints or human-readable strings (``"64M"``).
    """

    def __init__(self, root: str | Path | None = None, size_budget: int | str | None = None):
        self.root = Path(root).expanduser() if root is not None else default_store_root()
        self.size_budget = parse_size(size_budget) if size_budget is not None else _default_budget()
        # One store instance is shared by every request thread of the
        # concurrent service; the disk layout is lock-free by design
        # (atomic replace + miss-on-unreadable), but the session counters
        # are plain ints and would drop increments under racing readers.
        self._counter_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._evictions = 0
        self._writes_since_gc = 0
        # Entry digest -> the result decoded from those bytes.
        self._decoded: OrderedDict[bytes, IOBoundResult] = OrderedDict()
        self._decoded_lock = threading.Lock()

    def _count_hit(self) -> None:
        with self._counter_lock:
            self._hits += 1

    def _count_miss(self) -> None:
        with self._counter_lock:
            self._misses += 1

    # Session counters: cheap accessors (no disk I/O — unlike stats()).

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def writes(self) -> int:
        return self._writes

    # -- layout ---------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def path_for(self, key: str) -> Path:
        """On-disk location of an entry: ``objects/<first-2-hex>/<key>.json``."""
        return self.objects_dir / key[:2] / f"{key}.json"

    def _entries(self) -> Iterator[Path]:
        if not self.objects_dir.is_dir():
            return
        for shard in sorted(self.objects_dir.iterdir()):
            if not shard.is_dir():
                continue
            yield from sorted(shard.glob("*.json"))

    # -- read path ------------------------------------------------------------

    def get(self, key: str) -> IOBoundResult | None:
        """Look up a result; any unreadable or foreign entry is a miss."""
        return self._read(key, "result", IOBoundResult.from_dict)

    def _read(self, key: str, kind: str, decode: Callable[[dict], T]) -> T | None:
        """The one read path: envelope, kind and body checks, then ``decode``.

        A hit is counted only once the body decodes: an entry that is
        missing, truncated, envelope-less, of another kind, or whose body
        ``decode`` rejects (``KeyError``/``ValueError``/``TypeError``) is a
        miss, and the caller recomputes it.
        """
        path = self.path_for(key)
        raw = _read_bytes(path)
        value = None
        if raw is not None:
            if kind == "result":
                value = self._decoded_result(raw, decode)
            else:
                value = _decode_entry(raw, kind, decode)
        if value is None:
            self._count_miss()
            return None
        _touch(path)  # bump atime explicitly: LRU works on noatime mounts
        self._count_hit()
        return value

    def _decoded_result(self, raw: bytes, decode: Callable[[dict], T]) -> T | None:
        """The result in a result entry's bytes: the one decoded from the
        same bytes before, if this store still keeps it, else a new decode."""
        digest = hashlib.blake2b(raw, digest_size=16).digest()
        with self._decoded_lock:
            value = self._decoded.get(digest)
            if value is not None:
                self._decoded.move_to_end(digest)
                return value
        value = _decode_entry(raw, "result", decode)
        if value is not None:
            with self._decoded_lock:
                self._decoded[digest] = value
                if len(self._decoded) > DECODED_RESULTS:
                    self._decoded.popitem(last=False)
        return value

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    # -- write path -----------------------------------------------------------

    def put(
        self,
        key: str,
        result: IOBoundResult,
        metadata: Mapping[str, object] | None = None,
    ) -> Path | None:
        """Write an entry atomically; best-effort, never required to succeed.

        Returns the entry path, or ``None`` when the write was skipped:
        either a newer library version already owns the slot (the guard is
        check-then-replace, so under concurrent mixed-version writers racing
        on one key it is best-effort rather than atomic), or the store root
        is not writable (e.g. a read-only replica) — the store degrades to
        read-only rather than failing the caller's derivation.
        """
        envelope: dict = {
            "store_schema": STORE_SCHEMA,
            "key": key,
            "program": result.program_name,
            "result": result.to_dict(),
        }
        if metadata:
            envelope["metadata"] = dict(metadata)
        return self._write_entry(key, envelope)

    # -- kinded sub-result entries (tasks, simulations) -----------------------

    def _put_kinded(
        self,
        key: str,
        kind: str,
        payload: Mapping[str, object],
        metadata: Mapping[str, object] | None = None,
    ) -> Path | None:
        envelope: dict = {
            "store_schema": STORE_SCHEMA,
            "kind": kind,
            "key": key,
            _BODY_FIELDS[kind]: dict(payload),
        }
        if metadata:
            envelope["metadata"] = dict(metadata)
        return self._write_entry(key, envelope)

    def get_task(self, key: str, decode: Callable[[dict], T]) -> T | None:
        """Look up a task-level entry and decode its body with ``decode``.

        Task entries memoise *sub-bound* derivations (one per
        :class:`~repro.analysis.plan.DerivationTask`, keyed by the task
        fingerprint), so a crashed or config-tweaked run resumes from every
        task that already finished.  The body is the dict written by
        :meth:`put_task`; the caller passes its decoder (the planner's
        ``TaskResult.from_dict``), and a body it rejects is a miss.
        """
        return self._read(key, "task", decode)

    def put_task(
        self,
        key: str,
        payload: Mapping[str, object],
        metadata: Mapping[str, object] | None = None,
    ) -> Path | None:
        """Write a task-level entry atomically (same guarantees as ``put``)."""
        return self._put_kinded(key, "task", payload, metadata)

    def get_simulation(self, key: str, decode: Callable[[dict], T]) -> T | None:
        """Look up a ``kind="simulation"`` entry and decode its body.

        Simulation entries memoise cache-simulator runs of the tiling search
        (:mod:`repro.upper.search`), keyed by (program fingerprint x instance
        x cache size x tile x policy).  A warm tightness-report rerun costs
        zero simulations exactly as a warm suite run costs zero derivations.
        The caller passes the decoder (``TileSimulation.from_dict``), so the
        store never imports the upper-bound package.
        """
        return self._read(key, "simulation", decode)

    def put_simulation(
        self,
        key: str,
        payload: Mapping[str, object],
        metadata: Mapping[str, object] | None = None,
    ) -> Path | None:
        """Write a simulation entry atomically (same guarantees as ``put``)."""
        return self._put_kinded(key, "simulation", payload, metadata)

    def _write_entry(self, key: str, envelope: dict) -> Path | None:
        path = self.path_for(key)
        existing = _read_json(path)
        if existing is not None and _entry_schema(existing) > STORE_SCHEMA:
            return None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Write-then-rename in the destination directory so concurrent
            # writers and readers never observe a half-written entry.
            handle, temp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=".put-", suffix=".tmp"
            )
        except OSError:
            return None
        try:
            with os.fdopen(handle, "w") as stream:
                json.dump(envelope, stream)
            os.replace(temp_name, path)
        except OSError:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            return None
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        with self._counter_lock:
            self._writes += 1
            self._writes_since_gc += 1
            run_gc = (
                self.size_budget is not None
                and self._writes_since_gc >= GC_WRITE_INTERVAL
            )
        if run_gc:
            # Amortised budget enforcement: a gc sweep walks the whole store,
            # so it runs every GC_WRITE_INTERVAL writes, not per write.
            self.gc()
        return path

    # -- replication ----------------------------------------------------------

    def export_archive(self, path: str | Path) -> int:
        """Pack every store entry into a gzipped tar at ``path``.

        The archive holds the sharded ``objects/<2-hex>/<key>.json`` layout
        verbatim (results and task entries alike), so it can be imported
        into any other store root — the "replicate a store across machines"
        path.  The tar is written to a temporary sibling and moved into
        place atomically.  Returns the number of entries packed.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        count = 0
        handle, temp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".export-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                with tarfile.open(fileobj=stream, mode="w:gz") as archive:
                    for entry in self._entries():
                        try:
                            data = entry.read_bytes()
                        except OSError:
                            continue  # evicted by a concurrent gc
                        member = tarfile.TarInfo(
                            f"objects/{entry.parent.name}/{entry.name}"
                        )
                        member.size = len(data)
                        archive.addfile(member, io.BytesIO(data))
                        count += 1
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return count

    def import_archive(self, path: str | Path) -> tuple[int, int]:
        """Unpack a :meth:`export_archive` tar into this store.

        Schema negotiation mirrors the read path: an incoming entry is
        written only into an empty (or unreadable) slot, or over an entry
        with a strictly *older* envelope version — an existing entry of the
        same or newer ``store_schema`` is **never overwritten**, so a
        replica import can only add knowledge, not roll it back.  Entries
        without the current ``store_schema`` are skipped too: an
        envelope-less one is a miss on every read, and one exported by a
        *newer* library version could never be replaced either (``put``
        refuses to overwrite newer entries), so accepting it would
        permanently poison the slot.  Members that are
        not well-formed store entries (bad names, path traversal, unparsable
        JSON) are skipped.  Returns ``(imported, skipped)``.
        """
        imported = 0
        skipped = 0
        with tarfile.open(path, mode="r:*") as archive:
            for member in archive:
                if not member.isfile():
                    continue
                match = _ARCHIVE_MEMBER_PATTERN.fullmatch(member.name.lstrip("./"))
                if match is None:
                    skipped += 1
                    continue
                key = match.group(1)
                stream = archive.extractfile(member)
                if stream is None:
                    skipped += 1
                    continue
                try:
                    payload = json.load(stream)
                except (ValueError, OSError):
                    skipped += 1
                    continue
                if not isinstance(payload, dict):
                    skipped += 1
                    continue
                if _entry_schema(payload) != STORE_SCHEMA:
                    skipped += 1
                    continue
                existing = _read_json(self.path_for(key))
                if existing is not None and _entry_schema(existing) >= _entry_schema(payload):
                    skipped += 1
                    continue
                if self._write_entry(key, payload) is None:
                    skipped += 1
                else:
                    imported += 1
        return imported, skipped

    # -- maintenance ----------------------------------------------------------

    def stats(self, quick: bool = False) -> StoreStats:
        """On-disk totals plus this instance's session hit/miss counters.

        ``quick=True`` skips opening and parsing every entry — counts and
        byte totals come from ``stat()`` alone, leaving ``schema_versions``
        and ``kinds`` empty.  That is the shape a live service's stats
        endpoint wants: answering a monitoring probe must not read the whole
        store off disk while requests are being served.
        """
        with self._counter_lock:
            stats = StoreStats(
                root=str(self.root),
                size_budget=self.size_budget,
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                evictions=self._evictions,
            )
        shards = set()
        for path in self._entries():
            try:
                size = path.stat().st_size
            except OSError:
                continue  # evicted by a concurrent gc
            stats.entries += 1
            stats.total_bytes += size
            shards.add(path.parent.name)
            if quick:
                continue
            payload = _read_json(path)
            schema = -1 if payload is None else _entry_schema(payload)
            stats.schema_versions[schema] = stats.schema_versions.get(schema, 0) + 1
            kind = "unreadable" if payload is None else str(payload.get("kind", "result"))
            stats.kinds[kind] = stats.kinds.get(kind, 0) + 1
        stats.shards = len(shards)
        return stats

    def gc(self, size_budget: int | str | None = None) -> int:
        """Evict least-recently-used entries until the store fits the budget.

        Returns the number of evicted entries.  With no budget (neither here,
        nor on the store, nor in ``$REPRO_STORE_BUDGET``) this is a no-op.
        """
        budget = parse_size(size_budget) if size_budget is not None else self.size_budget
        with self._counter_lock:
            self._writes_since_gc = 0
        if budget is None:
            return 0
        records = []
        total = 0
        for path in self._entries():
            try:
                info = path.stat()
            except OSError:
                continue
            records.append((info.st_atime, info.st_size, path))
            total += info.st_size
        records.sort(key=lambda record: record[0])
        evicted = 0
        for _atime, size, path in records:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue  # lost a race with another gc; recount conservatively
            total -= size
            evicted += 1
        with self._counter_lock:
            self._evictions += evicted
        return evicted

    def clear(self) -> int:
        """Remove every entry; returns the count removed.

        Only the ``objects/`` tree is touched, so unrelated JSON living at
        the root (e.g. a ``suite --json`` export) survives.
        """
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def __repr__(self) -> str:
        budget = "unbounded" if self.size_budget is None else f"{self.size_budget}B"
        return f"BoundStore({str(self.root)!r}, {budget})"


# -- entry parsing helpers ----------------------------------------------------


def _read_json(path: Path) -> dict | None:
    """Best-effort JSON read: missing/truncated/non-dict files are ``None``."""
    try:
        with open(path, "r") as stream:
            payload = json.load(stream)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _read_bytes(path: Path) -> bytes | None:
    try:
        with open(path, "rb") as stream:
            return stream.read()
    except OSError:
        return None


def _decode_entry(raw: bytes, kind: str, decode: Callable[[dict], T]) -> T | None:
    """Envelope, kind and body checks on an entry's bytes, then ``decode``;
    ``None`` for anything unparseable, foreign or rejected by ``decode``
    (``KeyError``/``ValueError``/``TypeError``)."""
    try:
        payload = json.loads(raw)
    except ValueError:
        return None
    if (
        not isinstance(payload, dict)
        or _entry_schema(payload) != STORE_SCHEMA
        # Result envelopes predate the kind field: no kind means "result".
        or payload.get("kind", "result") != kind
    ):
        return None
    body = payload.get(_BODY_FIELDS[kind])
    if not isinstance(body, dict):
        return None
    try:
        return decode(body)
    except (KeyError, ValueError, TypeError):
        return None


def _entry_schema(payload: Mapping) -> int:
    """Envelope version of an entry payload (0 when it has no envelope)."""
    schema = payload.get("store_schema", 0)
    return schema if isinstance(schema, int) else 0


def _touch(path: Path) -> None:
    try:
        os.utime(path)
    except OSError:
        pass
