"""The content-addressed run store.

Every simulated run already carries a stable identity — the
:meth:`~repro.session.record.RunRecord.digest` of its outcome — and every
way of *asking* for a run has a canonical encoding (a campaign cell's
``config()``, a session's ``spec``).  The store keys results by the former
and indexes them by the latter:

* ``objects/<digest[:2]>/<digest>.json`` — one object per distinct outcome,
  holding the full :meth:`~repro.session.record.RunRecord.as_dict` payload
  and/or ``summaries``: each campaign cell with this outcome as the exact
  results line the runner wrote, keyed by its ``cell_id``.  The record is
  pinned by a content SHA-1 and each line by the SHA-1 of its bytes, so one
  rotten line never passes for verified when a sibling cell is stored again;
* ``index/specs.json`` — spec encoding → digest.  A campaign cell's index
  key is literally its ``cell_id`` (both are the SHA-1 of the same canonical
  config JSON), so "has this exact cell ever been simulated?" is one dict
  lookup and one ``summaries[cell_id]``.  The store is the campaign's only
  memory: resume is a cache hit, re-emitted as the bytes it was stored as;
* ``artifacts/<digest>/<name>`` — attached shards (Chrome traces), pinned
  by file-content SHA-1.

``verify`` recomputes every pin, and for full record payloads the semantic
digest through :func:`repro.session.record.outcome_digest` (the outcome
keys and nothing else, as ``RunRecord.digest()`` hashes them), so rotted
bytes and a drifted digest discipline are caught alike.  An object of
another :data:`STORE_SCHEMA` (schema 3 kept each cell as a dict) is a cache
miss and one ``verify`` problem naming it; nothing migrates it, and the
next ingest of its run replaces it.

Reading goes through one resolver and one projection.
:meth:`RunStore.read` turns a REF (digest prefix, ``cell_id``, results
file, record file or store directory) into what it names, and
:class:`RunView` projects a run, from a results line or a full record,
onto the labels, outcome, summary and gaps that ``query``, ``show`` and a
diff read.

Nothing here reads wall time or ambient entropy: store contents are a pure
function of what was ingested, so two hosts ingesting the same results
files build byte-identical stores.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.analysis.activation import LedgerRow
from repro.analysis.timeline import activation_gap_summary
from repro.campaign.runner import FINAL_STATUSES, load_records
from repro.obs.events import TraceLog
from repro.obs.export import trace_from_chrome
from repro.session.record import RECORD_SCHEMA, RunRecord, outcome_digest

#: Store layout version stamped into every object.  4: a stored campaign
#: cell is its results line, pinned by the SHA-1 of its bytes.
STORE_SCHEMA = 4

OBJECTS_DIR = "objects"
INDEX_DIR = "index"
ARTIFACTS_DIR = "artifacts"
SPEC_INDEX = "specs.json"


def canonical_json(payload: object) -> str:
    """The one canonical JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)


def line_sha1(line: str) -> str:
    """16-hex SHA-1 of a results line's UTF-8 bytes (a stored cell's pin)."""
    return hashlib.sha1(line.encode("utf-8")).hexdigest()[:16]


def content_sha1(payload: object) -> str:
    """16-hex SHA-1 of the canonical JSON of ``payload`` (integrity pin)."""
    return line_sha1(canonical_json(payload))


def _decoded(line: str) -> Optional[Dict[str, object]]:
    """A results line as its record, or ``None`` if it is not JSON."""
    try:
        return json.loads(line)
    except ValueError:
        return None


def file_sha1(path: Path) -> str:
    """16-hex SHA-1 of a file's bytes (artifact integrity pin)."""
    return hashlib.sha1(Path(path).read_bytes()).hexdigest()[:16]


def spec_key(encoding: Dict[str, object]) -> str:
    """The index key of a spec encoding: for a campaign cell config, exactly
    its :attr:`repro.campaign.grid.CampaignCell.cell_id` (same canonical
    JSON, same SHA-1 truncation), so results files and the store agree on
    cell identity without either importing the other's hashing."""
    return content_sha1(encoding)


@dataclass
class IngestStats:
    """What one ingest pass did."""

    files: int = 0
    records: int = 0
    summaries: int = 0
    artifacts: int = 0
    indexed: int = 0
    skipped: int = 0

    def merge(self, other: "IngestStats") -> None:
        for name, count in vars(other).items():
            setattr(self, name, getattr(self, name) + count)

    def describe(self) -> str:
        return (f"{self.files} files: {self.records} records, "
                f"{self.summaries} campaign cells, {self.artifacts} artifacts, "
                f"{self.indexed} index entries, {self.skipped} skipped")


@dataclass
class GcStats:
    """What one gc pass removed."""

    dangling_index: int = 0
    orphan_artifacts: int = 0

    def describe(self) -> str:
        return (f"removed {self.dangling_index} dangling index entries, "
                f"{self.orphan_artifacts} orphaned artifact trees")


def run_labels(run: Mapping[str, object]) -> Tuple[str, str]:
    """The ``(fault, recovery)`` labels of one run.

    ``run`` is a campaign results line or a full record payload.  An axis
    the cell's ``config`` sets is its label verbatim.  An absent axis, or a
    run outside a campaign, is labelled by the plan and policy strings the
    run actually armed, from its session encoding (a line's ``session``, a
    payload's ``spec``).  So a scenario that arms its own faults
    (``rolling-upgrade``) is never mistaken for the fault-free control.
    """
    axes = run.get("config") or {}
    session = run.get("session") or run.get("spec") or {}
    fault, recovery = axes.get("fault"), axes.get("recovery")
    if fault is None:
        fault = session.get("faults")
    if recovery is None:
        recovery = (session.get("knobs") or {}).get("recovery")
    return str(fault or "none"), str(recovery or "off")


@dataclass
class RunView:
    """One run as every reader sees it, whichever artifact holds it.

    ``run`` is a campaign results line (the flat
    :data:`~repro.session.record.SUMMARY_KEYS` plus ``config``, ``session``,
    ``status`` and ``activation_gaps``) or a full
    :meth:`~repro.session.record.RunRecord.as_dict` payload.  ``meta`` is
    what the store files the run under and ``query`` lists (labels and
    outcome), ``summary`` what a diff compares key by key, ``gaps`` its
    per-switch activation-gap summary, and ``trace``/``ledger`` what its
    timeline is drawn from.  ``attached_trace`` is a trace the run does not
    carry inline: a stored campaign cell's Chrome shard.
    """

    run: Dict[str, object]
    label: str = ""
    attached_trace: Optional[TraceLog] = None

    @property
    def meta(self) -> Dict[str, object]:
        run = self.run
        config = run.get("config") or {}
        fault, recovery = run_labels(run)
        return {
            "kind": run.get("kind", "scenario"),
            "scenario": run.get("scenario") or config.get("scenario"),
            "technique": run.get("technique") or config.get("technique"),
            "fault": fault,
            "recovery": recovery,
            "outcome": run.get("status") or (
                "ok" if run.get("completed") else "incomplete"),
            "seed": run.get("seed", config.get("seed")),
            "scale": run.get("scale", config.get("scale")),
        }

    @cached_property
    def summary(self) -> Dict[str, object]:
        if "schema" in self.run and "stats" in self.run:
            return RunRecord.from_dict(self.run).summary()
        return dict(self.run)

    @cached_property
    def ledger(self) -> List[LedgerRow]:
        return [LedgerRow(*row) for row in self.run.get("ledger") or []]

    @cached_property
    def gaps(self) -> Dict[str, Dict[str, float]]:
        if "activation_gaps" in self.run:
            return self.run["activation_gaps"]
        return activation_gap_summary(self.ledger)

    @cached_property
    def trace(self) -> Optional[TraceLog]:
        if self.attached_trace is not None:
            return self.attached_trace
        raw = self.run.get("trace")
        return TraceLog.from_dict(raw) if raw else None


@dataclass
class Resolved:
    """What one REF names: one run, or a campaign's cells (every line of a
    results file, ``error`` ones included; a store directory's
    digest-verified cells, which are never ``error`` ones)."""

    ref: str
    #: The artifact as read: a store object, a record payload, or the lines
    #: of a results file (the cells of a store directory).
    raw: object
    run: Optional[RunView] = None
    #: ``cell_id -> line`` of a results file or a store directory.
    cells: Optional[Dict[str, Dict[str, object]]] = None


class StoreError(ValueError):
    """A lookup or verification problem surfaced to the CLI."""


def _old_schema(name: str, obj: Dict[str, object]) -> str:
    """The problem an object of another :data:`STORE_SCHEMA` is."""
    return f"{name}: store schema {obj.get('schema')!r} is not {STORE_SCHEMA}"


class RunStore:
    """A content-addressed archive of run outcomes on one directory."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.objects = self.root / OBJECTS_DIR
        self.index_dir = self.root / INDEX_DIR
        self.artifacts = self.root / ARTIFACTS_DIR
        self._index: Optional[Dict[str, str]] = None

    # -- layout ---------------------------------------------------------------
    def object_path(self, digest: str) -> Path:
        return self.objects / digest[:2] / f"{digest}.json"

    def artifact_dir(self, digest: str) -> Path:
        return self.artifacts / digest

    def _load_index(self) -> Dict[str, str]:
        if self._index is None:
            path = self.index_dir / SPEC_INDEX
            self._index = (dict(json.loads(path.read_text(encoding="utf-8")))
                           if path.exists() else {})
        return self._index

    def _save_index(self) -> None:
        self.index_dir.mkdir(parents=True, exist_ok=True)
        path = self.index_dir / SPEC_INDEX
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self._index, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
        tmp.replace(path)

    # -- objects --------------------------------------------------------------
    def load(self, digest: str) -> Optional[Dict[str, object]]:
        """The stored object, or ``None`` if absent or not valid JSON.

        Writes are atomic, but a disk can still corrupt an object; reading
        it as a miss lets the next ingest rewrite it.
        """
        path = os.path.join(self.objects, digest[:2], f"{digest}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                return json.loads(handle.read())
        except (FileNotFoundError, ValueError):  # or a cut UTF-8 character
            return None

    def _object(self, digest: str) -> Dict[str, object]:
        """The stored object of ``digest`` to update, or a new one.

        An unreadable object, or one of another schema, is replaced.
        """
        obj = self.load(digest)
        if obj is None or obj.get("schema") != STORE_SCHEMA:
            obj = {"schema": STORE_SCHEMA, "digest": digest,
                   "artifacts": {}, "sha1": {}}
        return obj

    def _write(self, obj: Dict[str, object]) -> None:
        # Written aside and renamed, so a kill mid-write leaves no cut object
        # at its final path (``digests()`` never lists a ``.json.tmp``).
        path = self.object_path(str(obj["digest"]))
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
        tmp.replace(path)

    def digests(self) -> List[str]:
        """Every stored digest, sorted."""
        if not os.path.isdir(self.objects):
            return []
        return sorted(entry.name[:-5] for shard in os.scandir(self.objects)
                      if shard.is_dir()
                      for entry in os.scandir(shard.path)
                      if entry.name.endswith(".json"))

    def iter_objects(self) -> Iterator[Dict[str, object]]:
        for digest in self.digests():
            obj = self.load(digest)
            if obj is not None:
                yield obj

    def resolve(self, prefix: str) -> str:
        """The unique stored digest starting with ``prefix``."""
        matches = [digest for digest in self.digests()
                   if digest.startswith(prefix)]
        if not matches:
            raise StoreError(f"no stored run matches digest {prefix!r}")
        if len(matches) > 1:
            raise StoreError(
                f"digest prefix {prefix!r} is ambiguous: {matches}")
        return matches[0]

    def read(self, ref: str) -> Resolved:
        """The one resolver: what ``ref`` names, read and never written.

        A directory is a store and names its digest-verified cells, as
        :meth:`cached_record` serves them; a ``.jsonl`` file names every
        cell of a results file, ``error`` ones included, and a ``.json``
        file one record payload; either suffix naming no file is refused as
        such.  Anything else is an exact index key, such as a
        ``cell_id``, which wins over a digest-prefix match, or a digest
        prefix in this store.  A stored run is its full record where one is
        stored (its trace is inline), else the cell's summary with its
        attached Chrome shard.
        """
        path = Path(ref)
        if path.is_dir():
            other = RunStore(path)
            cells = {cell_id: hit[1] for obj in other.iter_objects()
                     for cell_id in obj.get("summaries") or {}
                     if (hit := other.cached_record(cell_id)) is not None}
            return Resolved(ref, list(cells.values()), cells=cells)
        if path.suffix == ".jsonl" and path.is_file():
            lines = load_records(path)
            return Resolved(ref, lines, cells={
                str(line["cell_id"]): line for line in lines
                if "cell_id" in line})
        if path.suffix == ".json" and path.is_file():
            payload = json.loads(path.read_text(encoding="utf-8"))
            return Resolved(ref, payload, run=RunView(payload, path.name))
        if path.suffix in (".json", ".jsonl"):
            raise StoreError(f"file {ref!r} does not exist")
        digest = self.lookup_key(ref) or self.resolve(ref)
        obj = self.load(digest)
        if obj is None:
            raise StoreError(f"{digest}: object is missing or not valid JSON")
        if obj.get("schema") != STORE_SCHEMA:
            raise StoreError(_old_schema(digest, obj))
        if obj.get("record") is not None:
            return Resolved(ref, obj, run=RunView(obj["record"], digest))
        summaries = obj.get("summaries")
        if not summaries:
            raise StoreError(f"{digest} holds neither a record nor a summary")
        line = summaries.get(ref) or summaries[min(summaries)]
        return Resolved(ref, obj, run=RunView(
            json.loads(line), digest, attached_trace=self._attached_trace(obj)))

    def _attached_trace(self, obj: Dict[str, object]) -> Optional[TraceLog]:
        """The trace of a stored run's first Chrome shard, if it has one."""
        for name in sorted(obj.get("artifacts") or {}):
            path = self.artifact_path(str(obj["digest"]), name)
            if path is None or not name.endswith(".json"):
                continue
            shard = json.loads(path.read_text(encoding="utf-8"))
            if "traceEvents" in shard:
                return trace_from_chrome(shard)
        return None

    # -- writes ---------------------------------------------------------------
    def put_record(self, payload: Dict[str, object]) -> str:
        """Store a full :meth:`RunRecord.as_dict` payload; returns its digest.

        The digest is *recomputed* here — never trusted from the caller — so
        every full record in the store is digest-verified by construction.
        """
        digest = outcome_digest(payload)
        obj = self._object(digest)
        obj["record"] = payload
        obj["sha1"]["record"] = content_sha1(payload)
        # The summary's meta wins where both exist (it knows the campaign
        # status and fault label verbatim).
        obj["meta"] = {**RunView(payload).meta, **(obj.get("meta") or {})}
        self._write(obj)
        spec = payload.get("spec") or {}
        if spec:
            self.index_encoding(spec, digest)
        return digest

    def put_summaries(self, lines: Iterable[str]) -> IngestStats:
        """Store a batch of campaign results lines; the index is written once.

        Each line (no newline) of an ``ok``/``incomplete`` cell joins its
        outcome's object as ``summaries[cell_id]``, pinned by the SHA-1 of
        its bytes; its config and session encodings are indexed, and its
        ``trace_path`` shard, when present, is attached.  Other lines (an
        errored cell; a line a kill cut, which is not JSON) are skipped.
        Objects are written before the index, so a batch cut short leaves
        unindexed objects (misses), never an entry without its object.
        """
        stats = IngestStats()
        objects: Dict[str, Dict[str, object]] = {}
        keys: Dict[str, str] = {}
        for line in lines:
            record = _decoded(line) or {}
            digest, cell_id = record.get("digest"), record.get("cell_id")
            if (not digest or not cell_id
                    or record.get("status") not in FINAL_STATUSES):
                stats.skipped += 1
                continue
            digest = str(digest)
            obj = objects.get(digest) or self._object(digest)
            objects[digest] = obj
            obj.setdefault("summaries", {})[str(cell_id)] = line
            obj["sha1"].setdefault("summaries", {})[str(cell_id)] = (
                line_sha1(line))
            obj["meta"] = {**(obj.get("meta") or {}), **RunView(record).meta}
            stats.summaries += 1
            for encoding in (record.get("config"), record.get("session")):
                if encoding:
                    keys[spec_key(encoding)] = digest
                    stats.indexed += 1
            trace_path = record.get("trace_path")
            if trace_path and Path(str(trace_path)).exists():
                shard = Path(str(trace_path))
                target = self.artifact_dir(digest) / shard.name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(shard.read_bytes())
                obj["artifacts"][shard.name] = file_sha1(target)
                stats.artifacts += 1
        for obj in objects.values():
            self._write(obj)
        if keys:
            self._load_index().update(keys)
            self._save_index()
        return stats

    def index_encoding(self, encoding: Dict[str, object], digest: str) -> str:
        """Map a spec encoding to a digest; returns the index key."""
        key = spec_key(encoding)
        index = self._load_index()
        index[key] = digest
        self._save_index()
        return key

    # -- reads ----------------------------------------------------------------
    def lookup_key(self, key: str) -> Optional[str]:
        """The digest an index key (e.g. a ``cell_id``) maps to, if any."""
        return self._load_index().get(key)

    def cached_record(
            self, cell_id: str) -> Optional[Tuple[str, Dict[str, object]]]:
        """A cell's digest-verified results line and its record, if stored.

        The runner re-emits the line as it stands; the record is the line
        decoded once.  ``None`` unless the object is of this schema, the line
        still matches its byte pin and claims the object's digest, and — when
        a full record payload is also stored — that payload still recomputes
        to the same digest.  A hit is therefore always a verified one;
        corruption degrades to a re-simulation, never to a wrong result.
        """
        digest = self.lookup_key(cell_id)
        if digest is None:
            return None
        obj = self.load(digest)
        if obj is None or obj.get("schema") != STORE_SCHEMA:
            return None
        line = (obj.get("summaries") or {}).get(cell_id)
        pins = (obj.get("sha1") or {}).get("summaries") or {}
        if not line or line_sha1(line) != pins.get(cell_id):
            return None
        summary = _decoded(line)
        if summary is None or str(summary.get("digest")) != digest:
            return None
        record = obj.get("record")
        if record is not None and outcome_digest(record) != digest:
            return None
        return line, summary

    def artifact_path(self, digest: str, name: str) -> Optional[Path]:
        path = self.artifact_dir(digest) / name
        return path if path.exists() else None

    def query(
        self,
        technique: Optional[str] = None,
        scenario: Optional[str] = None,
        fault: Optional[str] = None,
        outcome: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """Flat rows of every stored run matching the filters."""
        wanted = {"technique": technique, "scenario": scenario,
                  "fault": fault, "outcome": outcome}
        rows: List[Dict[str, object]] = []
        for obj in self.iter_objects():
            meta = obj.get("meta") or {}
            if any(value is not None and meta.get(key) != value
                   for key, value in wanted.items()):
                continue
            rows.append({
                "digest": obj["digest"],
                "parts": "+".join(part for part in ("record", "summaries")
                                  if obj.get(part)),
                "artifacts": len(obj.get("artifacts") or {}),
                **meta,
            })
        return rows

    # -- maintenance ----------------------------------------------------------
    def verify(self) -> List[str]:
        """Every integrity or digest-discipline problem, as one line each."""
        problems: List[str] = []
        stored = self.digests()
        known = set(stored)
        for name in stored:
            obj = self.load(name)
            if obj is None:
                problems.append(f"{name}: object is not valid JSON")
                continue
            if obj.get("schema") != STORE_SCHEMA:
                problems.append(_old_schema(name, obj))
                continue
            digest = str(obj["digest"])
            pins = obj.get("sha1") or {}
            record = obj.get("record")
            if record is not None:
                actual = content_sha1(record)
                if actual != pins.get("record"):
                    problems.append(
                        f"{digest}: record content hash {actual} != stored "
                        f"pin {pins.get('record')}")
                if record.get("schema") != RECORD_SCHEMA:
                    problems.append(
                        f"{digest}: record schema {record.get('schema')!r} "
                        f"is not {RECORD_SCHEMA}")
                recomputed = outcome_digest(record)
                if recomputed != digest:
                    problems.append(
                        f"{digest}: record payload recomputes to digest "
                        f"{recomputed} (digest discipline drifted)")
            summary_pins = pins.get("summaries") or {}
            for cell_id, line in sorted((obj.get("summaries") or {}).items()):
                actual = line_sha1(line)
                if actual != summary_pins.get(cell_id):
                    problems.append(
                        f"{digest}: summary of cell {cell_id} content hash "
                        f"{actual} != stored pin {summary_pins.get(cell_id)}")
                claimed = (_decoded(line) or {}).get("digest")
                if str(claimed) != digest:
                    problems.append(
                        f"{digest}: summary of cell {cell_id} claims digest "
                        f"{claimed!r}")
            for name, pin in sorted((obj.get("artifacts") or {}).items()):
                path = self.artifact_dir(digest) / name
                if not path.exists():
                    problems.append(f"{digest}: artifact {name} is missing")
                elif file_sha1(path) != pin:
                    problems.append(
                        f"{digest}: artifact {name} content hash != pin {pin}")
        for key, digest in sorted(self._load_index().items()):
            if digest not in known:
                problems.append(
                    f"index: spec {key} -> {digest} points at no object")
        return problems

    def gc(self) -> GcStats:
        """Drop index entries and artifact trees with no backing object."""
        stats = GcStats()
        known = set(self.digests())
        index = self._load_index()
        dangling = sorted(key for key, digest in index.items()
                          if digest not in known)
        for key in dangling:
            del index[key]
        stats.dangling_index = len(dangling)
        if dangling:
            self._save_index()
        if self.artifacts.is_dir():
            for tree in sorted(self.artifacts.iterdir()):
                if tree.is_dir() and tree.name not in known:
                    for child in sorted(tree.iterdir()):
                        child.unlink()
                    tree.rmdir()
                    stats.orphan_artifacts += 1
        return stats

    # -- ingest ---------------------------------------------------------------
    def ingest(self, path: Path) -> IngestStats:
        """Ingest a results file, record file, or directory of either."""
        path = Path(path)
        if path.is_dir():
            stats = IngestStats()
            # Heartbeat shards are about *how* a campaign ran, not what it
            # computed (its manifest is no record, so the .json pass skips it).
            for child in sorted(path.rglob("*.jsonl")):
                if not child.name.endswith(".heartbeat.jsonl"):
                    stats.merge(self._ingest_results(child))
            for child in sorted(path.rglob("*.json")):
                stats.merge(self._ingest_json(child))
            return stats
        if path.suffix == ".jsonl":
            return self._ingest_results(path)
        if path.suffix == ".json":
            return self._ingest_json(path)
        raise StoreError(f"cannot ingest {path}: not a .jsonl/.json file "
                         "or directory")

    def _ingest_results(self, path: Path) -> IngestStats:
        """One campaign results file, stored as one batch of its lines."""
        lines = path.read_bytes().decode("utf-8").split("\n")
        stats = self.put_summaries(line for line in lines if line.strip())
        stats.files = 1
        return stats

    def _ingest_json(self, path: Path) -> IngestStats:
        """One ``.json`` file: a full RunRecord payload, or skipped.

        Chrome-trace shards (``traceEvents``) are skipped here — they enter
        the store as attachments of the record that produced them.
        """
        stats = IngestStats(files=1)
        payload = _decoded(path.read_text(encoding="utf-8"))
        if (not isinstance(payload, dict) or "traceEvents" in payload
                or "schema" not in payload or "kind" not in payload):
            stats.skipped += 1
            return stats
        self.put_record(payload)
        stats.records += 1
        stats.indexed += 1 if payload.get("spec") else 0
        return stats
