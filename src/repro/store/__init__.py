"""Content-addressed run store: digest-keyed archive of run outcomes.

``RunStore`` ingests campaign results files, trace shards and standalone
:class:`~repro.session.record.RunRecord` payloads into a digest-keyed
object layout with a spec-encoding index, so a cell whose exact
configuration has already been simulated is never simulated again: the
store is the campaign runner's only memory (``--cache``), and resume is a
cache hit.  ``python -m repro.store`` is the
CLI (``ingest`` / ``query`` / ``show`` / ``diff`` / ``verify`` / ``gc``);
:mod:`repro.analysis.diff` supplies the differential analytics behind
``diff``.
"""

from repro.store.store import (  # noqa: F401
    GcStats,
    IngestStats,
    RunStore,
    StoreError,
    canonical_json,
    content_sha1,
    diff_inputs,
    file_sha1,
    spec_key,
)

__all__ = [
    "GcStats",
    "IngestStats",
    "RunStore",
    "StoreError",
    "canonical_json",
    "content_sha1",
    "diff_inputs",
    "file_sha1",
    "spec_key",
]
