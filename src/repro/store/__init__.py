"""Content-addressed run store: digest-keyed archive of run outcomes.

``RunStore`` ingests campaign results files, trace shards and standalone
:class:`~repro.session.record.RunRecord` payloads into a digest-keyed
object layout with a spec-encoding index, so a cell whose exact
configuration has already been simulated is never simulated again: the
store is the campaign runner's only memory (``--store``), and resume is a
cache hit.  ``python -m repro`` drives it (``ingest`` / ``query`` /
``show`` / ``verify`` / ``gc``), and
``show REF [REF]`` is the one way to read runs: :meth:`RunStore.read`
resolves a REF and :class:`RunView` projects the run it names.
"""

from repro.store.store import (  # noqa: F401
    GcStats,
    IngestStats,
    Resolved,
    RunStore,
    RunView,
    StoreError,
    canonical_json,
    content_sha1,
    file_sha1,
    spec_key,
)

__all__ = [
    "GcStats",
    "IngestStats",
    "Resolved",
    "RunStore",
    "RunView",
    "StoreError",
    "canonical_json",
    "content_sha1",
    "file_sha1",
    "spec_key",
]
