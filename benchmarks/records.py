"""Benchmark trajectory files: one JSON document accumulates runs.

A trajectory holds ``{"runs": [...]}``; each call to
:func:`append_benchmark_record` adds one run instead of overwriting the
last, stamped under ``"meta"`` with :func:`run_metadata` so the entry can
be read after the fact (when, on how many cores, under which Python).
"""

from __future__ import annotations

import json
import os
import platform
from datetime import datetime, timezone
from typing import Dict, Optional


def run_metadata() -> Dict[str, object]:
    """Environment stamp for one benchmark run entry."""
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def append_benchmark_record(
    path: str, record: Dict[str, object], label: Optional[str] = None
) -> Dict[str, object]:
    """Append ``record`` to the JSON trajectory at ``path`` (created if new).

    The entry is stamped with :func:`run_metadata` under ``"meta"`` unless
    the record already carries one; entries written before the stamp
    existed are left untouched, so readers treat ``"meta"`` as optional.
    A corrupt file starts a fresh trajectory.  Returns the document written.
    """
    doc: Dict[str, object] = {"runs": []}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                loaded = json.load(fh)
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                doc = loaded
        except (OSError, ValueError):
            pass
    entry = dict(record)
    if label is not None:
        entry["label"] = label
    entry.setdefault("meta", run_metadata())
    doc["runs"].append(entry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc
