"""
Named diagnostic results with provenance, plus deterministic serialization
helpers (atomic writes, stable float formatting) so identical runs produce
byte-identical output files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field


@dataclass
class DiagnosticsReport:
    """Scalar and curve results of one diagnostic, tagged with provenance."""

    name: str
    provenance: dict = field(default_factory=dict)  # e.g. {"claim": ..., "tolerance": ...}
    scalars: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)  # name -> list of rows or values
    notes: list = field(default_factory=list)
    passed: bool | None = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "provenance": self.provenance,
            "scalars": self.scalars,
            "curves": self.curves,
            "notes": self.notes,
        }
        if self.passed is not None:
            out["passed"] = self.passed
        return out


def _default(obj):
    import numpy as np

    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def atomic_write_text(path, text: str):
    """Write via a temporary file and rename, so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, blob: bytes):
    """Binary counterpart of :func:`atomic_write_text`."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload):
    if hasattr(payload, "to_dict"):
        payload = payload.to_dict()
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True, default=_default) + "\n")


def write_csv(path, header: list[str], rows):
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    atomic_write_text(path, buf.getvalue())


def sha256_file(path) -> str:
    acc = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            acc.update(chunk)
    return acc.hexdigest()
