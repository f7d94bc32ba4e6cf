"""
Deterministic serialization helpers (atomic writes, stable float
formatting) so identical runs produce byte-identical output files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile

import numpy as np


def _default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def atomic_write_bytes(path, blob: bytes):
    """
    Write via a temporary file and rename, so readers never see partial
    files.  The file gets the mode open() would give it, 0o666 less the
    umask; mkstemp alone would leave it 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            umask = os.umask(0)  # the only way to read the umask is to set it
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    """Text counterpart of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode())


def write_json(path, payload):
    if hasattr(payload, "to_dict"):
        payload = payload.to_dict()
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True, default=_default) + "\n")


def write_csv(path, header: list[str], rows):
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
