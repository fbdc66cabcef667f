"""On-disk cache of computed lemnatomic polynomials.

One JSON file per beta, named lemnatomic_<beta literal>.json, holding the
record's fields as zipoly.to_json writes them plus a schema version.  Writes go through a temporary file and
an atomic rename; loads re-validate everything (schema version, degree,
monicity, the X^4 shape, the values at 0 and 1, checksum), so a corrupted
or stale entry degrades to a cache miss and is recomputed, not trusted.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from .exact import LemnatomicRecord
from .gaussint import GaussInt, format_gauss, parse_gauss
from .zipoly import from_json_dict, to_json

__all__ = ["SCHEMA_VERSION", "cache_path", "cache_store", "cache_load"]

SCHEMA_VERSION = 1


def cache_path(cache_dir, beta: GaussInt) -> Path:
    return Path(cache_dir) / f"lemnatomic_{format_gauss(beta)}.json"


def entry_dict(record: LemnatomicRecord) -> dict:
    return {"schema_version": SCHEMA_VERSION, **to_json(record)}


def cache_store(record: LemnatomicRecord, cache_dir) -> bool:
    """Write the record atomically; False (no exception) when the directory
    cannot be written, so computation proceeds uncached."""
    target = cache_path(cache_dir, record.beta)
    payload = json.dumps(entry_dict(record), sort_keys=True, indent=2) + "\n"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(target.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as handle:
                handle.write(payload)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError:
        return False
    return True


def cache_load(beta: GaussInt, cache_dir) -> Optional[LemnatomicRecord]:
    """Validated cache hit for beta, or None on miss/corruption/mismatch."""
    target = cache_path(cache_dir, beta)
    try:
        data = json.loads(target.read_text(encoding="ascii"))
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("schema_version") != SCHEMA_VERSION:
        return None
    try:
        stored_beta = parse_gauss(data["beta"])
        poly = from_json_dict(data["coefficients"])
        method = data["method"]
        precision_bits = int(data["precision_bits"])
        checksum = data["checksum"]
        degree = int(data["degree"])
    except (KeyError, TypeError, ValueError):
        return None
    if stored_beta != beta:
        return None
    # build re-validates the record invariants (degree phi(beta), monic, in
    # Z[i][X^4], Lambda_beta(0), Lambda_beta(1) = unit * 2^(phi(beta) / 4))
    # and computes the checksum
    try:
        record = LemnatomicRecord.build(beta, poly, method=method, precision_bits=precision_bits)
    except Exception:
        return None
    if degree != record.degree or checksum != record.checksum:
        return None
    return record
