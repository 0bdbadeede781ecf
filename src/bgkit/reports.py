"""Deterministic report records and their JSON/CSV serialization.

Reports are byte-identical across runs with identical inputs and seed:
keys are sorted, rationals are serialized as exact "p/q" strings, floats
use repr, and the timestamp honours SOURCE_DATE_EPOCH (reproducible-build
convention) so pinned environments produce pinned bytes.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction

from . import __version__
from .exact import DomainError, decimal12, field, fmt_rational, record


# the epochs of 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z, which
# `time.gmtime` does not bound
_FIRST_EPOCH, _LAST_EPOCH = -62135596800, 253402300799


def _timestamp() -> str:
    """UTC now, or at SOURCE_DATE_EPOCH when that is set; DomainError for an
    epoch that is no integer or falls outside the years 1..9999."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        moment = time.gmtime()
    else:
        try:
            seconds = int(epoch)
        except ValueError:
            seconds = None
        if seconds is None or not _FIRST_EPOCH <= seconds <= _LAST_EPOCH:
            raise DomainError(f"SOURCE_DATE_EPOCH={epoch!r} is no integer "
                              "epoch in the years 1 to 9999")
        moment = time.gmtime(seconds)
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", moment)


def encode(value):
    """Recursively convert payloads to JSON-stable structures."""
    if isinstance(value, Fraction):
        return fmt_rational(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(encode(k)): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [encode(v) for v in items]
    return repr(value)


@record
class Report:
    operation: str
    params: dict
    status: str
    result: object = None
    witnesses: list = field(default_factory=list)
    assumptions: list = field(default_factory=list)
    seed: int | None = None
    tool_version: str = __version__
    timestamp: str = field(default_factory=_timestamp)

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "timestamp": self.timestamp,
            "operation": self.operation,
            "params": encode(self.params),
            "status": self.status,
            "result": encode(self.result),
            "witnesses": encode(self.witnesses),
            "assumptions": encode(self.assumptions),
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _tabular_rows(report: Report):
    payload = report.result
    if isinstance(payload, dict) and "growth_profile" in payload:
        rows = [("R", "mass_exact", "mass_decimal", "h")]
        for R, mass, h in payload["growth_profile"]:
            rows.append((fmt_rational(R), fmt_rational(mass),
                         decimal12(mass), repr(float(h))))
        return rows
    if isinstance(payload, dict) and "ratio_scan" in payload:
        rows = [("r", "lhs_exact", "rhs", "slack")]
        for r, lhs, rhs in payload["ratio_scan"]:
            rows.append((fmt_rational(r), fmt_rational(lhs), repr(float(rhs)),
                         repr(float(rhs) - float(lhs))))
        return rows
    raise DomainError("report payload is not tabular; cannot export CSV")


def write_csv(report: Report, stream) -> None:
    # imported here, so that a JSON-only process does not load csv
    import csv
    writer = csv.writer(stream, dialect="excel", lineterminator="\r\n")
    writer.writerows(_tabular_rows(report))


def export_csv(report: Report, path) -> None:
    """RFC 4180 CSV for tabular payloads (growth profiles, ratio scans)."""
    _tabular_rows(report)  # refuse a non-tabular report before creating path
    with open(path, "w", newline="") as fh:
        write_csv(report, fh)
