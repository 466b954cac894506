"""Versioned JSON envelopes shared by every machine-readable output.

Telemetry snapshots (:meth:`repro.serve.SimSession.snapshot`),
experiment result dumps (:meth:`repro.analysis.ExperimentResult.to_dict`),
the ``repro verify --json`` report and the ``repro serve`` RPC loop all
declare the same ``"schema": "repro-<family>/<version>"`` field, stamped
and checked here instead of each CLI inventing its own envelope.

The version is bumped when a payload changes incompatibly, so consumers
can reject documents produced by newer (or much older) code instead of
silently misreading them.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: family -> current version.  One registry so a grep for a schema
#: string has exactly one place to look.
SCHEMAS: Dict[str, int] = {
    "repro-snapshot": 2,
    "repro-cluster-snapshot": 1,
    "repro-result": 1,
    "repro-verify": 1,
    "repro-serve": 1,
    "repro-bench": 1,
}


class SchemaError(ValueError):
    """A JSON document's ``schema`` field is missing, malformed, or
    names a family/version this code does not understand."""


def schema_id(family: str, version: Optional[int] = None) -> str:
    """The canonical ``family/version`` string (current version by default)."""
    if family not in SCHEMAS:
        raise SchemaError(f"unknown schema family {family!r}; known: {sorted(SCHEMAS)}")
    return f"{family}/{SCHEMAS[family] if version is None else version}"


def stamp(payload: Dict[str, Any], family: str) -> Dict[str, Any]:
    """Return ``payload`` with the current ``schema`` field set (in place)."""
    payload["schema"] = schema_id(family)
    return payload


def parse_schema(value: Any) -> tuple:
    """Split a ``family/version`` string, validating its shape."""
    if not isinstance(value, str) or "/" not in value:
        raise SchemaError(f"malformed schema field {value!r} (want 'family/N')")
    family, _, version = value.rpartition("/")
    if not version.isdigit():
        raise SchemaError(f"malformed schema version in {value!r}")
    return family, int(version)


def check(data: Dict[str, Any], family: str) -> str:
    """Validate ``data['schema']`` against ``family``'s current version.

    Returns the schema string on success; raises :class:`SchemaError`
    on a missing field, a different family, or a version from the
    future.  Older versions of a known family are accepted (readers
    stay tolerant; writers always stamp the current version).
    """
    value = data.get("schema")
    if value is None:
        raise SchemaError(f"document has no 'schema' field (expected {schema_id(family)})")
    got_family, got_version = parse_schema(value)
    if got_family != family:
        raise SchemaError(f"schema family mismatch: got {value!r}, expected {family!r}")
    if got_version > SCHEMAS[family]:
        raise SchemaError(
            f"document schema {value!r} is newer than this code understands "
            f"({schema_id(family)})"
        )
    return value
