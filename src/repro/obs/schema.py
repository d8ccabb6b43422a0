"""Obs stream schema: record layout, JSON schema, and a validator.

The obs stream is JSON lines, one record per line, two record kinds:

* ``span`` — one closed unit of work: correlation ids (``trace``/
  ``span``/``parent``), a name, wall-clock ``start``/``end``, the
  originating process and thread, and free-form ``attrs`` (scenario
  string, fingerprint, engine, status...).
* ``event`` — one structured log record attached to the enclosing span
  (``trace``/``span`` may be null for library calls outside any span):
  a name, a wall-clock ``time`` and free-form ``fields``.  Engine
  fallbacks are ``engine.fallback`` events whose fields carry the
  validation gate that failed (``reason``).

:data:`OBS_RECORD_SCHEMA` is the JSON-schema document the CI obs-smoke
job asserts against; :func:`validate_record` implements it in pure
python (no ``jsonschema`` dependency), so the validator and the schema
document are maintained side by side here.
"""

from __future__ import annotations

import json
import warnings
from typing import Dict, List, Optional, Tuple

#: Bump when the record layout changes incompatibly.
OBS_SCHEMA_VERSION = 1

_ID = {"type": "string", "minLength": 1}

#: JSON-schema (draft-07) document for one obs record.
OBS_RECORD_SCHEMA: Dict[str, object] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro obs record",
    "oneOf": [
        {
            "type": "object",
            "required": [
                "kind", "schema", "trace", "span", "parent", "name",
                "start", "end", "pid", "proc", "thread", "attrs",
            ],
            "properties": {
                "kind": {"const": "span"},
                "schema": {"const": OBS_SCHEMA_VERSION},
                "trace": _ID,
                "span": _ID,
                "parent": {"oneOf": [_ID, {"type": "null"}]},
                "name": _ID,
                "start": {"type": "number"},
                "end": {"type": "number"},
                "pid": {"type": "integer"},
                "proc": _ID,
                "thread": _ID,
                "attrs": {"type": "object"},
            },
        },
        {
            "type": "object",
            "required": [
                "kind", "schema", "trace", "span", "name", "time",
                "pid", "proc", "thread", "fields",
            ],
            "properties": {
                "kind": {"const": "event"},
                "schema": {"const": OBS_SCHEMA_VERSION},
                "trace": {"oneOf": [_ID, {"type": "null"}]},
                "span": {"oneOf": [_ID, {"type": "null"}]},
                "name": _ID,
                "time": {"type": "number"},
                "pid": {"type": "integer"},
                "proc": _ID,
                "thread": _ID,
                "fields": {"type": "object"},
            },
        },
    ],
}


def _check_id(record: Dict[str, object], key: str, errors: List[str],
              nullable: bool = False) -> None:
    value = record.get(key)
    if value is None and nullable:
        return
    if not isinstance(value, str) or not value:
        errors.append("%s must be a non-empty string, got %r" % (key, value))


def validate_record(record: object) -> List[str]:
    """Errors making ``record`` invalid under :data:`OBS_RECORD_SCHEMA`.

    An empty list means the record validates.  Pure-python twin of the
    JSON-schema document above, kept in lockstep with it.
    """
    if not isinstance(record, dict):
        return ["record must be a JSON object, got %s" % type(record).__name__]
    errors: List[str] = []
    kind = record.get("kind")
    if kind not in ("span", "event"):
        return ["kind must be 'span' or 'event', got %r" % (kind,)]
    if record.get("schema") != OBS_SCHEMA_VERSION:
        errors.append(
            "schema must be %d, got %r" % (OBS_SCHEMA_VERSION, record.get("schema"))
        )
    _check_id(record, "name", errors)
    _check_id(record, "proc", errors)
    _check_id(record, "thread", errors)
    if not isinstance(record.get("pid"), int):
        errors.append("pid must be an integer, got %r" % (record.get("pid"),))
    if kind == "span":
        _check_id(record, "trace", errors)
        _check_id(record, "span", errors)
        _check_id(record, "parent", errors, nullable=True)
        start, end = record.get("start"), record.get("end")
        for key, value in (("start", start), ("end", end)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append("%s must be a number, got %r" % (key, value))
        if (
            isinstance(start, (int, float)) and isinstance(end, (int, float))
            and end < start
        ):
            errors.append("span ends (%r) before it starts (%r)" % (end, start))
        if not isinstance(record.get("attrs"), dict):
            errors.append("attrs must be an object")
    else:
        _check_id(record, "trace", errors, nullable=True)
        _check_id(record, "span", errors, nullable=True)
        value = record.get("time")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append("time must be a number, got %r" % (value,))
        if not isinstance(record.get("fields"), dict):
            errors.append("fields must be an object")
    return errors


def read_jsonl(path: str) -> List[Tuple[int, Optional[Dict[str, object]]]]:
    """``(line number, record)`` for every non-blank line of a JSONL file.

    ``record`` is the line's JSON object, or ``None`` when the line is not
    one (torn, corrupt, or a JSON value other than an object).  What a bad
    line means is the caller's rule.  One pass over the file's bytes; a
    file that cannot be read raises ``OSError``.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    rows: List[Tuple[int, Optional[Dict[str, object]]]] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        rows.append((number, record if isinstance(record, dict) else None))
    return rows


def load_stream(path: str) -> List[Dict[str, object]]:
    """All records of one obs ``.jsonl`` stream or manifest, in file order.

    A bad final line is skipped silently (a live writer may be mid-record);
    any other bad line is skipped with one ``RuntimeWarning`` counting
    them.  Use :func:`validate_stream` when skipping should be an error.
    """
    rows = read_jsonl(path)
    if rows and rows[-1][1] is None:
        rows.pop()  # torn tail of a live stream
    records = [record for _number, record in rows if record is not None]
    if len(records) < len(rows):
        warnings.warn(
            "%s has %d unparseable line(s); skipped them and kept the other "
            "%d records" % (path, len(rows) - len(records), len(records)),
            RuntimeWarning,
            stacklevel=2,
        )
    return records


def validate_stream(path: str) -> Tuple[int, List[str]]:
    """``(valid record count, errors)`` for one obs stream file.

    Every record is checked against :data:`OBS_RECORD_SCHEMA` via
    :func:`validate_record`.  An unparseable final line is tolerated after
    at least one valid record (a live writer may be mid-record); anywhere
    else it is an error.
    """
    rows = read_jsonl(path)
    count = 0
    errors: List[str] = []
    for position, (number, record) in enumerate(rows):
        if record is None:
            if count and position == len(rows) - 1:
                continue  # torn tail of a live stream
            errors.append(
                "%s:%d: unparseable line, not a JSON object" % (path, number)
            )
            continue
        record_errors = validate_record(record)
        if record_errors:
            errors.extend(
                "%s:%d: %s" % (path, number, error) for error in record_errors
            )
        else:
            count += 1
    return count, errors
