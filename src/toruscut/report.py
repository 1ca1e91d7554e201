"""Structured command output rendered as text or JSON.

A Report is the command echo, a digest of the input, and a list of
records; each record is a titled list of key/value items.  Values are
exact strings (angle literals, fractions, integer pairs); a float
approximation may ride along but never replaces the exact form.  Both
renderings are deterministic, so identical inputs give byte-identical
output.

The JSON rendering is exactly `json.dumps(payload, indent=2) + "\n"` of
the Report -> records -> items payload, but the fixed layout is written
here by hand: with an indent, CPython's `json` falls back to its
pure-Python encoder, which made JSON output cost several times the text
rendering.  Strings still go through the C string encoder and floats
through `json.dumps`, so escapes, NaN, Infinity and float repr are the
stdlib's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True)
class Item:
    key: str
    exact: str
    approx: float | None = None


@dataclass(frozen=True, slots=True)
class Record:
    title: str
    items: tuple[Item, ...]


@dataclass(frozen=True)
class Report:
    command: str
    input_digest: str
    records: tuple[Record, ...]


def render_text(report: Report) -> str:
    lines = [f"# command: {report.command}", f"# input: sha256:{report.input_digest}"]
    for rec in report.records:
        lines.append("")
        lines.append(f"[{rec.title}]")
        for item in rec.items:
            if item.approx is None:
                lines.append(f"{item.key} = {item.exact}")
            else:
                lines.append(f"{item.key} = {item.exact} (~{fmt_float(item.approx)})")
    return "\n".join(lines) + "\n"


_ITEM = """\
        {
          "key": %s,
          "exact": %s,
          "approx": %s
        }"""
_RECORD = """\
    {
      "title": %s,
      "items": %s
    }"""


def _array(elements: str, indent: str) -> str:
    # a rendered element is never empty, so no elements is an empty list
    return f"[\n{elements}\n{indent}]" if elements else "[]"


def _item(it: Item) -> str:
    approx = "null" if it.approx is None else json.dumps(it.approx)
    return _ITEM % (_quote(it.key), _quote(it.exact), approx)


def render_json(report: Report) -> str:
    """The bytes of `json.dumps(payload, indent=2) + "\\n"`, with the
    Report -> records -> items layout written out by hand: with an indent,
    CPython's `json` falls back to its pure-Python encoder (see the module
    docstring)."""
    records = ",\n".join(
        _RECORD % (_quote(rec.title), _array(",\n".join(map(_item, rec.items)), "      "))
        for rec in report.records
    )
    return (
        "{\n"
        f'  "command": {_quote(report.command)},\n'
        f'  "input_digest": {_quote(report.input_digest)},\n'
        f'  "records": {_array(records, "  ")}\n'
        "}\n"
    )
