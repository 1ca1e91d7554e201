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
rendering.  Strings still go through the C string encoder, so escapes are
the stdlib's.  A finite float is written as its `repr`, which is the
string `json.dumps` gives for it; NaN and +-Infinity go through
`json.dumps`, which writes them as `NaN`, `Infinity` and `-Infinity`.

Items and records are named tuples, so a report of a few thousand items
is cheap to build and to unpack; they compare equal to plain tuples.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Item(NamedTuple):
    key: str
    exact: str
    approx: float | None = None


class Record(NamedTuple):
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


def _array(elements: str, indent: str) -> str:
    # a rendered element is never empty, so no elements is an empty list
    return f"[\n{elements}\n{indent}]" if elements else "[]"


def _float(x: float) -> str:
    # json.dumps writes a finite float as its repr
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _items(items: tuple[Item, ...]) -> str:
    # one f-string per item: a % template is parsed again for every item
    return ",\n".join([
        "        {\n"
        f'          "key": {_quote(key)},\n'
        f'          "exact": {_quote(exact)},\n'
        f'          "approx": {"null" if approx is None else _float(approx)}\n'
        "        }"
        for key, exact, approx in items
    ])


def render_json(report: Report) -> str:
    """The bytes of `json.dumps(payload, indent=2) + "\\n"`, with the
    Report -> records -> items layout written out by hand: with an indent,
    CPython's `json` falls back to its pure-Python encoder (see the module
    docstring)."""
    records = ",\n".join([
        "    {\n"
        f'      "title": {_quote(title)},\n'
        f'      "items": {_array(_items(items), "      ")}\n'
        "    }"
        for title, items in report.records
    ])
    return (
        "{\n"
        f'  "command": {_quote(report.command)},\n'
        f'  "input_digest": {_quote(report.input_digest)},\n'
        f'  "records": {_array(records, "  ")}\n'
        "}\n"
    )
