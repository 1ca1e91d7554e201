"""Command line interface.

Subcommands operate on cut spec files (see specfile) and print a Report
in text or JSON form.  Exit codes: 0 on success, 2 for unreadable input
or grammar errors, 3 for semantic violations (non-contact profiles,
invalid cut data, mismatched endpoints).

Each subcommand is one row of `_COMMANDS`: its spec-file positionals,
its options and a function from the loaded specs to records and an exit
code.  One runner loads the files, echoes the command line, digests the
input and builds the Report.  `main` reads an argv in the table's plain
shape straight from the table; the argparse parser, built from the same
table, reads every other argv and prints usage, help and errors.  It is
built once per process, on the first argv the table reader declines.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import re
import sys
from typing import Callable, NamedTuple

from .angles import Angle, Direction, QUARTER_TURN, _int, parse_angle
from .cuts import (
    CutSpec,
    LensDescriptor,
    LensKind,
    classify_lens,
    slice_by_ray,
    validate_cutspec,
)
from .errors import GeometryError, SpecSemanticError, SpecSyntaxError
from .forms import InvariantContactForm, contact_check, sweep
from .invariants import (
    MODE_FIXED,
    MODE_GL2Z,
    cc_count,
    cc_profile,
    detect_overtwisted,
    distinguish,
    homotopy_certificate,
)
from .models import alpha_cutspec, lens_cutspec, rotating_line_form
from .report import Item, Record, Report, digest, render_json, render_text
from .specfile import parse_spec
from .symplectization import check_cut_symplectization_commute

EXIT_OK = 0
EXIT_SYNTAX = 2
EXIT_SEMANTIC = 3

_LENS_TABLE = ((1, 1), (2, 1), (1, 2), (2, 3))


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(path: str, validate: bool) -> tuple[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _CliError(EXIT_SYNTAX, f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise _CliError(EXIT_SYNTAX, f"cannot read {path}: {e}")
    try:
        return text, parse_spec(text, validate=validate)
    except SpecSyntaxError as e:
        raise _CliError(EXIT_SYNTAX, f"{path}: {e}")
    except SpecSemanticError as e:
        raise _CliError(EXIT_SEMANTIC, f"{path}: {e}")


def _require_cut(obj, path: str) -> CutSpec:
    if not isinstance(obj, CutSpec):
        raise _CliError(
            EXIT_SEMANTIC,
            f"{path}: no collapse data; this command needs collapse0 and collapse1",
        )
    return obj


# -- items shared by the commands -------------------------------------------


def _angle_item(key: str, a: Angle) -> Item:
    return Item(key, str(a), a.value())


def _pair_str(v) -> str:
    x, y = (v.x, v.y) if isinstance(v, Direction) else v
    return f"{x},{y}"


def _classification_items(desc: LensDescriptor) -> list[Item]:
    nf = desc.normal_form
    return [
        Item("kind", desc.kind.value),
        Item("slope", "-" if desc.slope is None else str(desc.slope)),
        Item("normal-form", "-" if nf is None else _pair_str(nf)),
        Item("basis-image", _pair_str(desc.raw_basis_data)),
    ]


def _tag_items(spec: CutSpec, desc: LensDescriptor) -> list[Item]:
    """The standard-tight tag, when the cut is the tight sphere."""
    tight = (
        desc.kind is LensKind.SPHERE
        and desc.slope == 0
        and sweep(spec.form) == QUARTER_TURN  # too short to carry a disk
    )
    return [Item("tag", "standard-tight")] if tight else []


_DISK_DESCRIPTION = (
    "disk over t in [0, t*] at fixed complementary coordinate; "
    "boundary tangent to the contact planes where the profile has "
    "advanced by pi from the collapsed side"
)


def _overtwisted_items(spec) -> list[Item]:
    cert = detect_overtwisted(spec)
    if cert is None:
        return [Item("overtwisted", "none-found")]
    return [
        Item("overtwisted", "disk-found"),
        Item("disk-side", "0"),
        Item("disk-j", "1"),
        Item("disk-t*", str(cert.point), cert.point.t_float()),
        _angle_item("disk-target", cert.target),
        Item("disk-coordinate", "0.0"),
        Item("disk-description", _DISK_DESCRIPTION),
    ]


def _bounds_items(prof) -> list[Item]:
    return [Item("profile-min", str(prof.min_count)), Item("profile-max", str(prof.max_count))]


def _profile_items(prof) -> list[Item]:
    items = [
        _angle_item("swept", prof.swept),
        Item("min", str(prof.min_count)),
        Item("max", str(prof.max_count)),
    ]
    for i, arc in enumerate(prof.arcs):
        text = f"[{arc.start} .. {arc.end}] span {arc.span} count {arc.count}"
        items.append(Item(f"arc{i}", text, arc.span.value()))
    return items


def _verdict(w) -> str:
    return "indistinguishable" if w is None else "distinguished"


def _counts_items(w) -> list[Item]:
    items = [Item("xi+", _pair_str(w.xi_plus))]
    items.append(Item("counts+", f"{w.counts_plus[0]} vs {w.counts_plus[1]}"))
    if w.xi_minus is not None:
        items.append(Item("xi-", _pair_str(w.xi_minus)))
        items.append(Item("counts-", f"{w.counts_minus[0]} vs {w.counts_minus[1]}"))
    return items


def _summary_items(w) -> list[Item]:
    return [
        Item("summary-a", f"min {w.summary_a[0]} max {w.summary_a[1]}"),
        Item("summary-b", f"min {w.summary_b[0]} max {w.summary_b[1]}"),
    ]


def _witness_items(w) -> list[Item]:
    items = [Item("result", _verdict(w))]
    if w is not None:
        items += [Item("mode", w.mode), *_counts_items(w), *_summary_items(w)]
    return items


def _window_items(eta, window, count: int) -> list[Item]:
    return [
        Item("eta", _pair_str(eta)),
        _angle_item("window-lo", window[0]),
        _angle_item("window-hi", window[1]),
        Item("count", str(count)),
    ]


# -- commands: (args, *specs) -> (records, exit code) ------------------------


def _one(title: str, items, code: int = EXIT_OK) -> tuple[list[Record], int]:
    """A single record and an exit code, which is what most commands give."""
    return [Record(title, tuple(items))], code


def _check(args, obj):
    if isinstance(obj, InvariantContactForm):
        return _one("contact-check", [
            Item("input", "invariant form (no collapse data)"),
            Item("contact", "yes"),
            Item("orientation", f"{contact_check(obj):+d}"),
            _angle_item("sweep", sweep(obj)),
        ])
    violations = validate_cutspec(obj)
    items = [
        Item("collapse0", _pair_str(obj.v0)),
        Item("collapse1", _pair_str(obj.v1)),
        Item("valid", "no" if violations else "yes"),
    ]
    for i, v in enumerate(violations):
        items.append(Item(f"violation{i}", f"{v.code} at end {v.end}: {v.message}"))
    return _one("cut-validation", items, EXIT_SEMANTIC if violations else EXIT_OK)


def _cut(args, obj):
    spec = _require_cut(obj, args.file)
    desc = classify_lens(spec)
    return _one("classification", _classification_items(desc) + _tag_items(spec, desc))


def _invariants(args, obj):
    m, n = args.direction
    count = cc_count(obj, (m, n))
    return _one("invariants", [Item("direction", f"{m},{n}"), Item(f"cc({m},{n})", str(count))])


def _distinguish(args, a, b):
    w = distinguish(a, b, MODE_GL2Z if args.mod_gl2z else MODE_FIXED)
    return _one("distinguish", _witness_items(w))


_H_RULE = (
    "H(s,t) = ((1-s) cos a(t) + s cos b(t), (1-s) sin a(t) + s sin b(t), s(1-s))"
)
_H_ARGUMENT = (
    "the third component s(1-s) is positive for 0 < s < 1; at s = 0 and "
    "s = 1 the planar part is a unit covector; hence H never vanishes, "
    "and |H| = 1/4 at the planar zeros listed"
)


def _homotopy(args, a, b):
    cert = homotopy_certificate(a, b)
    items = [Item("rule", _H_RULE)]
    for i, z in enumerate(cert.zeros):
        text = (
            f"t = {z.point}, profiles differ by {z.odd_multiple} pi, "
            "s = 0.5, third component 1/4"
        )
        items.append(Item(f"zero{i}", text, z.point.t_float()))
    for i, (lo, hi) in enumerate(cert.zero_intervals):
        items.append(Item(f"interval{i}", f"t in [{lo}, {hi}], s = 0.5"))
    items.append(Item("planar-zeros", str(len(cert.zeros))))
    items.append(Item("zero-intervals", str(len(cert.zero_intervals))))
    items.append(Item("argument", _H_ARGUMENT))
    return _one("homotopy", items)


def _slice(args, obj):
    if args.window[0] >= args.window[1]:
        raise _CliError(EXIT_SYNTAX, "--window must be an increasing pair of angles")
    form = obj.form if isinstance(obj, CutSpec) else obj
    pieces = slice_by_ray(form, args.eta, tuple(args.window))
    records = [Record("slices", tuple(_window_items(args.eta, args.window, len(pieces))))]
    for i, piece in enumerate(pieces):
        items = [
            Item("valid", "no" if validate_cutspec(piece) else "yes"),
            _angle_item("value-lo", piece.form.phi.values[0]),
            _angle_item("value-hi", piece.form.phi.values[-1]),
        ]
        items += _classification_items(classify_lens(piece))
        items += _overtwisted_items(piece)
        records.append(Record(f"slice{i}", tuple(items)))
    return records, EXIT_OK


def _symplectization(args, obj):
    rep = check_cut_symplectization_commute(_require_cut(obj, args.file))
    items = [Item(row.name, f"pass: {row.detail}") for row in rep.rows]
    return _one("symplectization", items + [Item("verdict", "commute")])


def _reproduce(args):
    if args.kmax < 0:
        raise _CliError(EXIT_SYNTAX, "--kmax must be nonnegative")
    records = []
    specs = [alpha_cutspec(k) for k in range(args.kmax + 1)]
    for k, spec in enumerate(specs):
        desc = classify_lens(spec)
        items = _classification_items(desc)
        items.append(Item("cc(-1,1)", str(cc_count(spec, (-1, 1)))))
        items.append(Item("cc(1,-1)", str(cc_count(spec, (1, -1)))))
        items += _bounds_items(cc_profile(spec))
        items += _overtwisted_items(spec) + _tag_items(spec, desc)
        records.append(Record(f"alpha[k={k}]", tuple(items)))
    for k in range(1, args.kmax + 1):
        for l in range(k + 1, args.kmax + 1):
            w = distinguish(specs[k], specs[l], MODE_FIXED)
            items = [Item("fixed-action", _verdict(w))]
            if w is not None:
                items += _counts_items(w)
            # modulo GL(2, Z) read off w, exactly: if the summaries differ, an arc
            # end of the datum with more turns witnesses both cases, so w is not None
            g = w if w is not None and w.summary_a != w.summary_b else None
            items.append(Item("modulo-GL2Z", _verdict(g)))
            if g is not None:
                items += _summary_items(g)
            records.append(Record(f"distinguish[k={k},l={l}]", tuple(items)))
    for k, l in _LENS_TABLE:
        for j in (1, 2, 3):
            spec = lens_cutspec(k, l, j)
            items = _classification_items(classify_lens(spec)) + _bounds_items(cc_profile(spec))
            records.append(Record(f"lens[k={k},l={l},j={j}]", tuple(items)))
    window = (Angle(Direction(-1, 0), -2), Angle(Direction(-1, 0), 1))
    pieces = slice_by_ray(rotating_line_form(3), (0, 1), window)
    items = _window_items((0, 1), window, len(pieces))
    for i, piece in enumerate(pieces):
        disk = "none-found" if detect_overtwisted(piece) is None else "disk-found"
        kind = classify_lens(piece).kind.value
        items.append(Item(f"slice{i}", f"kind {kind}, overtwisted {disk}"))
    records.append(Record("line-slices", tuple(items)))
    return records, EXIT_OK


# -- the command table --------------------------------------------------------


def _int_arg(text: str) -> int:
    try:
        return _int(text.strip())
    except ValueError:  # argparse's own message for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _pair_arg(text: str) -> tuple[int, int]:
    m, _, n = text.strip().partition(",")
    try:
        return _int(m), _int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer pair m,n, got {text!r}")


def _angle_arg(text: str) -> Angle:
    try:
        return parse_angle(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


class _Command(NamedTuple):
    name: str
    help: str
    files: tuple[str, ...]  # spec-file positionals
    options: tuple[tuple[str, dict], ...]  # (flag, argparse kwargs)
    run: Callable  # (args, *specs) -> (records, exit code)
    validate: bool = True  # passed to parse_spec

    @property
    def flags(self) -> tuple[tuple[str, dict], ...]:
        """`--format`, then the command's own options."""
        return (("--format", _FORMAT), *self.options)

    @property
    def dash(self) -> bool:
        """Whether a value may start with '-' (see _DASH_VALUE)."""
        return any(kw.get("type") in (_pair_arg, _angle_arg) for _, kw in self.options)


_FORMAT = {
    "choices": ("text", "json"), "default": "text", "help": "output rendering (default: text)",
}
_PAIR = {"type": _pair_arg, "required": True, "metavar": "M,N"}
_WINDOW = {
    "type": _angle_arg, "nargs": 2, "required": True, "metavar": ("W0", "W1"),
    "help": "angle literals x,y;n bounding the profile values",
}
_MOD_GL2Z = {"action": "store_true", "help": "compare modulo relabeling"}
_FILE, _FILES = ("file",), ("file_a", "file_b")

_COMMANDS = (
    _Command("check", "validate a spec file and report violations", _FILE, (), _check,
             validate=False),
    _Command("cut", "classify the closed cut space", _FILE, (), _cut),
    _Command("invariants", "ray component count along a direction", _FILE,
             (("--direction", _PAIR),), _invariants),
    _Command("profile", "full count-by-ray profile", _FILE, (),
             lambda args, obj: _one("cc-profile", _profile_items(cc_profile(obj)))),
    _Command("distinguish", "compare two cut data by their counts", _FILES,
             (("--mod-gl2z", _MOD_GL2Z),), _distinguish),
    _Command("overtwisted", "search the standard disk family", _FILE, (),
             lambda args, obj: _one("overtwisted", _overtwisted_items(obj))),
    _Command("homotopy", "explicit homotopy between covector fields", _FILES, (), _homotopy),
    _Command("slice", "cut pieces of a long form along a ray", _FILE,
             (("--eta", _PAIR), ("--window", _WINDOW)), _slice),
    _Command("symplectization-check", "verify cut and symplectization commute", _FILE, (),
             _symplectization),
    _Command("reproduce-paper", "recompute the worked examples", (),
             (("--kmax", {"type": _int_arg, "default": 3}),), _reproduce),
)

# Integer pairs and angle literals may start with '-', which argparse
# would read as an option; on the subcommands that take them, whose options
# never start with '-' and a digit, every such token is a value.
_DASH_VALUE = re.compile(r"^-\d")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruscut",
        description="exact invariants of torus-invariant contact cuts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p.set_defaults(handler=cmd)
        if cmd.dash and hasattr(p, "_negative_number_matcher"):
            p._negative_number_matcher = _DASH_VALUE
        for name in cmd.files:
            p.add_argument(name)
        for flag, kw in cmd.flags:
            p.add_argument(flag, **kw)
    return parser


_BY_NAME = {cmd.name: cmd for cmd in _COMMANDS}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _table_args(argv) -> argparse.Namespace | None:
    """The namespace `_parser().parse_args(argv)` gives, read straight from
    the command table; None when argv is not in the table's plain shape.

    That shape is the subcommand, then its files and its options in any
    order, each option spelled in full and given once, with its values as
    separate words that start with '-' only where argparse reads them as
    values.  argparse reads every other argv (`-h`, `--opt=value`, an
    abbreviation, a repeat, an error), so its bytes are unchanged.
    """
    cmd = _BY_NAME.get(argv[0]) if argv else None
    if cmd is None:
        return None
    options = dict(cmd.flags)
    values = {"command": cmd.name, "handler": cmd}
    files = []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            files.append(word)
            continue
        kw = options.pop(word, None)  # a repeated option is not found again
        if kw is None:
            return None
        if kw.get("action") == "store_true":
            values[_dest(word)] = True
            continue
        given = list(itertools.islice(words, kw.get("nargs", 1)))
        if len(given) < kw.get("nargs", 1) or any(
            w.startswith("-") and not (cmd.dash and _DASH_VALUE.match(w)) for w in given
        ):
            return None
        try:
            got = [kw.get("type", str)(w) for w in given]
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if any(v not in kw.get("choices", (v,)) for v in got):
            return None
        values[_dest(word)] = got if "nargs" in kw else got[0]
    if len(files) != len(cmd.files) or any(kw.get("required") for kw in options.values()):
        return None
    for flag, kw in options.items():
        values[_dest(flag)] = False if kw.get("action") == "store_true" else kw.get("default")
    values.update(zip(cmd.files, files))
    return argparse.Namespace(**values)


def _echo_value(v) -> str:
    if isinstance(v, list):
        return " ".join(map(_echo_value, v))
    return _pair_str(v) if isinstance(v, tuple) else str(v)


def _run(cmd: _Command, args) -> tuple[Report, int]:
    """Load the spec files, run the command and build its one Report.

    The echo is the name, the paths, then each option in table order (a
    flag only when set); the digest is over the file texts joined by NUL,
    or over the echo when the command reads no file.
    """
    paths = [getattr(args, name) for name in cmd.files]
    loaded = [_load(path, cmd.validate) for path in paths]
    words = [cmd.name, *paths]
    for flag, _ in cmd.options:
        value = getattr(args, _dest(flag))
        if value is True:
            words.append(flag)
        elif value is not False:
            words += [flag, _echo_value(value)]
    echo = " ".join(words)
    records, code = cmd.run(args, *(obj for _, obj in loaded))
    text = "\x00".join(text for text, _ in loaded) if loaded else echo
    return Report(echo, digest(text), tuple(records)), code


@contextlib.contextmanager
def _any_int_size():
    """Lift Python's limit on int <-> str digits (3.10.7 and later) for the
    duration: legal coordinates, and exact results, have any length.

    The limit is process-wide, so `main` is not safe to run in several
    threads at once: the first to return restores the limit under the
    others.  Without the limit a literal of d digits parses in O(d^2)
    time; on CPython 3.11 a million digits take several seconds."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@_any_int_size()
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _table_args(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
    try:
        report, code = _run(args.handler, args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except GeometryError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SEMANTIC
    render = render_json if args.format == "json" else render_text
    sys.stdout.write(render(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
