"""Plain-text input files describing forms and cut data.

One key per line, "#" starts a comment, keys may appear in any order:

    form.phi.breaks = 0:1,0  1:0,1;1      # rational t : angle literal
    form.radial     = 1                   # or  0:1 1/2:3/2 1:1
    form.domain     = 0,1                 # optional consistency check
    collapse0       = 0,1                 # both present: a cut datum
    collapse1       = 1,0                 # neither: a bare form

Integers are [sign] ASCII digits, read by `angles._int` here and in the
CLI options; rationals are [sign] digits with an optional /digits or a
decimal point (`_fraction` gives the grammar); angle literals are
"x,y;n", ";n" omitted for n = 0.  Geometry checks run eagerly so the
caller gets a diagnostic with the offending line, not a late exception.
"""

from __future__ import annotations

from fractions import Fraction

from .angles import Angle, Direction, _int, parse_angle
from .cuts import CutSpec
from .errors import GeometryError, InvalidCutSpec, SpecSemanticError, SpecSyntaxError
from .forms import AngleProfile, InvariantContactForm, RadialProfile

_KEYS = ("form.phi.breaks", "form.radial", "form.domain", "collapse0", "collapse1")


def _fraction(text: str, line: int) -> Fraction:
    """One rational of the grammar [sign] digits [/ digits], [sign] digits
    . [digits] or [sign] . digits, read as two ints by `angles._int`;
    anything else, or a zero denominator, is a syntax error."""
    num, slash, den = text.partition("/")
    if not slash:  # a decimal: its digits over a power of ten
        whole, _, den = text.partition(".")
        num = whole + den
    d = 0
    if not den.startswith(("+", "-")):  # the one sign is in front
        try:
            n, d = _int(num), _int(den) if slash else 10 ** len(den)
        except ValueError:  # not the grammar, or past the int/str digit limit outside `cli.main`
            pass
    if d:
        return Fraction(n, d)
    raise SpecSyntaxError(line, f"bad rational {text!r}")


def _int_pair(text: str, line: int) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecSyntaxError(line, f"expected m,n but got {text!r}")
    try:
        return _int(parts[0]), _int(parts[1])
    except ValueError:
        raise SpecSyntaxError(line, f"expected integers in {text!r}") from None


def _parse_lines(text: str) -> dict[str, tuple[int, str]]:
    seen: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise SpecSyntaxError(lineno, f"expected key = value, got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise SpecSyntaxError(lineno, f"unknown key {key!r}")
        if key in seen:
            raise SpecSyntaxError(lineno, f"duplicate key {key!r}")
        if not value:
            raise SpecSyntaxError(lineno, f"empty value for {key!r}")
        seen[key] = (lineno, value)
    return seen


def _angle(text: str, line: int) -> Angle:
    try:
        return parse_angle(text)
    except ValueError as e:  # a GeometryError too: a zero or non-primitive direction
        raise SpecSyntaxError(line, f"bad angle literal {text!r}: {e}") from None


def _points(value: str, line: int, what: str, read) -> tuple[list, list]:
    """The breakpoints and values of a line of "t:x" tokens, each x read by
    `read` (`_angle` or `_fraction`); `what` names x in the error."""
    breaks, values = [], []
    for token in value.split():
        t_text, sep, x_text = token.partition(":")
        if not sep:
            raise SpecSyntaxError(line, f"expected t:{what} but got {token!r}")
        breaks.append(_fraction(t_text, line))
        values.append(read(x_text, line))
    return breaks, values


def parse_spec(text: str, validate: bool = True) -> CutSpec | InvariantContactForm:
    """Parse a spec file into a CutSpec, or a bare form when no collapse
    vectors are given.

    With validate=True (the default) cut data are required to be valid.
    A geometry error names the line of the key being read: form.phi.breaks
    for the profile, its breakpoints and the contact condition, all read
    before any other line's value, and for an invalid cut the collapse
    line of the first violated end.
    """
    entries = _parse_lines(text)
    if "form.phi.breaks" not in entries:
        # named at the line after the last, where the key would be added
        last = len(text.splitlines())
        raise SpecSyntaxError(last + 1, "missing required key 'form.phi.breaks'")
    line, value = entries["form.phi.breaks"]
    try:
        breaks, values = _points(value, line, "angle", _angle)
        if len(breaks) < 2:
            raise SpecSyntaxError(line, "need at least two breakpoints")
        phi = AngleProfile(tuple(breaks), tuple(values))

        if "form.domain" in entries:
            dom_line, value = entries["form.domain"]
            parts = value.split(",")
            if len(parts) != 2:
                raise SpecSyntaxError(dom_line, f"expected t0,t1 but got {value!r}")
            lo, hi = (_fraction(p, dom_line) for p in parts)
            if (lo, hi) != (phi.t0, phi.t1):
                raise SpecSemanticError(
                    dom_line,
                    f"domain {lo},{hi} does not match the profile breakpoints "
                    f"{phi.t0},{phi.t1}",
                )

        if "form.radial" in entries:
            line, value = entries["form.radial"]
            if ":" in value or len(value.split()) > 1:  # "t:x" tokens
                radial = RadialProfile.from_values(*_points(value, line, "value", _fraction))
            else:
                radial = RadialProfile.constant(_fraction(value, line), (phi.t0, phi.t1))
            form = InvariantContactForm(phi, radial)
        else:
            form = InvariantContactForm.unit(phi)

        has0, has1 = "collapse0" in entries, "collapse1" in entries
        if not has0 and not has1:
            return form
        if has0 != has1:
            missing = "collapse1" if has0 else "collapse0"
            line = entries["collapse0" if has0 else "collapse1"][0]
            raise SpecSemanticError(line, f"{missing} is required when the other is given")
        vectors = []
        for key in ("collapse0", "collapse1"):
            line, value = entries[key]
            vectors.append(Direction(*_int_pair(value, line)))
        spec = CutSpec(form, *vectors)
        if validate and spec.violations:
            line = entries[f"collapse{spec.violations[0].end}"][0]
            raise InvalidCutSpec(spec.violations)
        return spec
    except GeometryError as e:
        raise SpecSemanticError(line, str(e)) from e


def parse_spec_file(path, validate: bool = True) -> CutSpec | InvariantContactForm:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read(), validate=validate)
