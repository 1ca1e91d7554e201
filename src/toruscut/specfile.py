"""Plain-text input files describing forms and cut data.

One key per line, "#" starts a comment, keys may appear in any order:

    form.phi.breaks = 0:1,0  1:0,1;1      # rational t : angle literal
    form.radial     = 1                   # or  0:1 1/2:3/2 1:1
    form.domain     = 0,1                 # optional consistency check
    collapse0       = 0,1                 # both present: a cut datum
    collapse1       = 1,0                 # neither: a bare form

Rationals are integers, p/q or plain decimals, with no exponent; angle
literals are "x,y;n", ";n" omitted for n = 0.  Geometry checks run eagerly
so the caller gets a diagnostic with the offending line, not a late exception.
"""

from __future__ import annotations

from fractions import Fraction

from .angles import Direction, parse_angle
from .cuts import CutSpec, require_valid
from .errors import (
    GeometryError,
    InvalidCutSpec,
    SpecSemanticError,
    SpecSyntaxError,
)
from .forms import AngleProfile, InvariantContactForm, RadialProfile, contact_check

_KEYS = ("form.phi.breaks", "form.radial", "form.domain", "collapse0", "collapse1")


def _fraction(text: str, line: int) -> Fraction:
    if not set(text) <= set("0123456789+-./"):  # Fraction also takes 1e999999999 and 1_0
        raise SpecSyntaxError(line, f"bad rational {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SpecSyntaxError(line, f"bad rational {text!r}") from None


def _int_pair(text: str, line: int) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecSyntaxError(line, f"expected m,n but got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
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


def _parse_phi(value: str, line: int) -> AngleProfile:
    breaks = []
    values = []
    for token in value.split():
        t_text, sep, a_text = token.partition(":")
        if not sep:
            raise SpecSyntaxError(line, f"expected t:angle but got {token!r}")
        breaks.append(_fraction(t_text, line))
        try:
            values.append(parse_angle(a_text))
        except (ValueError, GeometryError) as e:
            raise SpecSyntaxError(line, f"bad angle literal {a_text!r}: {e}") from None
    if len(breaks) < 2:
        raise SpecSyntaxError(line, "need at least two breakpoints")
    try:
        return AngleProfile(tuple(breaks), tuple(values))
    except GeometryError as e:
        raise SpecSemanticError(line, str(e)) from e


def _parse_form(phi: AngleProfile, value: str, line: int) -> InvariantContactForm:
    """The form of phi with the radial profile given on this line."""
    tokens = value.split()
    try:
        if len(tokens) == 1 and ":" not in tokens[0]:
            radial = RadialProfile.constant(
                _fraction(tokens[0], line), (phi.t0, phi.t1)
            )
        else:
            breaks = []
            values = []
            for token in tokens:
                t_text, sep, v_text = token.partition(":")
                if not sep:
                    raise SpecSyntaxError(line, f"expected t:value but got {token!r}")
                breaks.append(_fraction(t_text, line))
                values.append(_fraction(v_text, line))
            radial = RadialProfile.from_values(breaks, values)
        return InvariantContactForm(phi, radial)
    except GeometryError as e:
        raise SpecSemanticError(line, str(e)) from e


def parse_spec(text: str, validate: bool = True) -> CutSpec | InvariantContactForm:
    """Parse a spec file into a CutSpec, or a bare form when no collapse
    vectors are given.

    The contact condition is always checked; with validate=True (the
    default) cut data are additionally required to be valid, so any
    violated cut condition surfaces here with the collapse line number.
    """
    entries = _parse_lines(text)
    if "form.phi.breaks" not in entries:
        raise SpecSyntaxError(0, "missing required key 'form.phi.breaks'")
    phi_line, phi_text = entries["form.phi.breaks"]
    phi = _parse_phi(phi_text, phi_line)

    if "form.domain" in entries:
        dom_line, dom_text = entries["form.domain"]
        parts = dom_text.split(",")
        if len(parts) != 2:
            raise SpecSyntaxError(dom_line, f"expected t0,t1 but got {dom_text!r}")
        lo, hi = (_fraction(p, dom_line) for p in parts)
        if (lo, hi) != (phi.t0, phi.t1):
            raise SpecSemanticError(
                dom_line,
                f"domain {lo},{hi} does not match the profile breakpoints "
                f"{phi.t0},{phi.t1}",
            )

    if "form.radial" in entries:
        rad_line, rad_text = entries["form.radial"]
        form = _parse_form(phi, rad_text, rad_line)
    else:
        try:
            form = InvariantContactForm.unit(phi)
        except GeometryError as e:  # a degenerate phi domain has no unit radial
            raise SpecSemanticError(phi_line, str(e)) from e

    try:
        contact_check(form)
    except GeometryError as e:
        raise SpecSemanticError(phi_line, str(e)) from e

    has0, has1 = "collapse0" in entries, "collapse1" in entries
    if not has0 and not has1:
        return form
    if has0 != has1:
        missing = "collapse1" if has0 else "collapse0"
        line = entries["collapse0" if has0 else "collapse1"][0]
        raise SpecSemanticError(line, f"{missing} is required when the other is given")

    vectors = []
    for key in ("collapse0", "collapse1"):
        line, text_v = entries[key]
        pair = _int_pair(text_v, line)
        try:
            vectors.append((line, Direction(*pair)))
        except GeometryError as e:
            raise SpecSemanticError(line, str(e)) from e

    (line0, v0), (line1, v1) = vectors
    spec = CutSpec(form, v0, v1)
    if validate:
        try:
            require_valid(spec)
        except InvalidCutSpec as e:
            # point at the collapse line of the first violated end
            end = e.violations[0].end
            line = phi_line if end is None else (line0 if end == 0 else line1)
            raise SpecSemanticError(line, str(e)) from e
    return spec


def parse_spec_file(path, validate: bool = True) -> CutSpec | InvariantContactForm:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read(), validate=validate)
