"""The exit-code contract under a fuzz net.

Every subcommand runs in-process on grammar-built specs and on arbitrary
text, in `--format text` and `json`.  Whatever the input, the exit code is
0, 2 or 3 and no exception escapes `main`; a spec error names its line,
line 1 or later also for a missing key; the JSON is strict (no NaN or
Infinity); and the two formats carry the same records.  The specs are
monotone on purpose, so that most of them reach a compute path, and they
use extreme values: turn counts up to 10^400, coordinates, radial values
and breakpoints from 10^-400 to 10^400.

`homotopy` lists one planar zero per odd multiple of pi between its two
profiles, so its partner profile differs from the first by a few turns at
each breakpoint, however many turns the first one sweeps.
"""

import contextlib
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import report_from_json, text_records

from toruscut import (
    Angle,
    Direction,
    SpecSemanticError,
    SpecSyntaxError,
    parse_spec,
)
from toruscut.cli import _BY_NAME, _COMMANDS, main
from toruscut.report import fmt_float

A = Angle
HUGE = 10**400
SUBCOMMANDS = [cmd.name for cmd in _COMMANDS]

small_ints = st.integers(-4, 4)
ints = st.one_of(small_ints, small_ints, st.integers(-HUGE, HUGE))
turn_steps = st.one_of(st.integers(0, 3), st.integers(0, 3), st.integers(0, HUGE))


@st.composite
def rationals(draw, positive=False):
    """a/b * 10^e, with e mostly small and sometimes up to 400 in size."""
    a = draw(st.integers(1 if positive else -99, 99))
    e = draw(st.one_of(st.integers(-2, 2), st.integers(-400, 400)))
    return F(a, draw(st.integers(1, 99))) * F(10) ** e


@st.composite
def directions(draw):
    x, y = draw(st.tuples(ints, ints).filter(lambda v: v != (0, 0)))
    return Direction.reduced(x, y)


@st.composite
def profiles(draw):
    """(breaks, values): ascending breakpoints and monotone angle values."""
    n = draw(st.integers(2, 5))
    breaks = sorted(set(draw(st.lists(rationals(), min_size=n, max_size=n))))
    if len(breaks) < 2 or draw(st.integers(0, 19)) == 0:
        breaks = [F(0)] + breaks[:1] * 2  # equal breakpoints: a spec error
    values = [A(draw(directions()), draw(st.one_of(st.integers(-3, 3), st.integers(-HUGE, HUGE))))]
    for _ in breaks[1:]:
        d = draw(directions())
        step = A(d, values[-1].turns + draw(turn_steps))
        values.append(step if step > values[-1] else A(d, values[-1].turns + 1))
    if draw(st.booleans()):
        values.reverse()
    return breaks, values


def literal(a: Angle) -> str:
    return f"{a.dir.x},{a.dir.y};{a.turns}"


@st.composite
def spec_texts(draw, profile=None):
    """Spec text around a profile: a radial line or none, a domain line or
    none, and collapse lines that make a valid cut, arbitrary ones, or none.
    Now and then the phi line itself is left out, a spec error."""
    breaks, values = profile or draw(profiles())
    lines = ["form.phi.breaks = " + " ".join(f"{t}:{literal(v)}" for t, v in zip(breaks, values))]
    if draw(st.integers(0, 9)) == 0:
        lines = []
    kind = draw(st.sampled_from(["none", "constant", "pieces"]))
    if kind == "constant":
        lines.append(f"form.radial = {draw(rationals(positive=True))}")
    elif kind == "pieces":
        ts = [breaks[0], (breaks[0] + breaks[-1]) / 2, breaks[-1]]
        radial = (f"{t}:{draw(rationals(positive=True))}" for t in ts)
        lines.append("form.radial = " + " ".join(radial))
    if draw(st.integers(0, 4)) == 0:
        lines.append(f"form.domain = {breaks[0]},{breaks[-1]}")
    collapse = draw(st.sampled_from(["valid", "valid", "arbitrary", "none"]))
    if collapse != "none":
        o = 1 if values[-1] > values[0] else -1
        d0, d1 = values[0].dir, values[-1].dir
        v0, v1 = (-d0.y * o, d0.x * o), (d1.y * o, -d1.x * o)
        if collapse == "arbitrary":
            v0, v1 = draw(st.tuples(ints, ints)), draw(st.tuples(ints, ints))
        lines += [f"collapse0 = {v0[0]},{v0[1]}", f"collapse1 = {v1[0]},{v1[1]}"]
    draw(st.randoms()).shuffle(lines)
    return "\n".join(lines) + "\n"


@st.composite
def partners(draw):
    """Two spec texts for `homotopy`: the second profile is the first one
    shifted by whole turns at each breakpoint, by a shift that moves with
    the profile's orientation, so it is monotone too and has the same end
    directions; the two differ by at most a few turns."""
    breaks, values = draw(profiles())
    o = 1 if values[-1] > values[0] else -1
    shifts = [draw(st.integers(-1, 1))]
    for _ in values[1:]:
        shifts.append(shifts[-1] + o * draw(st.integers(0, 1)))
    shifted = [A(v.dir, v.turns + k) for v, k in zip(values, shifts)]
    return draw(spec_texts((breaks, values))), draw(spec_texts((breaks, shifted)))


texts = st.one_of(spec_texts(), spec_texts(), spec_texts(), st.text(max_size=200))
pairs = st.tuples(ints, ints).map(lambda v: f"{v[0]},{v[1]}")


@st.composite
def windows(draw):
    """Two angle literals a few turns apart, at small or 10^400 turns."""
    base = draw(st.one_of(st.integers(-3, 3), st.sampled_from([HUGE - 1, -HUGE])))
    lo = A(draw(directions()), base)
    hi = A(draw(directions()), base + draw(st.integers(0, 2)))
    return [literal(lo), literal(hi)]


def arguments(draw, name, tmp):
    """(argv after the subcommand, {path: spec text}) for one example; the
    spec files are written under tmp."""
    if name == "reproduce-paper":
        return ["--kmax", str(draw(st.integers(0, 1)))], {}
    files = draw(partners()) if name == "homotopy" else [draw(texts)]
    if name == "distinguish":
        files.append(draw(texts))
    specs = {}
    for i, text in enumerate(files):
        path = tmp / f"spec{i}.cut"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        specs[str(path)] = text
    extra = {
        "invariants": lambda: ["--direction", draw(pairs)],
        "distinguish": lambda: ["--mod-gl2z"] if draw(st.booleans()) else [],
        "slice": lambda: ["--eta", draw(pairs), "--window", *draw(windows())],
    }.get(name, list)()
    return [*specs, *extra], specs


def spec_error(text: str, validate: bool):
    """The line error `parse_spec` raises on text, or None."""
    try:
        parse_spec(text, validate=validate)
    except (SpecSyntaxError, SpecSemanticError) as e:
        return e
    return None


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=300)
@given(st.sampled_from(SUBCOMMANDS), st.data())
def test_exit_code_contract(spec_dir, name, data):
    args, specs = arguments(data.draw, name, spec_dir)
    argv = [name, *args]
    code, text, err = run(argv + ["--format", "text"])
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    # the first spec that fails to parse is reported with its line
    for path, spec in specs.items():
        e = spec_error(spec, _BY_NAME[name].validate)
        if e is not None:
            assert e.line >= 1
            assert err == f"error: {path}: line {e.line}: {e.args[0].split(': ', 1)[1]}\n"
            break
    json_code, out, json_err = run(argv + ["--format", "json"])
    assert (json_code, json_err) == (code, err)
    if not out:
        assert not text
        return
    json.loads(out, parse_constant=_not_json)
    report = report_from_json(out)
    assert text.splitlines()[:2] == [
        f"# command: {report.command}", f"# input: sha256:{report.input_digest}"
    ]
    assert text_records(text) == [
        (rec.title, it.key, it.exact, None if it.approx is None else fmt_float(it.approx))
        for rec in report.records
        for it in rec.items
    ]
