"""The benchmark's four workloads: inputs built from a seed, and checks.

Each workload is a fixed cycle of operations; the timed loop runs the
cycle over and over, one call at a time.  Everything that decides an
operation's cost (profile sizes, ladder rungs, subcommands) is the same
for every seed; the seed chooses the values inside (directions, turn
offsets, breakpoints, query points, output formats) and the order of
the cycle.  Every operation carries a check that compares its output
with an answer from `oracle`, which never calls toruscut.

toruscut is imported inside `build`, so that set-up time covers the
import.  The code under test is always reached through module
attributes at call time, so a tracer that replaces those attributes
sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle as orc
from oracle import OAngle

OK = ("ok", "")


def wrong(detail: str):
    return ("wrong", detail)


def fail(detail: str):
    return ("fail", detail)


@dataclass
class Op:
    """One operation: `run` performs it, `check` judges its output.

    check returns ("ok", ""), ("fail", why) for a refused or crashed
    legal request, or ("wrong", why) for an answer that disagrees with
    the oracle.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]


# -- CLI plumbing -----------------------------------------------------------

_LINE = re.compile(r"\bline (\d+)\b")
_APPROX = re.compile(r"^(.*) \(~([^)]*)\)$")


def call_cli(tc, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tc.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_report(text: str, fmt: str):
    """(command, digest, {title: {key: (exact, approx)}}) from either
    rendering, parsed without toruscut's own reader."""
    records: dict[str, dict[str, tuple[str, float | None]]] = {}
    if fmt == "json":
        payload = json.loads(text)
        for rec in payload["records"]:
            records[rec["title"]] = {
                it["key"]: (it["exact"], it["approx"]) for it in rec["items"]
            }
        return payload["command"], payload["input_digest"], records
    lines = text.splitlines()
    command = lines[0].removeprefix("# command: ")
    digest = lines[1].removeprefix("# input: sha256:")
    current = None
    for line in lines[2:]:
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = records.setdefault(line[1:-1], {})
            continue
        key, _, value = line.partition(" = ")
        m = _APPROX.match(value)
        current[key] = (m.group(1), float(m.group(2))) if m else (value, None)
    return command, digest, records


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_check(expect_code: int, fmt: str = "text", digest_text: str | None = None,
              line: int | None = None, verify=None):
    """Check of one CLI call.

    expect_code 0 (or 3 for a `check` that lists violations) parses the
    report, verifies the input digest and hands the records to verify;
    an error code additionally needs `line N` on stderr.
    """

    def check(output):
        code, out, err = output
        if code != expect_code:
            first = (err.strip().splitlines() or ["(no message)"])[0][:160]
            return fail(f"exit {code}, expected {expect_code}: {first}")
        if line is not None:
            m = _LINE.search(err)
            if m is None:
                return fail(f"exit {code} without 'line N': {err.strip()[:160]}")
            if int(m.group(1)) != line:
                return wrong(f"names line {m.group(1)}, expected line {line}")
            return OK
        try:
            _, digest, records = parse_report(out, fmt)
        except (ValueError, KeyError, IndexError, AttributeError) as e:
            return wrong(f"unparsable {fmt} report: {type(e).__name__}")
        if digest_text is not None and digest != sha(digest_text):
            return wrong("input digest differs from sha256 of the input")
        return verify(records) if verify else OK

    return check


def item(records, title, key):
    return records.get(title, {}).get(key, (None, None))


# -- spec generation --------------------------------------------------------


def rand_vec(rng: random.Random, bits: int) -> tuple[int, int]:
    """A primitive integer vector with coordinates of about `bits` bits."""
    lim = (1 << bits) - 1
    while True:
        x, y = rng.randint(-lim, lim), rng.randint(-lim, lim)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1:
            if bits > 8 and max(abs(x), abs(y)).bit_length() < bits - 2:
                continue
            return x, y


def vec_near(rng, u: float, bits: int) -> tuple[int, int]:
    """A primitive vector whose argument is close to u*pi."""
    r = float(1 << (bits - 1)) if bits <= 60 else float(1 << 60)
    scale = 1 << max(0, bits - 61)
    while True:
        a = math.pi * (u + rng.uniform(-1e-3, 1e-3))
        x, y = round(r * math.cos(a)) * scale, round(r * math.sin(a)) * scale
        x += rng.randint(0, scale - 1) if scale > 1 else 0
        if (x, y) != (0, 0):
            return orc.reduce_vec(x, y)


def angle_near(rng, u: float, bits: int) -> OAngle:
    vec = vec_near(rng, u, bits)
    p = float(orc.principal(vec))
    return OAngle(vec, round((u - p) / 2))


def grid_breaks(rng, count: int, den: int) -> list[Fraction]:
    """count sorted distinct rationals from 0 to 1 on the grid 1/den."""
    inner = sorted(rng.sample(range(1, den), count - 2))
    return [Fraction(0)] + [Fraction(i, den) for i in inner] + [Fraction(1)]


def monotone_values(rng, first: OAngle, last: OAngle, count: int, bits: int) -> list[OAngle]:
    """first, count-2 interior angles strictly between, last.

    Short sweeps may not fit that many distinct angles at this bit size;
    every 100 failed draws drop one interior point.
    """
    lo, hi = float(first.value()), float(last.value())
    s = orc.sign_of(orc.diff(last, first))
    for attempt in range(100 * (count - 1)):
        us = sorted((rng.uniform(lo, hi) for _ in range(count - 2 - attempt // 100)), reverse=hi < lo)
        chain = [first, *(angle_near(rng, u, bits) for u in us), last]
        if all(orc.sign_of(orc.diff(b, a)) == s and abs(float(orc.total(orc.diff(b, a)))) > 1e-6
               for a, b in zip(chain, chain[1:])):
            return chain
    return [first, last]


@dataclass
class Spec:
    """A generated spec file together with the data the oracle needs."""

    name: str
    text: str
    breaks: list = field(default_factory=list)
    values: list = field(default_factory=list)
    v0: tuple | None = None
    v1: tuple | None = None
    path: str = ""

    @property
    def orientation(self) -> int:
        return orc.sign_of(orc.diff(self.values[-1], self.values[0]))


def spec_text(breaks, values, v0=None, v1=None, radial=None, header="") -> str:
    lines = [f"# {header}"] if header else []
    lines.append("form.phi.breaks = " + " ".join(f"{t}:{a.literal()}" for t, a in zip(breaks, values)))
    if radial:
        lines.append(f"form.radial = {radial}")
    if v0 is not None:
        lines.append(f"collapse0 = {v0[0]},{v0[1]}")
        lines.append(f"collapse1 = {v1[0]},{v1[1]}")
    return "\n".join(lines) + "\n"


def collapse_ends(v0, v1, s: int, turns0: int, extra: int) -> tuple[OAngle, OAngle]:
    """Boundary angles making v0, v1 valid collapse vectors for a profile
    of orientation s: phi(0) = Arg(v0) - s pi/2, phi(1) = Arg(v1) + s pi/2,
    lifted by the fewest turns that make the sweep nonzero, plus extra."""
    first = OAngle((s * v0[1], -s * v0[0]), turns0)
    end_vec = (-s * v1[1], s * v1[0])
    n = turns0 - 2 * s
    while orc.sign_of(orc.diff(OAngle(end_vec, n), first)) != s:
        n += s
    return first, OAngle(end_vec, n + s * extra)


def gen_cut(rng, name, bits, collapse_bits=None) -> Spec:
    s = 1 if rng.random() < 0.8 else -1
    v0 = rand_vec(rng, collapse_bits or bits)
    v1 = rand_vec(rng, bits if collapse_bits is None else 8)
    first, last = collapse_ends(v0, v1, s, rng.choice((0, 0, 1, -1)), rng.randint(0, 3))
    count = rng.randint(2, 8)
    breaks = grid_breaks(rng, count, 8)
    values = monotone_values(rng, first, last, count, min(bits, 64))
    radial = rng.choice((None, "1", "3/2", "0:3/2 1/2:1 1:2"))
    text = spec_text(breaks, values, v0, v1, radial, header=f"{name}: {bits}-bit cut datum")
    return Spec(name, text, breaks, values, v0, v1)


def gen_form(rng, name, bits, first=None, last=None) -> Spec:
    if first is None:
        first = angle_near(rng, rng.uniform(-1, 1), bits)
        last = angle_near(rng, float(first.value()) + rng.choice((1, -1)) * rng.uniform(0.3, 7), bits)
    count = rng.randint(2, 8)
    breaks = grid_breaks(rng, count, 8)
    values = monotone_values(rng, first, last, count, bits)
    return Spec(name, spec_text(breaks, values, header=f"{name}: bare form"), breaks, values)


# -- workload: cli-mix ----------------------------------------------------------

STANDARD = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]


def _cut_ops(tc, rng, spec: Spec) -> list[Op]:
    ops = []

    def add(sub, extra, verify):
        fmt = rng.choice(("text", "json"))
        argv = [sub, spec.path, *extra, "--format", fmt]
        ops.append(Op(f"cli {sub} {spec.name} {' '.join(extra)} --format {fmt}".replace("  ", " "),
                      lambda argv=argv: call_cli(tc, argv),
                      cli_check(0, fmt, spec.text, verify=verify)))

    def v_check(rec):
        want = {"valid": "yes", "collapse0": "%d,%d" % spec.v0, "collapse1": "%d,%d" % spec.v1}
        got = {k: item(rec, "cut-validation", k)[0] for k in want}
        return OK if got == want else wrong(f"check reported {got}, expected {want}")

    def c_check(rec):
        kind, x, y = orc.gl2z_lens(spec.v0, spec.v1)
        got_kind = item(rec, "classification", "kind")[0]
        nf = item(rec, "classification", "normal-form")[0]
        want_nf = "-" if kind == "S1xS2" else f"{x},{y}"
        if (got_kind, nf) != (kind, want_nf):
            return wrong(f"cut gave {got_kind} {nf}, expected {kind} {want_nf}")
        return OK

    xi = rng.choice(STANDARD + [rand_vec(rng, 4)])

    def i_check(rec):
        count = orc.ray_count(OAngle(xi), *orc.ordered(spec.values))
        got = item(rec, "invariants", f"cc({xi[0]},{xi[1]})")[0]
        return OK if got == str(count) else wrong(f"cc{xi} = {got}, expected {count}")

    def p_check(rec):
        q, q1 = orc.count_summary(spec.values)
        sweep = float(orc.swept(spec.values)) * math.pi
        got = (item(rec, "cc-profile", "min")[0], item(rec, "cc-profile", "max")[0])
        if got != (str(q), str(q1)):
            return wrong(f"profile min/max {got}, expected {(q, q1)}")
        approx = item(rec, "cc-profile", "swept")[1]
        if approx is None or not orc.close(approx, sweep):
            return wrong(f"swept ~{approx}, expected {sweep:.12g}")
        return OK

    def o_check(rec):
        disk = orc.swept(spec.values) > 1
        got = item(rec, "overtwisted", "overtwisted")[0]
        if got != ("disk-found" if disk else "none-found"):
            return wrong(f"overtwisted = {got}, expected disk={disk}")
        if disk:
            t_star = orc.solve(spec.breaks, spec.values, shift_pi(spec.values[0], spec.orientation))
            approx = item(rec, "overtwisted", "disk-t*")[1]
            if approx is None or not orc.close(approx, float(t_star)):
                return wrong(f"disk t* ~{approx}, expected {float(t_star):.12g}")
        return OK

    add("check", [], v_check)
    add("cut", [], c_check)
    add("invariants", ["--direction", f"{xi[0]},{xi[1]}"], i_check)
    add("profile", [], p_check)
    add("overtwisted", [], o_check)
    return ops


def shift_pi(a: OAngle, s: int) -> OAngle:
    """a + s*pi for s = +1 or -1: the opposite vector, one turn up (down)
    when the principal argument crosses the branch cut at pi."""
    if s > 0:
        return OAngle(a.neg_vec(), a.turns + (1 if a.p > 0 else 0))
    return OAngle(a.neg_vec(), a.turns - (1 if a.p <= 0 else 0))


def _distinguish_op(tc, rng, a: Spec, b: Spec, fixed: bool) -> Op:
    fmt = rng.choice(("text", "json"))
    argv = ["distinguish", a.path, b.path, "--format", fmt] + ([] if fixed else ["--mod-gl2z"])
    def verify(rec):
        expect = orc.distinguishable(a.values, b.values, fixed)
        la, ha = orc.ordered(a.values)
        lb, hb = orc.ordered(b.values)
        res = item(rec, "distinguish", "result")[0]
        if res != ("distinguished" if expect else "indistinguishable"):
            return wrong(f"distinguish said {res}, expected distinguished={expect}")
        if not expect:
            return OK
        for key, cnt, neg in (("+", "counts+", False), ("-", "counts-", True)):
            xi_s = item(rec, "distinguish", "xi" + key)[0]
            if xi_s is None:
                if fixed:
                    return wrong(f"missing xi{key}")
                continue
            xi = tuple(int(v) for v in xi_s.split(","))
            ca = orc.ray_count(OAngle(xi), la, ha)
            xb = (-xi[0], -xi[1]) if neg else xi
            cb = orc.ray_count(OAngle(xb), lb, hb)
            want = f"{ca} vs {cb}"
            got = item(rec, "distinguish", cnt)[0]
            if got != want or ca == cb:
                return wrong(f"witness xi{key}={xi_s}: {got}, oracle {want}")
        return OK

    return Op(f"cli distinguish {a.name} {b.name}{'' if fixed else ' --mod-gl2z'} --format {fmt}",
              lambda: call_cli(tc, argv),
              cli_check(0, fmt, a.text + "\x00" + b.text, verify=verify))


def _homotopy_op(tc, rng, a: Spec, b: Spec) -> Op:
    fmt = rng.choice(("text", "json"))
    argv = ["homotopy", a.path, b.path, "--format", fmt]
    def verify(rec):
        zeros = orc.planar_zeros(a.breaks, a.values, b.breaks, b.values)
        got = item(rec, "homotopy", "planar-zeros")[0]
        if got != str(len(zeros)):
            return wrong(f"{got} planar zeros, oracle {len(zeros)}")
        for i, z in enumerate(zeros):
            approx = item(rec, "homotopy", f"zero{i}")[1]
            if approx is None or not orc.close(approx, float(z)):
                return wrong(f"zero{i} at ~{approx}, oracle {float(z):.12g}")
        return OK

    return Op(f"cli homotopy {a.name} {b.name} --format {fmt}", lambda: call_cli(tc, argv),
              cli_check(0, fmt, a.text + "\x00" + b.text, verify=verify))


def gen_line(rng, name, turns: int) -> Spec:
    """phi(u) = pi u on [-turns, turns], breakpoints on a random subset of
    the integers (values stay exact multiples of pi)."""
    us = sorted({-turns, turns, *rng.sample(range(-turns + 1, turns), turns)})
    breaks = [Fraction(u) for u in us]
    values = [OAngle.of_pi(Fraction(u)) for u in us]
    return Spec(name, spec_text(breaks, values, header=f"{name}: line form"), breaks, values)


def _slice_op(tc, rng, line: Spec) -> Op:
    eta = rng.choice(STANDARD)
    lo_v, hi_v = line.values[0], line.values[-1]
    w0 = OAngle.of_pi(Fraction(rng.randint(-4 * 8, 0), 4))
    w1 = OAngle.of_pi(Fraction(rng.randint(1, 4 * 8), 4))
    fmt = rng.choice(("text", "json"))
    argv = ["slice", line.path, "--eta", f"{eta[0]},{eta[1]}", "--window", w0.literal(), w1.literal(), "--format", fmt]
    def verify(rec):
        lo = max(w0.value(), lo_v.value())
        hi = min(w1.value(), hi_v.value())
        start = orc.principal(eta) - Fraction(1, 2)
        count = max(0, math.floor((hi - start - 1) / 2) - math.ceil((lo - start) / 2) + 1)
        got = item(rec, "slices", "count")[0]
        if got != str(count):
            return wrong(f"{got} slices, oracle {count}")
        for i in range(count):
            if (item(rec, f"slice{i}", "kind")[0], item(rec, f"slice{i}", "valid")[0],
                    item(rec, f"slice{i}", "overtwisted")[0]) != ("S1xS2", "yes", "none-found"):
                return wrong(f"slice{i} is not a valid tight S1xS2 piece")
        return OK

    return Op(f"cli slice {line.name} --eta {eta[0]},{eta[1]} --window {w0.literal()} {w1.literal()} --format {fmt}",
              lambda: call_cli(tc, argv), cli_check(0, fmt, line.text, verify=verify))


def _form_check_op(tc, rng, form: Spec) -> Op:
    fmt = rng.choice(("text", "json"))
    argv = ["check", form.path, "--format", fmt]
    def verify(rec):
        sweep = float(orc.total(orc.diff(form.values[-1], form.values[0]))) * math.pi
        orient = item(rec, "contact-check", "orientation")[0]
        approx = item(rec, "contact-check", "sweep")[1]
        if orient != f"{form.orientation:+d}" or approx is None or not orc.close(approx, sweep):
            return wrong(f"check gave orientation {orient}, sweep ~{approx}; oracle {form.orientation:+d}, {sweep:.12g}")
        return OK

    return Op(f"cli check {form.name} --format {fmt}", lambda: call_cli(tc, argv),
              cli_check(0, fmt, form.text, verify=verify))


def _malformed(rng) -> list[tuple[str, str, int, int, list[str]]]:
    """(name, text, exit code, line, subcommands) for malformed specs.

    Grammar errors exit 2, semantic errors exit 3; both must name the
    offending line.  `check` lists cut violations as a report instead of
    an error, so the wrong-sign spec is not sent to it.
    """
    v0 = rand_vec(rng, 8)
    v1 = rand_vec(rng, 8)
    first, last = collapse_ends(v0, v1, 1, 0, rng.randint(0, 2))
    good = f"form.phi.breaks = 0:{first.literal()} 1:{last.literal()}"
    coll = f"collapse0 = {v0[0]},{v0[1]}\ncollapse1 = {v1[0]},{v1[1]}\n"
    wrong_first = OAngle(first.neg_vec(), first.turns)
    wrong_last = last
    while orc.sign_of(orc.diff(wrong_last, wrong_first)) <= 0:
        wrong_last = OAngle(wrong_last.vec, wrong_last.turns + 1)
    n = rng.randint(2, 9)
    return [
        ("bad-rational", f"# malformed\n{good.replace(' 1:', f' {n}/0:')}\n{coll}", 2, 2, ["check", "cut", "profile"]),
        ("unknown-key", f"{good}\nform.twist = 1\n{coll}", 2, 2, ["cut", "invariants"]),
        ("bad-literal", f"form.phi.breaks = 0:{first.literal()} 1:{n}\n{coll}", 2, 1, ["check", "overtwisted"]),
        ("no-equals", f"{good}\n{coll}collapse2 {n}\n", 2, 4, ["profile"]),
        ("wrong-sign", f"form.phi.breaks = 0:{wrong_first.literal()} 1:{wrong_last.literal()}\n{coll}", 3, 2,
         ["cut", "profile", "overtwisted"]),
        ("equal-breakpoints",
         f"form.phi.breaks = 0:{first.literal()} 0:{first.literal()} 1:{last.literal()}\n{coll}", 3, 1,
         ["check", "cut"]),
        ("non-monotone", f"form.phi.breaks = 0:1,0 1/2:0,1;1 1:1,1\n{coll}", 3, 1, ["check", "profile"]),
        ("non-primitive", f"{good}\ncollapse0 = {2 * n},{4 * n}\ncollapse1 = {v1[0]},{v1[1]}\n", 3, 2,
         ["cut", "invariants"]),
    ]


def build_cli_mix(tc, rng, workdir: Path) -> list[Op]:
    """A corpus of small spec files and the CLI calls made on them."""
    cuts = [gen_cut(rng, f"cut8-{i}", 8) for i in range(31)]
    cuts += [gen_cut(rng, f"cut64-{i}", 64) for i in range(7)]
    cuts += [gen_cut(rng, f"cut1400-{i}", 8, collapse_bits=1400) for i in range(2)]
    forms = [gen_form(rng, f"form{b}-{i}", b) for i, b in enumerate([8] * 6 + [64] * 2)]
    pairs = []
    for i, bits in enumerate([8] * 5 + [64]):
        first = angle_near(rng, rng.uniform(-1, 1), bits)
        last = angle_near(rng, float(first.value()) + rng.uniform(1, 6), bits)
        a = gen_form(rng, f"hom{bits}-{i}a", bits, first, last)
        b_last = OAngle(last.vec, last.turns + rng.choice((1, -1)))
        if orc.sign_of(orc.diff(b_last, first)) <= 0:
            b_last = OAngle(last.vec, last.turns + 1)
        b = gen_form(rng, f"hom{bits}-{i}b", bits, first, b_last)
        pairs.append((a, b))
    lines = [gen_line(rng, f"line-{i}", rng.randint(3, 6)) for i in range(4)]
    bad = _malformed(rng)
    bad_specs = [Spec(f"bad-{name}", text) for name, text, *_ in bad]

    every = cuts + forms + [s for p in pairs for s in p] + lines + bad_specs
    for spec in every:
        spec.path = str(workdir / f"{spec.name}.cut")
        Path(spec.path).write_text(spec.text, encoding="utf-8")

    ops: list[Op] = []
    for spec in cuts:
        ops += _cut_ops(tc, rng, spec)
    for _ in range(12):
        a, b = rng.sample(cuts, 2)
        ops.append(_distinguish_op(tc, rng, a, b, True))
        ops.append(_distinguish_op(tc, rng, a, b, False))
    ops += [_form_check_op(tc, rng, f) for f in forms]
    ops += [_homotopy_op(tc, rng, a, b) for a, b in pairs for _ in range(2)]
    ops += [_slice_op(tc, rng, ln) for ln in lines for _ in range(2)]
    for (name, _, code, line, subs), spec in zip(bad, bad_specs):
        for sub in subs:
            fmt = rng.choice(("text", "json"))
            extra = ["--direction", "1,0"] if sub == "invariants" else []
            argv = [sub, spec.path, *extra, "--format", fmt]
            ops.append(Op(f"cli {sub} {spec.name} {' '.join(extra + ['--format', fmt])}",
                          lambda argv=argv: call_cli(tc, argv), cli_check(code, line=line)))
    rng.shuffle(ops)
    return ops


# -- library plumbing ---------------------------------------------------------


def to_angle(tc, a: OAngle):
    return tc.angles.Angle(tc.angles.Direction(*a.vec), a.turns)


def same_angle(got, want: OAngle) -> bool:
    return (got.dir.x, got.dir.y, got.turns) == (*want.vec, want.turns)


def unit_form(tc, breaks, values: list[OAngle]):
    phi = tc.forms.AngleProfile(tuple(breaks), tuple(to_angle(tc, v) for v in values))
    return tc.forms.InvariantContactForm.unit(phi)


def point_t(pt):
    """A ProfilePoint's parameter: exact when the program has it exactly."""
    exact = pt.t_fraction()
    return exact if exact is not None else pt.t_float()


def t_matches(got, want) -> bool:
    if isinstance(got, Fraction) and isinstance(want, Fraction):
        return got == want
    return orc.close(float(got), float(want))


def check_hits(got, want, what: str):
    """got: [(j, t)] from the program, want: the oracle's."""
    if len(got) != len(want):
        return wrong(f"{what}: {len(got)} hits, oracle {len(want)}")
    for (gj, gt), (wj, wt) in zip(got, want):
        if gj != wj or not t_matches(gt, wt):
            return wrong(f"{what}: hit j={gj} at {gt}, oracle j={wj} at {wt}")
    return OK


# -- workload: dense-profile ----------------------------------------------------

# etas with exact (axis/diagonal) lattices and with irrational ones
ETAS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -3)]
TURNS = (1, 10**3, 10**6, 10**12)


def dense_data(rng, n: int, k: int):
    """n breakpoints on an irregular rational grid; values exact multiples
    of pi/4 climbing from about k turns, between pi/4 and 9pi/4 per piece."""
    gaps = [rng.randint(1, 3) for _ in range(n - 1)]
    total, acc, breaks = sum(gaps), 0, [Fraction(0)]
    for g in gaps:
        acc += g
        breaks.append(Fraction(acc, total))
    r = [2 * k + Fraction(rng.randint(0, 7), 4)]
    for _ in range(n - 1):
        r.append(r[-1] + Fraction(rng.randint(1, 9), 4))
    return breaks, [OAngle.of_pi(x) for x in r]


def _reduce_op(tc, form, breaks, values, eta, label) -> Op:
    def run():
        return [(c.index, point_t(c.point)) for c in tc.cuts.contact_reduce(form, eta)]

    def check(got):
        base = OAngle((-eta[1], eta[0]))
        return check_hits(got, orc.lattice_hits(breaks, values, base), label)

    return Op(label, run, check)


def _line_slice_op(tc, rng, line_form, turns: int) -> Op:
    eta = rng.choice(STANDARD)
    w0 = OAngle.of_pi(Fraction(rng.randint(-8 * turns, -4 * turns), 4))
    w1 = OAngle.of_pi(Fraction(rng.randint(4 * turns, 8 * turns), 4))
    window = (to_angle(tc, w0), to_angle(tc, w1))

    def run():
        pieces = tc.cuts.slice_by_ray(line_form, eta, window)
        return [(p.form.phi.values[0], p.form.phi.values[-1]) for p in pieces]

    def check(got):
        lo = max(w0.value(), -turns)
        hi = min(w1.value(), turns)
        start = orc.principal(eta) - Fraction(1, 2)
        js = range(math.ceil((lo - start) / 2), math.floor((hi - start - 1) / 2) + 1)
        want = [(OAngle.of_pi(start + 2 * j), OAngle.of_pi(start + 2 * j + 1)) for j in js]
        if len(got) != len(want):
            return wrong(f"{len(got)} slices, oracle {len(want)}")
        for (g0, g1), (w0_, w1_) in zip(got, want):
            if not (same_angle(g0, w0_) and same_angle(g1, w1_)):
                return wrong(f"slice values {g0}..{g1}, oracle {w0_.literal()}..{w1_.literal()}")
        return OK

    return Op(f"slice_by_ray(rotating_line_form({turns}), {eta})", run, check)


def _point_op(tc, rng, form, breaks, values, alpha, k: int, label) -> Op:
    """A batch of point queries on one dense profile and on alpha_form(k)."""
    ref = OAngle((1, 0))
    lo, hi = orc.ordered(values)
    ts = [Fraction(rng.randint(1, 9999), 10000) for _ in range(4)]
    moments = [(rng.choice(ETAS), t) for t in ts]
    compares = []
    for t in ts:
        x = orc.value_at(breaks, values, t, ref)
        compares.append((t, OAngle.of_pi(Fraction(math.floor(x * 4) + rng.randint(-1, 2), 4))))
    i = rng.randrange(len(breaks))
    compares.append((breaks[i], values[i]))  # an exact tie at a breakpoint
    lo_r, hi_r = lo.value(), hi.value()
    # solve scans segments up to the hit: targets at fixed fractions of the
    # range (plus a little jitter) keep the work the same for every seed
    solves = [OAngle.of_pi(Fraction(math.floor(4 * (lo_r + (hi_r - lo_r) * (f + rng.uniform(-0.02, 0.02)))), 4))
              for f in (0.25, 0.5, 0.75)]
    xis = rng.sample(STANDARD, 2)
    alpha_t = Fraction(rng.randint(1, 9999), 10000)
    alpha_eta = rng.choice(ETAS)
    alpha_vals = [OAngle.of_pi(Fraction(0)), OAngle.of_pi(Fraction(4 * k + 1, 2))]
    phi = form.phi
    comp_args = [(t, to_angle(tc, a)) for t, a in compares]
    solve_args = [to_angle(tc, a) for a in solves]

    def run():
        inv, fm = tc.invariants, tc.forms
        ot = inv.detect_overtwisted(form)
        a_ot = inv.detect_overtwisted(alpha)
        prof = inv.cc_profile(form)
        return (
            [fm.moment_sign(form, eta, t) for eta, t in moments],
            [phi.compare_at(t, a) for t, a in comp_args],
            [point_t(phi.solve(a)) for a in solve_args],
            [inv.cc_count(form, xi) for xi in xis],
            (prof.min_count, prof.max_count),
            None if ot is None else point_t(ot.point),
            inv.cc_count(alpha, (-1, 1)),
            None if a_ot is None else point_t(a_ot.point),
            fm.moment_sign(alpha, alpha_eta, alpha_t),
        )

    def check(got):
        want = (
            [orc.moment_sign(breaks, values, eta, t) for eta, t in moments],
            [(x > 0) - (x < 0) for x in (orc.value_at(breaks, values, t, a) for t, a in compares)],
            [orc.solve(breaks, values, a) for a in solves],
            [orc.ray_count(OAngle(xi), lo, hi) for xi in xis],
            orc.count_summary(values),
            orc.solve(breaks, values, shift_pi(values[0], 1)) if orc.swept(values) > 1 else None,
            k,
            Fraction(2, 4 * k + 1),
            orc.moment_sign([Fraction(0), Fraction(1)], alpha_vals, alpha_eta, alpha_t),
        )
        names = ("moment_sign", "compare_at", "solve", "cc_count", "cc_profile",
                 "detect_overtwisted", "cc_count(alpha)", "alpha t*", "moment_sign(alpha)")
        for name, g, w in zip(names, got, want):
            if name in ("solve", "detect_overtwisted", "alpha t*"):
                gs, ws = (g, w) if isinstance(g, list) else ([g], [w])
                if any((a is None) != (b is None) or (a is not None and not t_matches(a, b))
                       for a, b in zip(gs, ws)):
                    return wrong(f"{name}: {g}, oracle {w}")
            elif g != w:
                return wrong(f"{name}: {g}, oracle {w}")
        return OK

    return Op(label, run, check)


def build_dense_profile(tc, rng, workdir) -> list[Op]:
    """Enumeration and point queries on profiles with many breakpoints.

    One cycle: eleven point-query batches (three at n = 10, seven at
    n = 100, one at n = 300), contact_reduce three times at n = 10, twice
    at n = 100 and three times at n = 300, and one slice of a long line
    form.  The seven n = 100 batches hold the median operation and the
    three n = 300 enumerations the slowest tenth, so op_p50_ms reads the
    point queries and op_p90_ms the quadratic enumeration.
    """
    profiles = {}
    for n in (10, 100, 300):
        for k in TURNS:
            breaks, values = dense_data(rng, n, k)
            profiles[n, k] = (unit_form(tc, breaks, values), breaks, values)
    alphas = {k: tc.models.alpha_form(k) for k in TURNS}
    line_turns = 60
    line_form = tc.models.rotating_line_form(line_turns)

    ops = []
    for i, n in enumerate((10,) * 3 + (100,) * 7 + (300,)):
        k = TURNS[i % 4]
        form, breaks, values = profiles[n, k]
        ops.append(_point_op(tc, rng, form, breaks, values, alphas[k], k,
                             f"point queries n={n} k={k}"))
    for n, etas in ((10, ETAS[:3]), (100, (ETAS[2], ETAS[4])), (300, (ETAS[0], ETAS[3], ETAS[5]))):
        for i, eta in enumerate(etas):
            k = TURNS[(i + n) % 4]
            form, breaks, values = profiles[n, k]
            ops.append(_reduce_op(tc, form, breaks, values, eta, f"contact_reduce n={n} k={k} eta={eta}"))
    ops.append(_line_slice_op(tc, rng, line_form, line_turns))
    rng.shuffle(ops)
    return ops


# -- workload: exact-ties -----------------------------------------------------

LADDER = ((3, 5), (5, 7), (7, 11), (11, 13), (13, 17), (17, 19), (19, 23),
          (23, 29), (29, 31), (31, 37), (41, 43))
# inner directions of norm 5 and their turn offsets; all four cost alike,
# so the seed changes the values but not the work
VARIANTS = (((2, 1), (1, 2), 0, 1), ((1, 2), (2, 1), 1, 0),
            ((2, 1), (1, 2), 1, 0), ((1, 2), (2, 1), 0, 1))
# tie batches cost about as much as the middle homotopy rungs, so the
# median operation lies inside a block of like-sized operations
TIE_SIZES = (136, 140, 144, 148, 152, 156, 160, 164)


def homotopy_pair(p: int, q: int, variant):
    """Three-breakpoint profiles 0 -> inner -> pi/2 + 2pi, inner values at
    t = 1/p and t = 1/q, as (breaks, values) pairs for the oracle."""
    za, zb, ma, mb = variant
    first, last = OAngle((1, 0)), OAngle((0, 1), 1)
    a = ([Fraction(0), Fraction(1, p), Fraction(1)], [first, OAngle(za, ma), last])
    b = ([Fraction(0), Fraction(1, q), Fraction(1)], [first, OAngle(zb, mb), last])
    return a, b


def _homotopy_lib_op(tc, a, b, label) -> Op:
    fa, fb = unit_form(tc, *a), unit_form(tc, *b)

    def run():
        cert = tc.invariants.homotopy_certificate(fa, fb)
        return [z.point.t_float() for z in cert.zeros], len(cert.zero_intervals)

    def check(got):
        zeros, intervals = got
        want = orc.planar_zeros(a[0], a[1], b[0], b[1])
        if intervals or len(zeros) != len(want):
            return wrong(f"{len(zeros)} zeros and {intervals} intervals, oracle {len(want)} zeros")
        for g, w in zip(zeros, want):
            if not orc.close(g, float(w)):
                return wrong(f"zero at {g!r}, oracle {float(w)!r}")
        return OK

    return Op(label, run, check)


def gauss_pow(w: tuple[int, int], n: int) -> tuple[int, int]:
    x, y = 1, 0
    for _ in range(n):
        x, y = x * w[0] - y * w[1], x * w[1] + y * w[0]
    return x, y


def multiple_of(w: tuple[int, int], n: int, extra: tuple[int, int] = (1, 0)) -> OAngle:
    """The exact angle n*Arg(w) + Arg(extra), for Arg(w), Arg(extra) small."""
    x, y = gauss_pow(w, n)
    x, y = x * extra[0] - y * extra[1], x * extra[1] + y * extra[0]
    vec = orc.reduce_vec(x, y)
    total = (n * math.atan2(w[1], w[0]) + math.atan2(extra[1], extra[0])) / math.pi
    return OAngle(vec, round((total - float(orc.principal(vec))) / 2))


def _tie_op(tc, rng, q: int) -> Op:
    """compare_at on phi = q Arg(w) t at t = p/q: exact ties with the
    target p Arg(w), and targets a hair above it."""
    w = rng.choice(((2, 1), (1, 2)))
    sweep = multiple_of(w, q)
    form = unit_form(tc, [Fraction(0), Fraction(1)], [OAngle((1, 0)), sweep])
    queries = []
    coprime = [p for p in range(12 * q // 25, 13 * q // 25) if math.gcd(p, q) == 1]
    for p in rng.sample(coprime, 2):
        queries.append((Fraction(p, q), multiple_of(w, p), 0))
        queries.append((Fraction(p, q), multiple_of(w, p, (10**6, 1)), -1))
    args = [(t, to_angle(tc, a)) for t, a, _ in queries]
    want = [s for _, _, s in queries]
    phi = form.phi

    def run():
        return [phi.compare_at(t, a) for t, a in args]

    def check(got):
        return OK if got == want else wrong(f"compare_at signs {got}, oracle {want}")

    return Op(f"compare_at ties q={q} w={w}", run, check)


def build_exact_ties(tc, rng, workdir) -> list[Op]:
    """One cycle: every homotopy rung once, 41/43 in all four variants,
    and eight tie batches; the seed picks the variants and tie points."""
    ops = []
    for p, q in LADDER:
        variants = VARIANTS if (p, q) == (41, 43) else [rng.choice(VARIANTS)]
        for v in variants:
            a, b = homotopy_pair(p, q, v)
            ops.append(_homotopy_lib_op(tc, a, b, f"homotopy 1/{p} vs 1/{q} inner {v[0]},{v[1]} turns {v[2]},{v[3]}"))
    ops += [_tie_op(tc, rng, q) for q in TIE_SIZES]
    rng.shuffle(ops)
    return ops


# -- workload: paper-families -----------------------------------------------------

KMAX = 20
LENS_TABLE = ((1, 1), (2, 1), (1, 2), (2, 3))


def alpha_values(k: int) -> list[OAngle]:
    return [OAngle.of_pi(Fraction(0)), OAngle.of_pi(Fraction(4 * k + 1, 2))]


def lens_values(k: int, l: int, j: int) -> list[OAngle]:
    vec = orc.reduce_vec(k, l)
    theta = OAngle(vec) if orc.sign_of(orc.diff(OAngle(vec), OAngle((1, 0)))) > 0 else OAngle((-vec[0], -vec[1]))
    return [OAngle((1, 0)), OAngle(theta.vec, theta.turns + j)]


def _reproduce_check(kmax: int):
    def verify(rec):
        for k in range(kmax + 1):
            r = rec.get(f"alpha[k={k}]", {})
            got = {key: r.get(key, (None,))[0] for key in
                   ("kind", "cc(-1,1)", "cc(1,-1)", "profile-min", "profile-max", "overtwisted", "disk-t*", "tag")}
            want = {"kind": "Sphere3", "cc(-1,1)": str(k), "cc(1,-1)": str(k),
                    "profile-min": str(k), "profile-max": str(k + 1),
                    "overtwisted": "disk-found" if k else "none-found",
                    "disk-t*": str(Fraction(2, 4 * k + 1)) if k else None,
                    "tag": None if k else "standard-tight"}
            if got != want:
                return wrong(f"alpha[k={k}]: {got}, closed form {want}")
        for k in range(1, kmax + 1):
            for l in range(k + 1, kmax + 1):
                r = rec.get(f"distinguish[k={k},l={l}]", {})
                fixed = orc.distinguishable(alpha_values(k), alpha_values(l), True)
                got = (r.get("fixed-action", (None,))[0], r.get("modulo-GL2Z", (None,))[0])
                want = ("distinguished" if fixed else "indistinguishable", "distinguished")
                if got != want:
                    return wrong(f"distinguish[k={k},l={l}]: {got}, oracle {want}")
        for k, l in LENS_TABLE:
            kind = orc.gl2z_lens((0, 1), orc.reduce_vec(l, -k))[0]
            for j in (1, 2, 3):
                r = rec.get(f"lens[k={k},l={l},j={j}]", {})
                got = tuple(r.get(key, (None,))[0] for key in ("kind", "profile-min", "profile-max"))
                if got != (kind, str(j), str(j + 1)):
                    return wrong(f"lens[k={k},l={l},j={j}]: {got}, oracle {(kind, j, j + 1)}")
        r = rec.get("line-slices", {})
        got = [r.get(f"slice{i}", (None,))[0] for i in range(3)]
        if r.get("count", (None,))[0] != "3" or got != ["kind S1xS2, overtwisted none-found"] * 3:
            return wrong(f"line slices {r}")
        return OK

    return verify


def _sympl_op(tc, spec, values, v0, v1, label) -> Op:
    def run():
        rep = tc.symplectization.check_cut_symplectization_commute(spec)
        return rep.passed, [row.detail for row in rep.rows]

    def check(got):
        passed, details = got
        lo, hi = orc.ordered(values)
        circles = [orc.half_lattice_count(lo, hi, OAngle((-v[1], v[0]))) for v in (v0, v1)]
        if not passed or len(details) != 5:
            return wrong(f"commutation check failed: {details}")
        for side, n in enumerate(circles):
            if not details[2 * side + 1].startswith(f"{n} reduced circles"):
                return wrong(f"side {side}: {details[2 * side + 1]!r}, oracle {n} reduced circles")
        return OK

    return Op(label, run, check)


def _distinguish_sweep_op(tc, k: int) -> Op:
    ls = [l for l in range(1, KMAX + 1) if l != k]
    specs = {l: tc.models.alpha_cutspec(l) for l in [k, *ls]}
    vals = {l: alpha_values(l) for l in specs}

    def run():
        inv = tc.invariants
        out = []
        for l in ls:
            for mode in (inv.MODE_FIXED, inv.MODE_GL2Z):
                w = inv.distinguish(specs[k], specs[l], mode)
                out.append(None if w is None else (w.xi_plus.as_tuple(), w.counts_plus,
                                                   None if w.xi_minus is None else w.xi_minus.as_tuple(),
                                                   w.counts_minus))
        return out

    def check(got):
        lo_k, hi_k = orc.ordered(vals[k])
        for i, w in enumerate(got):
            l, fixed = ls[i // 2], i % 2 == 0
            if (w is not None) != orc.distinguishable(vals[k], vals[l], fixed):
                return wrong(f"distinguish({k},{l}, fixed={fixed}) = {w}")
            if w is None:
                continue
            lo_l, hi_l = orc.ordered(vals[l])
            xi, cp, xm, cm = w
            want_p = (orc.ray_count(OAngle(xi), lo_k, hi_k), orc.ray_count(OAngle(xi), lo_l, hi_l))
            if cp != want_p or want_p[0] == want_p[1]:
                return wrong(f"distinguish({k},{l}): counts+ {cp} at {xi}, oracle {want_p}")
            if fixed:
                want_m = (orc.ray_count(OAngle(xm), lo_k, hi_k),
                          orc.ray_count(OAngle((-xm[0], -xm[1])), lo_l, hi_l))
                if cm != want_m or want_m[0] == want_m[1]:
                    return wrong(f"distinguish({k},{l}): counts- {cm} at {xm}, oracle {want_m}")
        return OK

    return Op(f"distinguish alpha k={k} against l<={KMAX}, both modes", run, check)


def _lens_op(tc, rng, k: int, l: int) -> Op:
    j = rng.randint(1, 3)
    xi = rng.choice(STANDARD)

    def run():
        spec = tc.models.lens_cutspec(k, l, j)
        desc = tc.cuts.classify_lens(spec)
        prof = tc.invariants.cc_profile(spec)
        return (desc.kind.value, desc.normal_form, (prof.min_count, prof.max_count),
                tc.invariants.cc_count(spec, xi))

    def check(got):
        kind, x, y = orc.gl2z_lens((0, 1), orc.reduce_vec(l, -k))
        lo, hi = orc.ordered(lens_values(k, l, j))
        want = (kind, None if kind == "S1xS2" else (x, y), (j, j + 1), orc.ray_count(OAngle(xi), lo, hi))
        return OK if got == want else wrong(f"lens({k},{l},{j}): {got}, oracle {want}")

    return Op(f"lens_cutspec({k},{l},{j})", run, check)


def build_paper_families(tc, rng, workdir: Path) -> list[Op]:
    """One cycle: reproduce-paper --kmax 20 in both formats, three
    symplectization checks (two library, one CLI), seven distinguish
    sweeps and eight lens-table entries."""
    ops = []
    for fmt in ("text", "json"):
        argv = ["reproduce-paper", "--kmax", str(KMAX), "--format", fmt]
        echo = f"reproduce-paper --kmax {KMAX}"
        ops.append(Op(f"cli {echo} --format {fmt}", lambda argv=argv: call_cli(tc, argv),
                      cli_check(0, fmt, echo, verify=_reproduce_check(KMAX))))
    k_alpha = 3
    ops.append(_sympl_op(tc, tc.models.alpha_cutspec(k_alpha), alpha_values(k_alpha), (0, 1), (1, 0),
                         f"symplectization alpha_cutspec({k_alpha})"))
    ops.append(_sympl_op(tc, tc.models.lens_cutspec(2, 1, 2), lens_values(2, 1, 2), (0, 1),
                         orc.reduce_vec(1, -2), "symplectization lens_cutspec(2,1,2)"))
    k_cli = 2
    text = spec_text([0, 1], alpha_values(k_cli), (0, 1), (1, 0), header=f"alpha_cutspec({k_cli})")
    path = workdir / f"alpha{k_cli}.cut"
    path.write_text(text, encoding="utf-8")
    fmt = rng.choice(("text", "json"))

    def sympl_verify(rec):
        got = item(rec, "symplectization", "verdict")[0]
        return OK if got == "commute" else wrong(f"verdict {got}")

    argv = ["symplectization-check", str(path), "--format", fmt]
    ops.append(Op(f"cli symplectization-check alpha{k_cli}.cut --format {fmt}", lambda: call_cli(tc, argv),
                  cli_check(0, fmt, text, verify=sympl_verify)))
    ops += [_distinguish_sweep_op(tc, k) for k in rng.sample(range(1, KMAX + 1), 7)]
    pairs = list(LENS_TABLE) + [rng.choice(((3, 1), (1, 3), (3, 2), (2, 5), (5, 3), (4, 3))) for _ in range(4)]
    ops += [_lens_op(tc, rng, k, l) for k, l in pairs]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "cli-mix": build_cli_mix,
    "dense-profile": build_dense_profile,
    "exact-ties": build_exact_ties,
    "paper-families": build_paper_families,
}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Import toruscut and build one workload's operations from the seed."""
    import toruscut as tc
    import toruscut.cli  # noqa: F401  (the CLI module is not imported by the package)

    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](tc, random.Random(f"{name}:{seed}"), workdir)
