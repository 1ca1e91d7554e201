"""Golden json answers checked against an independent oracle.

A golden file pins bytes, not answers: a regenerated corpus accepts
whatever the code printed then.  This module reads each exit-0 json
golden case, the argv from `test_golden.CASES` and the spec files with
its own reader, and recomputes the answers it can with
perfbench/oracle.py, which imports no toruscut code:

* `invariants`: cc(xi) by `ray_count`;
* `profile`: the sweep by `swept`, min and max by `count_summary`;
* `cut`: the kind, the normal form and x of the basis image by `gl2z_lens`;
* `overtwisted`: whether the sweep exceeds pi, and the disk's target and
  t* by `solve` of phi(t0) plus or minus pi;
* `homotopy` on pi/4 data: the zeros by `planar_zeros` and the zero
  intervals from the same merged grid; the oracle counts the zero that
  starts a zero interval, which the certificate reports in the interval;
* `distinguish`, both modes: the verdict by `distinguishable`, and each
  witness's counts by `ray_count`.

Every other exit-0 json case is in UNCHECKED with its reason.  A case
that is neither checked nor listed fails, and so does a listed case that
has become checkable.  The oracle is imported by a path insert, so that
perfbench/ stays as the benchmark uses it.
"""

import json
import math
import sys
from fractions import Fraction

import pytest

from test_golden import CASES, GOLDEN, ROOT

sys.path.insert(0, str(ROOT / "perfbench"))
import oracle as orc  # noqa: E402
from oracle import OAngle  # noqa: E402

_NOT_PI4 = "a value is not a pi/4 direction, so planar_zeros works in floats"
UNCHECKED = {
    **{f"check-{s}-json": "no validity rule independent of cuts._boundary_checks yet"
       for s in ("alpha0", "alpha1", "alpha1_rescaled", "alpha2", "lens21_j1", "line")},
    **{f"slice-{s}-json": "no slice rule in this module yet"
       for s in ("alpha0", "alpha1", "alpha1_rescaled", "alpha2", "lens21_j1", "line",
                 "big-direction", "line-reversed")},
    **{f"symplectization-check-{s}-json": "no symplectization rule in this module yet"
       for s in ("alpha0", "alpha1", "alpha1_rescaled", "alpha2", "lens21_j1")},
    "reproduce-paper-kmax0-json": "no reproduce-paper rule in this module yet",
    "reproduce-paper-kmax3-json": "no reproduce-paper rule in this module yet",
    "homotopy-breakpoint-zero-json": _NOT_PI4 + "; the zero is on a breakpoint",
    "homotopy-opposite-dirs-json": _NOT_PI4 + "; its zero interval is an exact tie",
    "homotopy-tiny-span-json": _NOT_PI4 + "; the span is below float resolution",
    "homotopy-far-turns-json": _NOT_PI4 + "; 10^16 turns apart, past float resolution",
    "homotopy-far-turns-e1000-json": _NOT_PI4 + "; 10^1000 turns, beyond float range",
    **{f"homotopy-near-tie-{s}-json": _NOT_PI4 + "; within float error of -pi"
       for s in ("c20", "c20-above", "c200")},
}


def read_keys(path: str) -> dict[str, str]:
    keys = {}
    for line in (ROOT / path).read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("#")[0].partition("=")
        keys[key.strip()] = value.strip()
    return keys


def read_spec(path: str) -> tuple[list[Fraction], list[OAngle]]:
    """Breakpoints and values of form.phi.breaks; a cut datum (one with
    collapse vectors) is read on [0, 1], as the library moves it there."""
    keys = read_keys(path)
    breaks, values = [], []
    for token in keys["form.phi.breaks"].split():
        t, _, literal = token.partition(":")
        breaks.append(Fraction(t))
        values.append(parse_angle(literal))
    if "collapse0" in keys:
        t0, t1 = breaks[0], breaks[-1]
        breaks = [(t - t0) / (t1 - t0) for t in breaks]
    return breaks, values


def parse_angle(literal: str) -> OAngle:
    vec, _, turns = literal.partition(";")
    x, y = vec.split(",")
    return OAngle((int(x), int(y)), int(turns or 0))


def records(name: str) -> dict[tuple[str, str], tuple[str, float | None]]:
    text = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    report = json.loads(text.partition("--- stdout\n")[2].partition("--- stderr\n")[0])
    return {
        (rec["title"], item["key"]): (item["exact"], item["approx"])
        for rec in report["records"]
        for item in rec["items"]
    }


def exact_pi4(*paths: str) -> bool:
    return all(isinstance(v.p, Fraction) for p in paths for v in read_spec(p)[1])


def check_invariants(argv, recs):
    _, values = read_spec(argv[1])
    xi = argv[argv.index("--direction") + 1]
    want = orc.ray_count(OAngle(tuple(map(int, xi.split(",")))), *orc.ordered(values))
    assert recs["invariants", "direction"][0] == xi
    assert recs["invariants", f"cc({xi})"][0] == str(want)


def check_profile(argv, recs):
    _, values = read_spec(argv[1])
    q, q1 = orc.count_summary(values)
    assert (recs["cc-profile", "min"][0], recs["cc-profile", "max"][0]) == (str(q), str(q1))
    swept = orc.swept(values)
    exact, approx = recs["cc-profile", "swept"]
    got = orc.total(orc.diff(parse_angle(exact), OAngle((1, 0))))
    assert got == swept if isinstance(swept, Fraction) else orc.close(float(got), float(swept))
    try:
        want = float(swept) * math.pi
    except OverflowError:
        want = math.inf
    assert approx is None if math.isinf(want) else orc.close(approx, want)


def check_cut(argv, recs):
    keys = read_keys(argv[1])
    v0, v1 = (tuple(map(int, keys[k].split(","))) for k in ("collapse0", "collapse1"))
    kind, x, y = orc.gl2z_lens(v0, v1)
    assert recs["classification", "kind"][0] == kind
    assert recs["classification", "normal-form"][0] == ("-" if kind == "S1xS2" else f"{x},{y}")
    assert recs["classification", "basis-image"][0].split(",")[0] == str(x)


def check_overtwisted(argv, recs):
    breaks, values = read_spec(argv[1])
    disk = orc.swept(values) > 1
    assert recs["overtwisted", "overtwisted"][0] == ("disk-found" if disk else "none-found")
    if not disk:
        return
    # phi(t0) + pi, or - pi on a decreasing profile: the opposite vector, one
    # turn up (down) when the principal argument crosses the branch cut at pi
    a, s = values[0], orc.sign_of(orc.diff(values[-1], values[0]))
    if s > 0:
        target = OAngle(a.neg_vec(), a.turns + (a.p > 0))
    else:
        target = OAngle(a.neg_vec(), a.turns - (a.p <= 0))
    assert recs["overtwisted", "disk-target"][0] == target.literal()
    t_star = orc.solve(breaks, values, target)
    exact, approx = recs["overtwisted", "disk-t*"]
    if isinstance(t_star, Fraction):
        assert exact == str(t_star)
    assert orc.close(approx, float(t_star))


def check_homotopy(argv, recs):
    (ba, va), (bb, vb) = read_spec(argv[1]), read_spec(argv[2])
    ref = OAngle((1, 0))

    def difference(u):
        return orc.value_at(ba, va, u, ref) - orc.value_at(bb, vb, u, ref)

    # a segment of the merged grid where the difference is a constant odd
    # multiple of pi is a zero interval; adjacent ones are reported as one
    grid = sorted(set(ba) | set(bb))
    d = [difference(u) for u in grid]
    intervals = []
    for u0, u1, d0, d1 in zip(grid, grid[1:], d, d[1:]):
        if d0 == d1 and d0 % 2 == 1:
            if intervals and intervals[-1][1] == u0:
                intervals[-1][1] = u1
            else:
                intervals.append([u0, u1])
    zeros = [
        z for z in orc.planar_zeros(ba, va, bb, vb) if not any(a <= z <= b for a, b in intervals)
    ]
    assert recs["homotopy", "planar-zeros"][0] == str(len(zeros))
    assert recs["homotopy", "zero-intervals"][0] == str(len(intervals))
    for i, z in enumerate(zeros):
        exact, approx = recs["homotopy", f"zero{i}"]
        assert exact.startswith(f"t = {z}, profiles differ by {difference(z)} pi,")
        assert orc.close(approx, float(z))
    for i, (a, b) in enumerate(intervals):
        assert recs["homotopy", f"interval{i}"][0].startswith(f"t in [{a}, {b}],")


def check_distinguish(argv, recs):
    a, b = read_spec(argv[1])[1], read_spec(argv[2])[1]
    fixed = "--mod-gl2z" not in argv
    expect = orc.distinguishable(a, b, fixed)
    result = recs["distinguish", "result"][0]
    assert result == ("distinguished" if expect else "indistinguishable")
    if not expect:
        return
    assert recs["distinguish", "mode"][0] == ("fixed-action" if fixed else "modulo-GL2Z")
    for label, values in (("a", a), ("b", b)):
        q, q1 = orc.count_summary(values)
        assert recs["distinguish", f"summary-{label}"][0] == f"min {q} max {q1}"
    (la, ha), (lb, hb) = orc.ordered(a), orc.ordered(b)
    for sign in ("+", "-") if fixed else ("+",):
        xi = tuple(map(int, recs["distinguish", f"xi{sign}"][0].split(",")))
        ca = orc.ray_count(OAngle(xi), la, ha)
        cb = orc.ray_count(OAngle(xi if sign == "+" else (-xi[0], -xi[1])), lb, hb)
        assert ca != cb
        assert recs["distinguish", f"counts{sign}"][0] == f"{ca} vs {cb}"


CHECKS = {
    "invariants": check_invariants,
    "profile": check_profile,
    "cut": check_cut,
    "overtwisted": check_overtwisted,
    "homotopy": check_homotopy,
    "distinguish": check_distinguish,
}

EXIT_0_JSON = sorted(
    name for name in CASES
    if name.endswith("-json")
    and (GOLDEN / f"{name}.out").read_bytes().startswith(b"exit 0\n")
)


def checkable(name: str) -> bool:
    argv = CASES[name]
    return argv[0] in CHECKS and (argv[0] != "homotopy" or exact_pi4(argv[1], argv[2]))


CHECKED = [name for name in EXIT_0_JSON if checkable(name)]


def test_every_case_is_checked_or_listed():
    assert set(UNCHECKED) <= set(EXIT_0_JSON), set(UNCHECKED) - set(EXIT_0_JSON)
    both = [name for name in UNCHECKED if checkable(name)]
    neither = [name for name in EXIT_0_JSON if not checkable(name) and name not in UNCHECKED]
    assert not both, f"listed but checkable: {both}"
    assert not neither, f"neither checked nor listed: {neither}"
    assert len(CHECKED) >= 51


@pytest.mark.parametrize("name", CHECKED)
def test_golden_answer_matches_oracle(name):
    argv = CASES[name]
    CHECKS[argv[0]](argv, records(name))
