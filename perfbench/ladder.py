"""The ROADMAP item-1 ladders: one knob turned up at a time.

Each rung runs in its own process (`python3 perfbench/ladder.py CASE
WORKDIR`), which prints one JSON object: {"seconds": s} for the median
of up to five repeats, or {"error": "ExceptionName"}.  The parent gives
each rung a timeout and records a timeout as a result; no rung is
dropped.
"""

import json
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 20.0

# workload -> rungs whose layer that workload exercises
LADDERS = {
    "cli-mix": ["bits-8", "bits-64", "bits-1400"],
    "dense-profile": ["n-10", "n-100", "n-1000", "n-10000",
                      "k-1", "k-1000", "k-1000000", "k-1000000000000"],
    "exact-ties": ["hom-3/5", "hom-31/37", "hom-41/43", "hom-101/103"],
    "paper-families": [],
}


def _case(tc, name: str, workdir: Path):
    """A zero-argument callable performing one rung."""
    knob, _, arg = name.partition("-")
    if knob == "n":
        n = int(arg)
        A, D = tc.angles.Angle, tc.angles.Direction
        phi = tc.forms.AngleProfile(tuple(Fraction(i, n - 1) for i in range(n)),
                                    tuple(A(D(1, 0), i) for i in range(n)))
        form = tc.forms.InvariantContactForm.unit(phi)
        return lambda: tc.cuts.contact_reduce(form, (1, 0))
    if knob == "k":
        k = int(arg)
        alpha = tc.models.alpha_form(k)
        target = tc.angles.Angle(tc.angles.Direction(-1, 0), k // 2)

        def point_queries():
            tc.forms.moment_sign(alpha, (1, 0), Fraction(1, 3))
            tc.invariants.cc_count(alpha, (-1, 1))
            tc.invariants.cc_profile(alpha)
            tc.invariants.detect_overtwisted(alpha)
            alpha.phi.solve(target)
        return point_queries
    if knob == "hom":
        p, q = (int(v) for v in arg.split("/"))
        a, b = wl.homotopy_pair(p, q, wl.VARIANTS[0])
        fa, fb = wl.unit_form(tc, *a), wl.unit_form(tc, *b)
        return lambda: tc.invariants.homotopy_certificate(fa, fb)
    if knob == "bits":
        rng = random.Random(int(arg))
        spec = wl.gen_cut(rng, f"bits{arg}", 8, collapse_bits=int(arg))
        path = workdir / f"ladder-bits{arg}.cut"
        path.write_text(spec.text, encoding="utf-8")

        def profile():
            code, _, err = wl.call_cli(tc, ["profile", str(path)])
            if code:
                raise RuntimeError(f"exit {code}: {err.strip()}")
        return profile
    raise ValueError(f"unknown ladder case {name!r}")


def run_case(name: str, workdir: Path) -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    import toruscut as tc
    import toruscut.cli  # noqa: F401

    fn = _case(tc, name, workdir)
    times = []
    spent = 0.0
    try:
        while len(times) < 5 and (not times or spent < 1.0):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
            spent += times[-1]
    except Exception as exc:  # the rung's outcome is the result
        return {"error": type(exc).__name__}
    return {"seconds": statistics.median(times)}


def run_ladder(workload: str, workdir: Path) -> dict[str, str]:
    """Run the workload's rungs one at a time, each in its own process."""
    out = {}
    for case in LADDERS[workload]:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "ladder.py"), case, str(workdir)],
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out[case] = f">{TIMEOUT_S:g} s"
            continue
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            out[case] = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            continue
        out[case] = res["error"] if "error" in res else f"{res['seconds']:.6g} s"
    return out


if __name__ == "__main__":
    print(json.dumps(run_case(sys.argv[1], Path(sys.argv[2]))))
