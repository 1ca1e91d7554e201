"""Layered benchmark for toruscut.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen): cli-mix,
dense-profile, exact-ties, paper-families.  Each is a closed loop with
one caller: the next operation starts when the previous one returns.
Inputs come from --seed only; the package is imported from ./src of the
checkout this file sits in.

--trace 0 measures the end-to-end metrics:
  setup_s      median over eleven fresh processes of the time from process
               start until the workload's inputs are built (import of
               toruscut, generating, writing, parsing and constructing
               every spec and profile);
  ops_per_s    operations per cycle over the median cycle time; the timed
               loop runs a fixed number of whole cycles, about --seconds
               of work on the host the benchmark was built on (see
               CYCLE_S), so every run of a seed attempts the same
               operations and fails the same ones;
  op_p50_ms, op_p90_ms   per-operation latency percentiles;
  error_rate   failed / attempted operations;
  peak_rss_mb  peak resident memory of this process.
--trace 1 runs one cycle of the workload untraced and then the same
cycle with every public function of every toruscut layer wrapped from
outside (see tracer.py), reports the per-layer metrics and the tracing
overhead, writes the spans to perfbench/out/, and runs the workload's
ROADMAP ladders (see ladder.py).

Calibration: the process pins itself and its children to one CPU and
runs calibration_kernel(), a fixed piece of plain Python, around every
set-up probe and between chunks of about CHUNK_S seconds of operations.
Every timing is multiplied by REF_KERNEL_S over the kernel's time next
to it, so the numbers are in units of a machine on which the kernel
takes 10 ms.  On the shared host this benchmark was built on, speed
drifted by up to half between runs; the scaled numbers held within a
few percent.  The unscaled values are printed alongside.

Every output is checked against oracle.py.  An operation fails when an
exception escapes, the CLI exits with an unexpected code, a spec error
on exit 2 or 3 does not name its line, or the answer disagrees with the
oracle; only the last makes the run incorrect.  The last line of stdout
is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import ladder
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 11
MIN_OPS = 100
HARD_STOP_S = 150.0
# Wall time of one cycle of each workload on the host the benchmark was
# built on (2 shared cores, Python 3); a run makes --seconds / CYCLE_S
# whole cycles, at least MIN_OPS operations.  The count depends on
# nothing measured, so attempted and failed are the same in every run of
# a seed.
CYCLE_S = {"cli-mix": 0.7, "dense-profile": 1.0, "exact-ties": 1.5, "paper-families": 0.75}
# Time of calibration_kernel() on the reference machine; timings are
# scaled by REF_KERNEL_S / (the kernel's time measured next to them).
REF_KERNEL_S = 0.010
CHUNK_S = 0.1
_MASK64 = (1 << 64) - 1


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of plain Python work (integer and
    big-integer arithmetic, gcds, Fractions, string keys in a dict).

    It never touches toruscut, so no change to the package moves it; it
    only tracks how fast this CPU runs Python at that moment.
    """
    t0 = time.perf_counter()
    x, acc, table, frac = 0x9E3779B97F4A7C15, 0, {}, Fraction(0)
    big = 3 ** 1500
    for i in range(8000):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK64
        acc += math.gcd(x, 2 * i + 1)
        key = f"{i % 61}:{x & 1023}"
        table[key] = table.get(key, 0) + 1
        if i % 8 == 0:
            frac += Fraction(i % 13 + 1, i % 7 + 2)
        if i % 40 == 0:
            acc += math.gcd(big * (x | 1), big + x).bit_length()
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Time SETUP_PROBES fresh processes from start until inputs exist;
    returns the times and the mean calibration kernel time around each."""
    samples, kernels = [], []
    before = calibration_kernel()
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir / f"probe{i}")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
        samples.append(elapsed)
        after = calibration_kernel()
        kernels.append((before + after) / 2)
        before = after
    return samples, kernels


def run_ops(ops, indices, tracer=None, seen=None):
    """Run the operations in order: [(op index, seconds, output, exception name)].

    With a `seen` dict, an output equal to the op's previous one is
    replaced by that object, so a long run keeps only distinct outputs.
    """
    records = []
    for i in indices:
        op = ops[i]
        if tracer is not None:
            tracer.op = i
        exc_name = None
        output = None
        t0 = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a crash on legal input is a measured failure
            exc_name = type(exc).__name__
        elapsed = time.perf_counter() - t0
        if seen is not None:
            if i in seen and seen[i] == output:
                output = seen[i]
            else:
                seen[i] = output
        records.append((i, elapsed, output, exc_name))
    return records


def cycle_count(workload: str, n_ops: int, seconds: float) -> int:
    return max(math.ceil(MIN_OPS / n_ops), round(seconds / CYCLE_S[workload]))


def timed_loop(ops, n_cycles: int):
    """Run n_cycles whole cycles of ops; whole cycles keep the mix of
    operations the same in every run.  Only a host slow enough to pass
    HARD_STOP_S cuts the run short, after the cycle under way.

    The calibration kernel runs between chunks of about CHUNK_S seconds
    of operations; every operation in a chunk gets the scale
    REF_KERNEL_S / (mean kernel time before and after the chunk).
    Returns the records, one scale per record, and each cycle's raw and
    scaled duration.
    """
    records, scales, raw_cycles, cycles, seen = [], [], [], [], {}
    start = time.perf_counter()
    kernel = calibration_kernel()
    while len(cycles) < n_cycles and time.perf_counter() - start < HARD_STOP_S:
        raw = scaled = 0.0
        i = 0
        while i < len(ops):
            t0 = time.perf_counter()
            chunk = []
            while i < len(ops) and time.perf_counter() - t0 < CHUNK_S:
                chunk += run_ops(ops, [i], seen=seen)
                i += 1
            took = time.perf_counter() - t0
            after = calibration_kernel()
            scale = REF_KERNEL_S / ((kernel + after) / 2)
            kernel = after
            records += chunk
            scales += [scale] * len(chunk)
            raw += took
            scaled += took * scale
        raw_cycles.append(raw)
        cycles.append(scaled)
    return records, scales, raw_cycles, cycles


def judge(ops, records):
    """Check every output; returns (failed, wrong, {(label, reason): count})."""
    verdicts: dict[int, list] = {}
    failures: Counter = Counter()
    failed = wrong = 0
    for i, _, output, exc_name in records:
        if exc_name is not None:
            status, reason = "fail", f"exception {exc_name}"
        else:
            seen = verdicts.setdefault(i, [])
            for out, verdict in seen:
                if out == output:
                    status, reason = verdict
                    break
            else:
                status, reason = ops[i].check(output)
                seen.append((output, (status, reason)))
        if status != "ok":
            failed += 1
            wrong += status == "wrong"
            failures[(ops[i].label, f"{status}: {reason}")] += 1
    return failed, wrong, failures


def report_failures(failures: Counter) -> None:
    for (label, reason), n in sorted(failures.items()):
        print(f"  failed x{n}: {label} -- {reason}")


def end_to_end(workload, seed, seconds, workdir) -> dict:
    setups, setup_kernels = setup_seconds(workload, seed, workdir)
    ops = workloads.build(workload, seed, workdir / "main")
    warm_until = time.perf_counter() + min(1.0, seconds / 10)
    for i in range(len(ops)):
        if time.perf_counter() >= warm_until:
            break
        run_ops(ops, [i])
    gc.collect()
    records, scales, cycles, cycle_s = timed_loop(ops, cycle_count(workload, len(ops), seconds))
    failed, wrong, failures = judge(ops, records)
    raw_ms = [r[1] * 1000 for r in records]
    lat_ms = [ms * k for ms, k in zip(raw_ms, scales)]

    def timings(lat, cyc, setup):
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        return {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (len(ops) / statistics.median(cyc), "1/s"),
            "op_p50_ms": (statistics.median(lat), "ms"),
            "op_p90_ms": (deciles[8], "ms"),
        }

    metrics = timings(lat_ms, cycle_s, [s * REF_KERNEL_S / k for s, k in zip(setups, setup_kernels)])
    metrics["error_rate"] = (failed / len(records), "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw = timings(raw_ms, cycles, setups)
    p90 = metrics["op_p90_ms"][0]
    print(f"workload {workload} seed {seed}: closed loop, one caller, {len(ops)} operations per cycle")
    print(f"  {len(records)} operations in {len(cycles)} cycles, {sum(cycles):.3f} s; "
          f"latency samples {len(lat_ms)}, {sum(x > p90 for x in lat_ms)} above p90")
    print(f"  calibration scale per chunk: median {statistics.median(scales):.4f}, "
          f"range {min(scales):.4f}..{max(scales):.4f}")
    print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    for name, (value, unit) in metrics.items():
        extra = f"  (uncalibrated {raw[name][0]:.6g})" if name in raw else ""
        print(f"  {name} = {value:.6g} {unit}{extra}")
    report_failures(failures)
    shown = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")
    return {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in shown},
    }


def traced(workload, seed, workdir) -> dict:
    import toruscut

    def one_pass(ops, tracer=None):
        """One cycle, timed and scaled by the calibration kernel."""
        gc.collect()
        before = calibration_kernel()
        t0 = time.perf_counter()
        records = run_ops(ops, range(len(ops)), tracer)
        took = time.perf_counter() - t0
        return records, took * REF_KERNEL_S / ((before + calibration_kernel()) / 2)

    ops = workloads.build(workload, seed, workdir / "untraced")
    run_ops(ops, range(len(ops)))  # warm-up
    # the faster of two untraced passes is the base
    plain, plain_s = min((one_pass(ops) for _ in range(2)), key=lambda p: p[1])
    p_failed, p_wrong, _ = judge(ops, plain)

    tracer = Tracer()
    tracer.install(toruscut)
    try:
        traced_ops = workloads.build(workload, seed, workdir / "traced")
        records, traced_s = one_pass(traced_ops, tracer)
    finally:
        tracer.uninstall()
    failed, wrong, failures = judge(traced_ops, records)
    metrics = tracer.layer_metrics(len(records))
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}.json"
    kept = tracer.write_spans(span_file)

    print(f"workload {workload} seed {seed}: traced one cycle of {len(records)} operations")
    print(f"  untraced {plain_s:.4f} s, traced {traced_s:.4f} s (calibrated), overhead x{traced_s / plain_s:.3f}")
    print(f"  untraced pass: {p_failed} failed, {p_wrong} wrong; traced pass: {failed} failed, {wrong} wrong")
    print(f"  {tracer.spans} spans, {kept} written to {span_file.relative_to(ROOT)}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    report_failures(failures)
    for case, result in ladder.run_ladder(workload, workdir).items():
        print(f"  ladder {case}: {result}")
    return {
        "correct": wrong == 0 and p_wrong == 0 and failed == p_failed,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toruscut" / "__init__.py").is_file():
        print(f"error: no toruscut package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every child it starts, so that the
    # calibration kernel runs on the CPU whose speed it stands for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = traced(args.workload, args.seed, workdir)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
