"""Set-up probe: import toruscut, build one workload's inputs, report.

Run as `python3 perfbench/probe.py WORKLOAD SEED WORKDIR`.  It prints
`ready` once the inputs exist, so the parent can time the span from
process start to that line, then deletes WORKDIR and exits.
"""

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    try:
        workloads.build(name, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
