"""Line trace of src/toruscut: the statements that no CLI case and no workload reaches.

    python tests/line_trace.py            # print the unreached statements, by function
    python tests/line_trace.py --check    # exit 1 unless tests/unreached.txt lists them exactly
    python tests/line_trace.py --write    # rewrite tests/unreached.txt

One in-process run under `sys.settrace` imports the package, replays
every golden case (tests/test_golden.py) and builds and runs one cycle
of each benchmark workload (perfbench/workloads.py, seed 1).  A
statement is a simple statement of the source, found with `ast`, and is
reached when a line it spans reports a line event; so a statement that
shares its line with one that runs counts as reached.  Statements are
keyed by module, function and their first line of text, not by line
number, so code that only moves keeps its key.  A library function that
only unit tests call is unreached by design; REASONS says why it stays.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toruscut"
LIST = ROOT / "tests" / "unreached.txt"
WORKLOADS = ("cli-mix", "dense-profile", "exact-ties", "paper-families")

# functions that no subcommand and no workload calls, and why they stay
REASONS = {
    "cuts.py complement_vector": "library API: the coordinate a reduced circle's coefficient is in",
    "forms.py AngleProfile.segments": "no caller in src/ or tests (ROADMAP item 9)",
    "forms.py InvariantContactForm.reversed": "library API; unit tests reverse forms with it",
    "forms.py RadialProfile.multiply": "`rescale` multiplies radials exactly with it",
    "forms.py RadialProfile.refined": "`multiply` puts both radials on merged breakpoints",
    "forms.py _Grid.reversed": "`InvariantContactForm.reversed` calls it",
    "forms.py moment_eval": "acceptance criterion 7 compares moments before and after rescaling",
    "forms.py rescale": "acceptance criteria 7 and 10 rescale radials with it",
    "models.py minimal_valid_cutspec": "acceptance criterion 6 builds the lens table's cuts",
    "specfile.py parse_spec_file": "library API; unit tests read spec files with it",
    "symplectization.py sympl_moment_eval": "acceptance criterion 10, the symplectization identity",
    "symplectization.py sympl_moment_sign": "acceptance criterion 10, the symplectization identity",
}


def statements() -> list[tuple[str, tuple[str, str], int, int]]:
    """[(file, (file function, first line of text), first line, last line)],
    one per simple statement of src/toruscut, docstrings and bare
    declarations left out."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        _walk(ast.parse(text), path.name, "<module>", text.splitlines(), out)
    return out


def _walk(node, file, func, lines, out):
    body = getattr(node, "body", None)
    doc = body[0] if isinstance(node, _SCOPES + (ast.Module,)) and body else None
    if not (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)):
        doc = None
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPES):
            _walk(child, file, child.name if func == "<module>" else f"{func}.{child.name}",
                  lines, out)
        elif isinstance(child, ast.expr) or child is doc or _declares(child):
            continue
        elif not isinstance(child, ast.stmt) or _compound(child):
            _walk(child, file, func, lines, out)  # a block, an except clause, a match case
        else:
            key = (f"{file} {func}", lines[child.lineno - 1].strip())
            out.append((file, key, child.lineno, child.end_lineno))


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _compound(stmt) -> bool:
    return hasattr(stmt, "body") or hasattr(stmt, "cases")


def _declares(stmt) -> bool:
    """A statement that compiles to no code of its own."""
    return isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
        isinstance(stmt, ast.AnnAssign) and stmt.value is None
    )


def reached_lines() -> dict[str, set[int]]:
    """{file name: lines with a line event} over the corpus and the workloads."""
    seen: dict[str, set[int]] = {}
    prefix = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name.startswith(prefix):
            seen.setdefault(name, set())
            return local
        return None

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    sys.settrace(call)
    try:
        _run()
    finally:
        sys.settrace(None)
    return {Path(k).name: v for k, v in seen.items()}


def _run():
    import test_golden
    import workloads

    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    for argv in test_golden.CASES.values():
        test_golden.run_case(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for op in workloads.build(name, 1, Path(tmp) / name):
                op.run()


def unreached() -> Counter:
    seen = reached_lines()
    return Counter(
        key
        for file, key, lo, hi in statements()
        if not seen.get(file, set()).intersection(range(lo, hi + 1))
    )


def render(missing: Counter) -> str:
    by_func: dict[str, list[str]] = {}
    for (func, text), n in sorted(missing.items()):
        by_func.setdefault(func, []).extend([text] * n)
    out = [
        "# src/toruscut statements that neither the golden corpus nor one cycle of",
        "# each workload reaches, by function: `python tests/line_trace.py --write`.",
        "# A function that only tests call has a `# why:` line.",
    ]
    for func, texts in by_func.items():
        out.append(func)
        if func in REASONS:
            out.append(f"    # why: {REASONS[func]}")
        out.extend(f"    {t}" for t in texts)
    return "\n".join(out) + "\n"


def read_list(text: str) -> Counter:
    listed, func = Counter(), None
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.startswith("    "):
            listed[(func, line.strip())] += 1
        else:
            func = line.strip()
    return listed


def main(argv: list[str]) -> int:
    missing = unreached()
    if "--write" in argv:
        LIST.write_text(render(missing), encoding="utf-8")
        return 0
    if "--check" not in argv:
        sys.stdout.write(render(missing))
        return 0
    listed = read_list(LIST.read_text(encoding="utf-8"))
    joined, left = missing - listed, listed - missing
    for (func, text), n in sorted(left.items()):
        print(f"now reached, to leave {LIST.name}: {func}: {text}")
    for (func, text), n in sorted(joined.items()):
        print(f"unreached and not in {LIST.name}: {func}: {text}")
    print(
        f"{sum(missing.values())} statements unreached, {sum(joined.values())} not listed, "
        f"{sum(left.values())} listed but reached"
    )
    return 1 if joined or left else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
