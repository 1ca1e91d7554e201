"""Per-layer spans for toruscut, recorded from outside the package.

`Tracer.install` replaces every public function of the package's modules
with a timing wrapper, in every module namespace that holds it (the
defining module's globals, so calls inside a module are caught too, and
each caller's imported name), plus a few `AngleProfile` methods and the
profile constructors.  `uninstall` puts the originals back.  Nothing in
the package is edited.

A span has a name (`layer.function`), start, end, parent span and the
operation id the benchmark set when it began.  Self time is a span's
duration minus the time its child spans cover; a layer's self time is
the sum over its spans.  Aggregates are kept for every span, and the
first `cap` spans are also kept in memory and written out at the end.
"""

from __future__ import annotations

import json
import re
import time
import types
from array import array
from collections import defaultdict

LAYERS = ("cli", "specfile", "report", "forms", "angles", "cuts",
          "invariants", "symplectization", "models")
PROFILE_METHODS = ("solve", "compare_at", "solve_half_turn_lattice")
CONSTRUCTORS = ("AngleProfile", "RadialProfile", "InvariantContactForm")
MOMENT_FUNCTIONS = ("forms.moment_eval", "forms.moment_sign", "forms.moment_float")
_LINE = re.compile(r"\bline \d+\b")


class Tracer:
    def __init__(self, cap: int = 100_000):
        self.cap = cap
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.count: list[int] = []
        self.incl: list[float] = []
        self.self_time: list[float] = []
        self.stack: list[list] = []  # [name id, start, child time, span index, flag]
        self.sp_name, self.sp_parent, self.sp_op = array("i"), array("i"), array("i")
        self.sp_start, self.sp_end = array("d"), array("d")
        self.spans = 0
        self.op = -1
        self.counters: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.incl.append(0.0)
            self.self_time.append(0.0)
        return self.ids[name]

    def _enter(self, nid: int) -> list:
        idx = -1
        if self.spans < self.cap:
            idx = self.spans
            self.sp_name.append(nid)
            self.sp_parent.append(self.stack[-1][3] if self.stack else -1)
            self.sp_op.append(self.op)
            self.sp_start.append(0.0)
            self.sp_end.append(0.0)
        self.spans += 1
        frame = [nid, 0.0, 0.0, idx, False]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        nid, start, child, idx, _ = frame
        dur = end - start
        self.count[nid] += 1
        self.incl[nid] += dur
        self.self_time[nid] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if idx >= 0:
            self.sp_start[idx] = start
            self.sp_end[idx] = end

    def _parent_name(self) -> str | None:
        return self.names[self.stack[-1][0]] if self.stack else None

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        nid = self._id(name)
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exit_(frame)
                if on_error is not None:
                    on_error(exc)
                raise
            exit_(frame)
            if on_result is not None:
                on_result(frame, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters at layer boundaries ------------------------------------------

    def _hooks(self, name: str, angle_type):
        c = self.counters

        def add(key, n=1):
            c[key] += n

        if name.startswith("angles."):
            def angle_result(frame, result):
                if type(result) is angle_type:
                    bits = max(abs(result.dir.x).bit_length(), abs(result.dir.y).bit_length())
                    if bits > c["angles.max_bits"]:
                        c["angles.max_bits"] = bits
            if name == "angles.angle_mul_int":
                def mul_result(frame, result):
                    angle_result(frame, result)
                    if self._parent_name() == "angles.compare_scaled":
                        self.stack[-1][4] = True
                return mul_result, None
            if name == "angles.compare_scaled":
                return (lambda frame, result: frame[4] and add("angles.exact_fallbacks")), None
            return angle_result, None
        if name == "forms.AngleProfile.solve_half_turn_lattice":
            return (lambda frame, result: add("forms.lattice_hits", len(result))), None
        if name == "cuts.contact_reduce":
            return (lambda frame, result: add("cuts.reduced_circles", len(result))), None
        if name in ("report.render_text", "report.render_json"):
            return (lambda frame, result: add("report.bytes", len(result.encode("utf-8")))), None
        if name in MOMENT_FUNCTIONS:
            def from_sympl(frame, result):
                parent = self._parent_name()
                if parent is not None and parent.startswith("symplectization."):
                    add("symplectization.moment_evals")
            return from_sympl, None
        if name == "specfile.parse_spec":
            def parse_error(exc):
                add("specfile.errors")
                if not _LINE.search(str(exc)):
                    add("specfile.errors_without_line")
            return None, parse_error
        if name == "cli.main":
            return None, lambda exc: add("cli.uncaught")
        return None, None

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, tc) -> None:
        """Wrap the public functions of every toruscut layer, wherever a
        module namespace refers to them."""
        modules = [getattr(tc, layer) for layer in LAYERS]
        prefix = tc.__name__ + "."
        wrappers: dict[int, object] = {}
        for mod in [tc, *modules]:
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith(prefix)):
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__.removeprefix(prefix)}.{value.__name__}"
                    on_result, on_error = self._hooks(name, tc.angles.Angle)
                    wrappers[id(value)] = self.wrap(name, value, on_result, on_error)
                self._patch(mod, attr, wrappers[id(value)])
        profile = tc.forms.AngleProfile
        for meth in PROFILE_METHODS:
            name = f"forms.AngleProfile.{meth}"
            on_result, on_error = self._hooks(name, tc.angles.Angle)
            self._patch(profile, meth, self.wrap(name, vars(profile)[meth], on_result, on_error))
        for cls_name in CONSTRUCTORS:
            cls = getattr(tc.forms, cls_name)
            self._patch(cls, "__init__", self.wrap(f"forms.{cls_name}.__init__", vars(cls)["__init__"]))
        self._patch(profile, "segments", self._count_segments(vars(profile)["segments"]))

    def _count_segments(self, segments):
        """AngleProfile.segments, counting the pieces it yields to solve."""
        solve_id = self._id("forms.AngleProfile.solve")
        stack, counters = self.stack, self.counters

        def wrapper(profile):
            for piece in segments(profile):
                if stack and stack[-1][0] == solve_id:
                    counters["forms.segments_in_solve"] += 1
                yield piece

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as name -> (value, unit)."""
        c = self.counters
        by_name = {n: i for i, n in enumerate(self.names)}

        def calls(name):
            return self.count[by_name[name]] if name in by_name else 0

        def incl(*names):
            return sum(self.incl[by_name[n]] for n in names if n in by_name)

        def layer(prefix, table):
            return sum(v for n, v in zip(self.names, table) if n.startswith(prefix + "."))

        solves = calls("forms.AngleProfile.solve")
        scaled = calls("angles.compare_scaled")
        validates = calls("cuts.validate_cutspec")
        m = {f"{lay}.self_s": (layer(lay, self.self_time), "s") for lay in LAYERS}
        m.update({
            "cli.calls": (calls("cli.main"), "count"),
            "cli.uncaught": (c["cli.uncaught"], "count"),
            "specfile.parse_s": (incl("specfile.parse_spec"), "s"),
            "specfile.calls": (calls("specfile.parse_spec"), "count"),
            "specfile.errors": (c["specfile.errors"], "count"),
            "specfile.errors_without_line": (c["specfile.errors_without_line"], "count"),
            "report.render_s": (incl("report.render_text", "report.render_json"), "s"),
            "report.bytes": (c["report.bytes"], "bytes"),
            "forms.solve_calls": (solves, "count"),
            "forms.segments_per_solve": (c["forms.segments_in_solve"] / solves if solves else 0.0, "ratio"),
            "forms.compare_at_calls": (calls("forms.AngleProfile.compare_at"), "count"),
            "forms.lattice_hits": (c["forms.lattice_hits"], "count"),
            "forms.construct_s": (incl(*(f"forms.{k}.__init__" for k in CONSTRUCTORS)), "s"),
            "angles.calls": (layer("angles", self.count), "count"),
            "angles.compare_scaled_calls": (scaled, "count"),
            "angles.exact_fallback_ratio": (c["angles.exact_fallbacks"] / scaled if scaled else 0.0, "ratio"),
            "angles.mul_int_calls": (calls("angles.angle_mul_int"), "count"),
            "angles.max_bits": (c["angles.max_bits"], "bits"),
            "cuts.validate_calls": (validates, "count"),
            "cuts.validations_per_op": (validates / ops if ops else 0.0, "ratio"),
            "cuts.reduced_circles": (c["cuts.reduced_circles"], "count"),
            "invariants.calls": (layer("invariants", self.count), "count"),
            "invariants.homotopy_s": (incl("invariants.homotopy_certificate"), "s"),
            "symplectization.moment_evals": (c["symplectization.moment_evals"], "count"),
        })
        return m

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON; returns how many were written."""
        kept = min(self.spans, self.cap)
        payload = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "spans_total": self.spans,
            "spans": [
                [self.sp_name[i], round(self.sp_start[i], 9), round(self.sp_end[i], 9),
                 self.sp_parent[i], self.sp_op[i]]
                for i in range(kept)
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        return kept
