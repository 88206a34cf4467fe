"""Spans around the public functions of ``hrd``, installed from outside.

``Tracer.install`` replaces each target function, in every loaded ``hrd``
module that holds it, by a wrapper that records a span (name, start, end,
parent span) in memory.  A target that no longer exists is skipped, so its
metrics read 0.  ``summary`` turns the spans into per-layer totals: a
function's ``.s`` is its inclusive time (outermost calls only), a layer's
``self_s`` is the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

TARGETS = {
    "perm": ("is_baxter", "decompose", "inflate"),
    "gentree": ("tree_of_perm", "is_hrd", "hierarchy_order"),
    "lowerbound": ("insertion_family",),
    "floorplan": ("fp2bp", "bp2fp", "parse_floorplan"),
    "counting": ("sequence", "census_simple_baxter", "load_table", "save_table", "ensure_table"),
}

# metric name of a target, where it is not <layer>.<function>.s
_METRIC = {"counting.census_simple_baxter": "counting.census.s"}

# per-layer metrics that are counts or ratios, not span times
COUNTERS = (
    "gentree.nodes",
    "lowerbound.members",
    "floorplan.rooms",
    "counting.terms",
    "counting.max_digits",
    "counting.memo_bytes_read",
    "counting.memo_bytes_written",
)


def span_metrics() -> list[str]:
    out = []
    for layer, names in TARGETS.items():
        out += [_METRIC.get(f"{layer}.{n}", f"{layer}.{n}.s") for n in names]
        if layer in ("perm", "gentree", "floorplan"):
            out.append(f"{layer}.self_s")
    return out


def _io_chars() -> tuple[int, int]:
    """Bytes this process has passed to read and write calls so far."""
    try:
        with open("/proc/self/io") as fh:
            fields = dict(line.split(": ") for line in fh.read().splitlines())
        return int(fields["rchar"]), int(fields["wchar"])
    except (OSError, KeyError, ValueError):
        return 0, 0


def _n_arg(args, kwargs):
    n = kwargs.get("n", kwargs.get("n_max", args[1] if len(args) > 1 else None))
    return n if isinstance(n, int) else None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self.outer: list[bool] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._need: int | None = None  # n of the enclosing ensure_table call
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items()) if name == "hrd" or name.startswith("hrd.")]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"hrd.{layer}")
            for fname in names:
                orig = getattr(home, fname, None)
                if not callable(orig):
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in self._patched:
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        io = name in ("counting.load_table", "counting.save_table")

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self.outer.append(self._open[name] == 0)
            self._open[name] += 1
            self._stack.append(idx)
            if name == "counting.ensure_table":
                self._need = _n_arg(args, kwargs)
            io0 = _io_chars() if io else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                self.spans[idx] = (name, start, end, parent)
            if io0 is not None:
                io1 = _io_chars()
                self.counts["counting.memo_bytes_read"] += io1[0] - io0[0]
                self.counts["counting.memo_bytes_written"] += io1[1] - io0[1]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken from arguments and results

    def _after_lowerbound_insertion_family(self, args, kwargs, result):
        self.counts["lowerbound.members"] += getattr(result, "count", 0)

    def _after_floorplan_fp2bp(self, args, kwargs, result):
        self.counts["floorplan.rooms"] += len(result)

    def _after_floorplan_bp2fp(self, args, kwargs, result):
        self.counts["floorplan.rooms"] += len(result.rooms)

    def _terms(self, n, last):
        if n is not None:
            self.counts["counting.terms"] += n
        if isinstance(last, int):
            digits = len(str(abs(last)))
            self.counts["counting.max_digits"] = max(self.counts["counting.max_digits"], digits)

    def _after_counting_sequence(self, args, kwargs, result):
        self._terms(len(result), result[-1] if result else None)

    def _after_counting_ensure_table(self, args, kwargs, result):
        n = _n_arg(args, kwargs)
        t = getattr(result, "t", None)
        self._terms(n, t[n] if t is not None and n is not None and n < len(t) else None)
        self._need = None

    def _after_counting_load_table(self, args, kwargs, result):
        held = getattr(result, "n_max", None)
        if held and self._need is not None:
            self.counts["counting.memo_terms_held"] += held
            self.counts["counting.memo_terms_needed"] += min(self._need, held)

    def records(self) -> dict:
        """The spans in compact form: [name index, start and duration in
        microseconds from the first span, parent span index or -1]."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[name], round((start - t0) * 1e6, 1), round((end - start) * 1e6, 1), parent]
            for name, start, end, parent in self.spans
        ]
        return {"names": names, "spans": rows}

    # -- summary

    def summary(self) -> dict[str, float]:
        """Raw per-layer totals over everything recorded since ``reset``."""
        out: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            if self.outer[i]:
                out[_METRIC.get(name, name + ".s")] += dur
            out[name.split(".")[0] + ".self_s"] += dur - child_time[i]
            if name == "perm.decompose" and parent >= 0 and self.spans[parent][0].startswith("gentree."):
                out["gentree.nodes"] += 1
        for key, val in self.counts.items():
            out[key] += val
        return dict(out)


def merge(into: dict[str, float], totals: dict[str, float]) -> None:
    """Add one ``summary`` into a running total (``max_digits`` is a maximum)."""
    for key, val in totals.items():
        if key == "counting.max_digits":
            into[key] = max(into.get(key, 0.0), val)
        else:
            into[key] = into.get(key, 0.0) + val


def per_pass(totals: dict[str, float], passes: int) -> dict[str, float]:
    """Per-layer metrics per pass from summed ``summary`` totals."""
    out = {name: totals.get(name, 0.0) / passes for name in span_metrics() + list(COUNTERS)}
    out["counting.max_digits"] = totals.get("counting.max_digits", 0.0)
    held = totals.get("counting.memo_terms_held", 0.0)
    out["counting.memo_terms_used_ratio"] = totals.get("counting.memo_terms_needed", 0.0) / held if held else 0.0
    return out
