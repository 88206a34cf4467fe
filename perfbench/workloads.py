"""The four workloads: their seeded operation lists, the program's set-up,
and the check of every answer.

A workload is built in three steps.  The constructor makes the inputs from
the seed with the benchmark's own code and no ``hrd`` import.  ``setup``
imports ``hrd`` and makes the calls into it that prepare inputs or fill
caches; it is the program's share of the time before the first operation.
``expect`` computes the reference answers, again without ``hrd``.  Each
``Op`` then calls one user entry point, and its ``check`` runs outside the
timed span.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable

import inputs as I
from spans import Tracer, merge

SKELETONS_5 = [I.P12, I.P21, *I.PINWHEELS]
RUN = Path(__file__).with_name("run.py")


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def _jitter(rng: random.Random, n: int, spread: int) -> int:
    return n + rng.randint(-spread, spread)


class InProcess:
    """A workload whose operations are calls in this process."""

    SETUP_SAMPLES = 7

    def __init__(self, seed: int, root: Path, work: Path) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.root = root
        self.tracer: Tracer | None = None
        self.set_up = False

    def setup_sample(self) -> float:
        """Seconds of one set-up: the first here, later ones in a fresh
        process each, since imports and caches fill only once per process."""
        if not self.set_up:
            t0 = perf_counter()
            self.setup()
            self.set_up = True
            return perf_counter() - t0
        probe = [sys.executable, str(RUN), "--workload", self.name, "--seed", str(self.seed), "--setup-only"]
        proc = subprocess.run(probe, cwd=self.root, capture_output=True, text=True, timeout=170, check=True)
        return float(proc.stdout.split()[-1])

    def expect(self) -> None:
        pass

    def before_pass(self) -> None:
        pass

    def trace(self, on: bool) -> None:
        if self.tracer is None:
            self.tracer = Tracer()
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def traced_totals(self) -> dict[str, float]:
        return self.tracer.summary()

    def trace_records(self) -> dict:
        return self.tracer.records()

    def extra_layer_metrics(self) -> dict[str, float]:
        return {"cli.import_ms": 0.0, "cli.run_ms": 0.0, "cli.interpreter_ms": 0.0}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ------------------------------------------------------------------- count


class Count(InProcess):
    """sequence(k, n) from scratch: big-integer convolution in ``counting``."""

    name = "count"
    SETUP_SAMPLES = 4  # each one pays the skeleton census again

    ORDERS = (2, 5, 8, 9)
    # n spread evenly over 100..450 for every k, so op costs form a
    # continuum and no percentile sits on a step between two sizes
    SIZES = tuple(range(100, 451, 50))

    def __init__(self, seed, root, work):
        super().__init__(seed, root, work)
        self.cases = [(k, _jitter(self.rng, n, 3)) for k in self.ORDERS for n in self.SIZES]
        self.rng.shuffle(self.cases)

    def setup(self):
        from hrd import counting

        self.counting = counting
        counting.sequence(max(self.ORDERS), 1)  # fills the skeleton census

    def expect(self):
        top = {k: max(n for kk, n in self.cases if kk == k) for k in self.ORDERS}
        self.exact = {2: I.schroeder_counts(top[2])}
        self.modp = {k: I.counts_mod_p(k, top[k]) for k in self.ORDERS if k != 2}
        self.baxter = [I.baxter_number(n) for n in range(1, max(self.ORDERS) + 1)]

    def ops(self):
        return [
            Op(f"sequence k={k}", lambda k=k, n=n: self.counting.sequence(k, n), lambda r, k=k, n=n: self._ok(k, n, r))
            for k, n in self.cases
        ]

    def _ok(self, k, n, seq) -> bool:
        if len(seq) != n or seq[:k] != self.baxter[:k]:
            return False
        if k in self.exact:
            return seq == self.exact[k][:n]
        return [t % I.MOD for t in seq] == self.modp[k][:n]


# --------------------------------------------------------------- bijection


class Bijection(InProcess):
    """bp2fp and fp2bp on order-5 floorplans of about 50, 100 and 200 rooms.

    Six 200-room inputs put the median on bp2fp of 200 rooms and the 90th
    percentile on fp2bp of 200 rooms.  Sizes vary by at most 2 % between
    seeds, so the work per pass stays nearly the same.
    """

    name = "bijection"
    PLAN = ((200, 6), (100, 2), (50, 3))

    def __init__(self, seed, root, work):
        super().__init__(seed, root, work)
        self.cases = []
        for n, copies in self.PLAN:
            for _ in range(copies):
                tree = I.random_tree(self.rng, _jitter(self.rng, n, n // 50), SKELETONS_5)
                text = I.floorplan_text(self.rng, *I.floorplan_of(tree))
                self.cases.append((I.perm_of(tree), text))

    def setup(self):
        from hrd import floorplan
        from hrd.perm import Permutation

        self.floorplan = floorplan
        self.perms = [Permutation(p) for p, _ in self.cases]

    def ops(self):
        out = []
        for (p, text), perm in zip(self.cases, self.perms):
            out.append(Op(f"bp2fp n={len(p)}", lambda perm=perm: self.floorplan.bp2fp(perm), lambda f, p=p: _tiles(f, len(p))))
            out.append(
                Op(
                    f"fp2bp n={len(p)}",
                    lambda text=text: self.floorplan.fp2bp(self.floorplan.parse_floorplan(text)),
                    lambda q, p=p: tuple(q.values) == p,
                )
            )
        return out


def _tiles(f, n: int) -> bool:
    rooms = [(r.x1, r.y1, r.x2, r.y2) for r in f.rooms]
    return sorted(r.id for r in f.rooms) == list(range(1, n + 1)) and I.tiles(f.width, f.height, rooms)


# --------------------------------------------------------------- structure


class Structure(InProcess):
    """Tree layer on a few large, partly deep inputs, beside insertion
    families of many small permutations.  Each large input goes through
    tree_of_perm, perm_of_tree on that tree, is_hrd at its order k and at
    k-1, and hierarchy_order."""

    name = "structure"

    FAMILY = (5, 11)  # 3**(11-5) = 729 members

    def __init__(self, seed, root, work):
        super().__init__(seed, root, work)
        rng = self.rng
        sk7 = SKELETONS_5 + I.simple_baxter(7)
        # chain depth stays well below what Python's default recursion
        # limit allows hierarchy_order (about 330 levels)
        trees = [
            _nested(rng, _jitter(rng, 800, 20), SKELETONS_5),
            _nested(rng, _jitter(rng, 600, 20), SKELETONS_5),
            _nested(rng, _jitter(rng, 500, 20), sk7),
            I.slicing_chain(rng, _jitter(rng, 265, 3), rng.choice(I.PINWHEELS)),
            I.slicing_chain(rng, _jitter(rng, 265, 3), rng.choice(sk7[4:])),
        ]
        self.cases = [(I.perm_of(t), I.tree_order(t)) for t in trees]
        self.family_seed = rng.choice(I.PINWHEELS)

    def setup(self):
        from hrd import gentree, lowerbound
        from hrd.perm import Permutation

        self.gentree, self.lowerbound = gentree, lowerbound
        self.perms = [Permutation(p) for p, _ in self.cases]
        self.seed_perm = Permutation(self.family_seed)
        self.trees = {}

    def ops(self):
        out = []
        for i, ((p, k), perm) in enumerate(zip(self.cases, self.perms)):
            tag = f"n={len(p)} k={k}"
            out += [
                Op(f"tree_of_perm {tag}", lambda i=i, perm=perm, k=k: self._tree(i, perm, k), lambda t, p=p, k=k: _tree_ok(t, p, k)),
                Op(f"perm_of_tree {tag}", lambda i=i: self.gentree.perm_of_tree(self.trees[i]), lambda q, p=p: tuple(q.values) == p),
                Op(f"is_hrd {tag}", lambda perm=perm, k=k: self.gentree.is_hrd(perm, k), lambda r: r is True),
                Op(f"is_hrd {tag} k-1", lambda perm=perm, k=k: self.gentree.is_hrd(perm, k - 1), lambda r: r is False),
                Op(f"hierarchy_order {tag}", lambda perm=perm: self.gentree.hierarchy_order(perm), lambda r, k=k: r == k),
            ]
        k, n = self.FAMILY
        out.append(Op("insertion_family", lambda: self.lowerbound.insertion_family(k, n, self.seed_perm), _family_ok))
        return out

    def _tree(self, i, perm, k):
        """tree_of_perm, keeping the tree for the perm_of_tree round trip."""
        self.trees[i] = self.gentree.tree_of_perm(perm, k)
        return self.trees[i]


def _nested(rng, n, skeletons):
    """A random tree that uses a skeleton longer than 2, so that its order
    k has a smaller order k-1 >= 2 to test against."""
    while True:
        tree = I.random_tree(rng, n, skeletons)
        if I.tree_order(tree) > 2:
            return tree


def _tree_ok(tree, p, k) -> bool:
    """The tree evaluates to p (own inflation) and its longest label is k."""
    if tree is None:
        return False
    done, order, stack = {}, [], [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(getattr(node, "children", ()))
    top = 1
    for node in reversed(order):
        kids = getattr(node, "children", None)
        if kids is None:
            done[id(node)] = (1,)
        else:
            label = tuple(node.label.values)
            top = max(top, len(label))
            done[id(node)] = I.inflate(label, [done[id(c)] for c in kids])
    return done[id(tree)] == p and top == k


def _family_ok(report) -> bool:
    size = 3 ** (report.n - report.k)
    return report.count == size == report.expected and report.all_baxter and report.all_hrd_k and report.none_hrd_below


# --------------------------------------------------------------------- cli


MEMO_TERMS = 300


class Cli:
    """A fixed script of ``hrd`` commands, one fresh process each."""

    name = "cli"
    SETUP_SAMPLES = 7

    def __init__(self, seed, root, work):
        rng = random.Random(seed)
        self.root, self.work = root, work
        work.mkdir(parents=True, exist_ok=True)
        self.memo = work / "memo"
        self.files = work / "files"
        self.launcher = Path(__file__).with_name("launch.py")
        self.trace_dir: Path | None = None
        self.child_totals: dict[str, float] = {}
        self.child_ms: dict[str, list[float]] = {"import_ms": [], "run_ms": []}
        self.interpreter_ms: list[float] = []
        self.records: list = []
        self.child_ids = itertools.count()
        self.snapshot: dict[str, bytes] | None = None

        wheel = rng.choice(I.PINWHEELS)
        self.tree = (wheel, tuple(I.random_tree(rng, m, SKELETONS_5) for m in (6, 4, 3, 5, 2)))
        self.p = I.perm_of(self.tree)
        self.simple = rng.choice(I.simple_baxter(7))
        self.bp = I.perm_of(I.random_tree(rng, _jitter(rng, 40, 3), SKELETONS_5))
        fp_tree = I.random_tree(rng, _jitter(rng, 40, 3), SKELETONS_5)
        self.fp_perm = I.perm_of(fp_tree)
        self.fp_text = I.floorplan_text(rng, *I.floorplan_of(fp_tree))
        self.render_text = I.floorplan_text(rng, *I.floorplan_of(I.random_tree(rng, 8, SKELETONS_5)))
        self.lb_seed = rng.choice(I.PINWHEELS)
        self.n5 = _jitter(rng, 40, 3)
        self.n8 = _jitter(rng, 40, 3)
        self.read_n = _jitter(rng, 100, 10)
        self.read_max = _jitter(rng, 60, 5)
        self.extend_n = MEMO_TERMS + rng.randint(15, 25)
        self.extend_max = self.extend_n + rng.randint(5, 15)
        self.reread_n = _jitter(rng, 200, 10)

    # -- processes

    def _env(self, trace_file: Path | None) -> dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["HRD_MEMO_DIR"] = str(self.memo)
        env.pop("PERFBENCH_TRACE_FILE", None)
        if trace_file is not None:
            env["PERFBENCH_TRACE_FILE"] = str(trace_file)
        return env

    def hrd(self, *argv: str) -> tuple[int, str]:
        trace_file = None
        if self.trace_dir is not None:
            trace_file = self.trace_dir / f"child-{next(self.child_ids)}.json"
        proc = subprocess.run(
            [sys.executable, str(self.launcher), *argv],
            env=self._env(trace_file),
            cwd=self.work,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if trace_file is not None:
            self._collect(trace_file)
        return proc.returncode, proc.stdout

    def _collect(self, path: Path) -> None:
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return
        path.unlink()
        self.child_ms["import_ms"].append(data["import_ms"])
        self.child_ms["run_ms"].append(data["run_ms"])
        merge(self.child_totals, data["totals"])
        self.records.append({"argv": data["argv"], **data["spans"]})

    # -- workload interface

    def setup_sample(self) -> float:
        """Seconds to fill the memo through the command itself, from an
        empty directory; the first fill is the one every pass restores."""
        shutil.rmtree(self.memo, ignore_errors=True)
        t0 = perf_counter()
        rc, _ = self.hrd("count", "--k", "5", "--n", str(MEMO_TERMS))
        elapsed = perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"memo fill exited {rc}")
        if self.snapshot is None:
            self.snapshot = {p.name: p.read_bytes() for p in self.memo.iterdir()}
        return elapsed

    def expect(self):
        self.files.mkdir(parents=True, exist_ok=True)
        (self.files / "plan.fp").write_text(self.fp_text)
        (self.files / "small.fp").write_text(self.render_text)
        self.modp = {5: I.counts_mod_p(5, self.extend_max), 8: I.counts_mod_p(8, self.n8)}

    def before_pass(self):
        shutil.rmtree(self.memo, ignore_errors=True)
        self.memo.mkdir(parents=True)
        for name, data in self.snapshot.items():
            (self.memo / name).write_bytes(data)
        if self.trace_dir is not None:
            for _ in range(3):
                t0 = perf_counter()
                subprocess.run([sys.executable, "-c", "pass"], env=self._env(None), cwd=self.work, check=True)
                self.interpreter_ms.append((perf_counter() - t0) * 1000)

    def ops(self):
        p, spaced = self.p, _spaced
        skeleton, children = self.tree
        decomposition = [f"skeleton {spaced(skeleton)}"] + [f"child {spaced(I.perm_of(c))}" for c in children]
        lb = "".join(map(str, self.lb_seed))
        lb_line = f"seed={lb} k=5 n=8 family=27 expected=27 all_baxter=True all_hrd_k=True none_hrd_k-1=True"
        script = [
            (("check", "baxter", spaced(p)), _says(0, "true")),
            (("check", "hrd", "--k", "5", spaced(p)), _says(0, "true")),
            (("check", "hrd", "--k", "4", spaced(p)), _says(1, "false")),
            (("check", "simple", spaced(p)), _says(1, "false")),
            (("check", "ihrd", spaced(self.simple)), _says(0, "true")),
            (("decompose", spaced(p)), _says(0, *decomposition)),
            (("tree", spaced(p), "--k", "5"), _says(0, I.format_tree(self.tree))),
            (("bp2fp", spaced(self.bp)), lambda r, n=len(self.bp): r[0] == 0 and _floorplan_tiles(r[1], n)),
            (("fp2bp", "files/plan.fp"), _says(0, spaced(self.fp_perm))),
            (("render", "files/small.fp"), lambda r: r[0] == 0 and _ids_drawn(self.render_text, r[1])),
            (("census", "--len", "7"), _says(0, str(I.SKELETON_COUNTS[7]))),
            (("lowerbound", "--k", "5", "--n", "8", "--seed", lb), _says(0, lb_line)),
            (("count", "--k", "5", "--n", str(self.n5), "--no-memo"), self._count_ok(5, self.n5)),
            (("count", "--k", "8", "--n", str(self.n8), "--no-memo"), self._count_ok(8, self.n8)),
            # memo: two reads, two extensions past the end, one read of the longer table
            (("count", "--k", "5", "--n", str(self.read_n)), self._count_ok(5, self.read_n)),
            (("sequence", "--k", "5", "--max", str(self.read_max)), self._sequence_ok(self.read_max, False)),
            (("count", "--k", "5", "--n", str(self.extend_n)), self._count_ok(5, self.extend_n)),
            (("sequence", "--k", "5", "--max", str(self.extend_max), "--csv"), self._sequence_ok(self.extend_max, True)),
            (("count", "--k", "5", "--n", str(self.reread_n)), self._count_ok(5, self.reread_n)),
        ]
        return [Op(_op_name(argv), lambda argv=argv: self.hrd(*argv), check) for argv, check in script]

    def _count_ok(self, k, n):
        def ok(r):
            code, out = r
            return code == 0 and out.strip().isdigit() and int(out) % I.MOD == self.modp[k][n - 1]

        return ok

    def _sequence_ok(self, n, csv):
        def ok(r):
            code, out = r
            lines = out.split()
            if code != 0 or len(lines) != n:
                return False
            for m, line in enumerate(lines, 1):
                if csv:
                    idx, _, line = line.partition(",")
                    if idx != str(m):
                        return False
                if not line.isdigit() or int(line) % I.MOD != self.modp[5][m - 1]:
                    return False
            return True

        return ok

    def trace(self, on: bool):
        self.trace_dir = self.work / "children" if on else None
        if on:
            self.trace_dir.mkdir(parents=True, exist_ok=True)

    def traced_totals(self):
        return self.child_totals

    def trace_records(self):
        return self.records

    def extra_layer_metrics(self):
        return {
            "cli.import_ms": median(self.child_ms["import_ms"] or [0.0]),
            "cli.run_ms": median(self.child_ms["run_ms"] or [0.0]),
            "cli.interpreter_ms": median(self.interpreter_ms or [0.0]),
        }

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _op_name(argv) -> str:
    """The command line with permutations shortened to <perm>."""
    return "hrd " + " ".join("<perm>" if " " in a else a for a in argv)


def _spaced(vals) -> str:
    return " ".join(map(str, vals))


def _says(code: int, *lines: str):
    return lambda r: r[0] == code and r[1].splitlines() == list(lines)


def _floorplan_tiles(text: str, n: int) -> bool:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    try:
        width, height, count = map(int, rows[0])
        rooms = [tuple(map(int, row)) for row in rows[1:]]
    except (IndexError, ValueError):
        return False
    if count != n or len(rooms) != n or any(len(r) != 5 for r in rooms):
        return False
    return sorted(r[0] for r in rooms) == list(range(1, n + 1)) and I.tiles(width, height, [r[1:] for r in rooms])


def _ids_drawn(fp_text: str, drawing: str) -> bool:
    ids = {line.split()[0] for line in fp_text.splitlines()[1:] if line.strip()}
    return ids <= set("".join(ch if ch.isdigit() else " " for ch in drawing).split())


WORKLOADS = {w.name: w for w in (Count, Bijection, Structure, Cli)}
