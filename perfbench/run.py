"""End-to-end and per-layer benchmark of the `sl2swc` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`,
nothing is installed.  Every operation is one `sl2swc` child process, started
one at a time with `sys.executable -m sl2swc.cli`, a fresh cache directory
under `.perfbench/`, `SL2SWC_CACHE` cleared, `PYTHONHASHSEED` pinned, a
wall-time cap and an address-space cap.

Workloads (see BENCHMARK.json):
  table-swc      `table --q Q` on an empty cache for Q in {8, 11, 16}, then
                 `swc` calls that read those tables back: `triv` and `reg` at
                 q=8, `reg` at q=16 (a known failure) and one seeded `S(Xk)`
                 at each of q=8, 11, 16.
  verify-suites  the even-q theorem suite, the odd-q theorem suite with 600
                 trials and the Wu suite, with `--seed` as the suite seed.

With `--trace 0` the run sets up SETUP_REPEATS times (setup_s is the median),
then repeats the workload's list of operations, on a fresh cache each time,
while another pass fits in `--seconds`, and at least MIN_PASSES times.
wall_s and cpu_s sum each operation's median over the passes.  With
`--trace 1` it makes one untraced pass and one traced pass, in which
`traced_cli.py` records spans around each layer's public calls, and reports
the per-layer metrics; trace.overhead_s is the traced pass's wall time minus
the untraced one's.

Every output is checked: tables and the fixed `swc` calls against the
digests in golden.json, verification reports against the expected case
counts, and, after the timed passes, the cached tables and each seeded `swc`
expression in-process, the latter against `verify_swc_formula`.  The last stdout line is the
result object; the line before it holds the run's metadata.  Spans and a
per-operation record go to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

CHILD_WALL_CAP_S = 60
CHILD_AS_CAP_BYTES = 512 << 20
RUN_DEADLINE_S = 165
SETUP_REPEATS = 5
MIN_PASSES = 3
# the seeded swc checks compare the closed form with the oracles up to here
CHECK_DEGREE = 32

# One pass of either workload is about 15 s of work, so that a run of 50 s
# holds three passes and each operation's time is a median of three.
FULL = {
    "table_qs": (8, 11, 16),
    "swc_fixed": ((8, "triv"), (8, "reg"), (16, "reg")),
    "swc_seeded": (8, 11, 16),
    "verify": ((8, "theorem", None), (9, "theorem", 600), (8, "wu", None)),
}
# the smoke test's sizes: every workload, at small q
TINY = {
    "table_qs": (3, 4, 5),
    "swc_fixed": ((3, "triv"), (3, "reg"), (4, "triv"), (4, "reg")),
    "swc_seeded": (3, 4),
    "verify": ((4, "theorem", 5), (3, "theorem", 5), (4, "wu", 3)),
}
PROBE = ("dickson", "--rank", "2")


class SetupFailed(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SL2SWC_CACHE"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_CAP_BYTES, CHILD_AS_CAP_BYTES))


@dataclasses.dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int | None      # exit code, negative for a signal, None if not started
    timed_out: bool
    stdout: bytes
    stderr: bytes


class Runner:
    """Starts the children one at a time inside the run's deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv: list[str]) -> Child:
        cap = min(CHILD_WALL_CAP_S, self.deadline - time.monotonic())
        if cap <= 0:
            return Child(0.0, 0.0, 0.0, None, True, b"", b"")
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT,
                                    preexec_fn=_limit_address_space)
            pidfd = os.pidfd_open(proc.pid)
            ready = []
            try:
                ready, _, _ = select.select([pidfd], [], [], cap)
            finally:
                os.close(pidfd)
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                         proc.returncode, not ready, out.read(), err.read())

    def cli(self, args) -> Child:
        return self.run([sys.executable, "-m", "sl2swc.cli", *args])

    def traced_cli(self, args, spans_path: Path, op: int) -> Child:
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        return self.run([sys.executable, str(BENCH_DIR / "traced_cli.py"),
                         str(spans_path), str(op), str(t0), "--", *args])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def failure_reason(child: Child) -> str | None:
    if child.code is None:
        return "not started: run deadline reached"
    if child.timed_out:
        return f"killed after the {CHILD_WALL_CAP_S} s wall-time cap"
    if child.code < 0:
        return f"killed by signal {-child.code}"
    if child.code != 0:
        return f"exit code {child.code}: {child.stderr[-300:].decode(errors='replace')}"
    return None


@dataclasses.dataclass
class Op:
    args: tuple[str, ...]
    check: object              # stdout bytes -> None if right, else the reason
    known_failure: bool = False

    @property
    def label(self) -> str:
        """The command without its cache directory, e.g. `swc --q 16 --rep reg`."""
        args = list(self.args)
        if "--cache-dir" in args:
            i = args.index("--cache-dir")
            del args[i:i + 2]
        return " ".join(args)


def golden_check(digest: str):
    def check(stdout: bytes):
        got = sha256(stdout)
        return None if got == digest else f"stdout sha256 {got} != golden {digest}"
    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, sizes: dict, seed: int, golden: dict, runner: Runner):
        self.sizes = sizes
        self.seed = seed
        self.golden = golden
        self.runner = runner
        self.rng = random.Random(seed)

    def setup(self, k: int) -> None:
        """Start the program once and check its output: both workloads need
        nothing else before the timed passes."""
        child = self.runner.cli(PROBE)
        reason = failure_reason(child) or golden_check(self.golden["probe"])(child.stdout)
        if reason:
            raise SetupFailed(f"sl2swc {' '.join(PROBE)}: {reason}")

    def ops(self, k: int) -> list[Op]:
        raise NotImplementedError

    def deferred_check(self, records) -> list[str]:
        return []


def n_classes(q: int) -> int:
    """Number of conjugacy classes, hence of irreducibles, of SL(2,q)."""
    return q + 4 if q % 2 else q + 1


class TableSwc(Workload):
    """Cold `table` builds on an empty cache, then `swc` calls that read those
    tables back: fixed `triv` and `reg` calls plus one seeded `S(Xk)` per q,
    which is orthogonal for every k and of degree at most 2(q+1), so the
    closed forms' share of a call stays small and a call times the read side
    of the cache."""

    def __init__(self, *args):
        super().__init__(*args)
        self.table_qs = list(self.sizes["table_qs"])
        self.rng.shuffle(self.table_qs)
        self.calls = list(self.sizes["swc_fixed"])
        self.calls += [(q, f"S(X{self.rng.randrange(1, n_classes(q) + 1)})")
                       for q in self.sizes["swc_seeded"]]
        self.rng.shuffle(self.calls)
        self.swc_qs = sorted({q for q, _ in self.calls})
        assert set(self.swc_qs) <= set(self.table_qs)

    def ops(self, k: int) -> list[Op]:
        self.cache = self.runner.work / f"cache-{k}"
        cache_arg = ("--cache-dir", str(self.cache))
        ops = [Op(("table", "--q", str(q), *cache_arg), self._table_check(q, self.cache))
               for q in self.table_qs]
        known = set(self.golden["known_failures"])
        for q, rep in self.calls:
            op = Op(("swc", "--q", str(q), "--rep", rep, *cache_arg), _is_json)
            if op.label in known:
                op.check, op.known_failure = self._known_failure_check(q), True
            elif rep in ("triv", "reg"):
                op.check = golden_check(self.golden["swc"][f"{q}:{rep}"])
            ops.append(op)
        return ops

    def _table_check(self, q: int, cache: Path):
        golden = golden_check(self.golden["tables"][str(q)])

        def check(stdout: bytes):
            reason = golden(stdout)
            if reason:
                return reason
            stored = list(cache.glob(f"table-sl2-{q}-v*.json"))
            if len(stored) != 1:
                return f"{len(stored)} cache files written for q={q}, want 1"
            if json.loads(stored[0].read_text())["digest"] != json.loads(stdout)["digest"]:
                return "cached table digest differs from the printed one"
            return None
        return check

    def _known_failure_check(self, q: int):
        """A known failure that starts to succeed must report reg's invariants:
        deg reg = |G|, and m = ell = |G|/q (q even)."""
        order = q * (q * q - 1)

        def check(stdout: bytes):
            out = json.loads(stdout)
            want = {"degree": order, "r_or_m": order // q, "ell": order // q}
            got = {k: out.get(k) for k in want}
            return None if got == want else f"{got} != {want}"
        return check

    def deferred_check(self, records) -> list[str]:
        """Outside the timed passes: the cached tables must read back to the
        cold bytes, and each seeded result must match the oracle-checked class."""
        sys.path.insert(0, str(SRC))
        from sl2swc import cli
        from sl2swc.oracle import Mismatch, verify_swc_formula
        from sl2swc.swc import total_swc

        cold = {int(r["args"][2]): r["stdout"] for r in records
                if r["args"][0] == "table" and not r["failure"]}
        problems = []
        tables = {}
        for q in self.swc_qs:
            table = cli.load_cached_table(self.cache, "sl2", q)
            if table is None:
                problems.append(f"q={q}: the built table is not a cache hit")
                continue
            tables[q] = table
            warm = (json.dumps(cli.serialize_table(table), indent=2, sort_keys=True)
                    + "\n").encode()
            if q in cold and warm != cold[q]:
                problems.append(f"q={q}: warm table bytes differ from the cold build")
        outputs = {}
        for r in records:
            if r["args"][0] == "swc" and r["args"][4] not in ("triv", "reg") \
                    and not r["failure"]:
                outputs.setdefault((int(r["args"][2]), r["args"][4]), set()).add(r["stdout"])
        for (q, expr), seen in outputs.items():
            if len(seen) != 1:
                problems.append(f"swc --q {q} --rep {expr!r}: output differs between passes")
                continue
            if q not in tables:
                continue
            out = json.loads(seen.pop())
            pi = cli.parse_rep(expr, tables[q])
            try:
                ref = verify_swc_formula(pi, CHECK_DEGREE)
            except Mismatch as e:
                problems.append(f"swc --q {q} --rep {expr!r}: oracle mismatch: {e}")
                continue
            want_r = ref["r"] if ref["parity"] == "odd" else ref["m"]
            if out["r_or_m"] != want_r or out["degree"] != ref["degree"]:
                problems.append(f"swc --q {q} --rep {expr!r}: r_or_m/degree differ from the oracle")
            if total_swc(pi, out["truncation"]).to_dict() != out["total"]:
                problems.append(f"swc --q {q} --rep {expr!r}: printed total differs")
        return problems


class VerifySuites(Workload):
    """Oracle suites with `--seed` as the suite seed; each must pass with the
    expected case count."""

    def ops(self, k: int) -> list[Op]:
        ops = []
        for q, suite, trials in self.sizes["verify"]:
            args = ["verify", "--q", str(q), "--suite", suite, "--seed", str(self.seed)]
            if trials is not None:
                args += ["--trials", str(trials)]
            cases = self.golden["verify_cases"][f"{q}:{suite}:{trials}"]
            ops.append(Op(tuple(args), self._check(cases, self.seed)))
        return ops

    def _check(self, cases: int, seed: int):
        def check(stdout: bytes):
            out = json.loads(stdout)
            (rep,) = out["suites"]
            if not out["ok"] or rep["passes"] != rep["cases"] or rep["failures"]:
                return f"suite failed: {rep['failures'][:3]}"
            if rep["cases"] != cases or rep["seed"] != seed:
                return f"{rep['cases']} cases with seed {rep['seed']}, want {cases} with {seed}"
            return None
        return check


def _is_json(stdout: bytes):
    try:
        json.loads(stdout)
    except ValueError as e:
        return f"stdout is not JSON: {e}"
    return None


WORKLOADS = {"table-swc": TableSwc, "verify-suites": VerifySuites}


# ---------------------------------------------------------------------------
# Passes and metrics
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Pass:
    wall_s: float
    records: list[dict]
    traces: list[dict]


def run_pass(wl: Workload, k: int, spans_dir: Path | None) -> Pass:
    ops = wl.ops(k)
    children = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if spans_dir is None:
            children.append(wl.runner.cli(op.args))
        else:
            children.append(wl.runner.traced_cli(op.args, spans_dir / f"op{i}.json", i))
    wall = time.perf_counter() - t0
    records, traces = [], []
    for i, (op, child) in enumerate(zip(ops, children)):
        reason = failure_reason(child)
        if reason is None:
            try:
                reason = op.check(child.stdout)
            except (ValueError, KeyError, TypeError) as e:
                reason = f"unreadable output: {type(e).__name__}: {e}"
        records.append({
            "pass": k, "traced": spans_dir is not None, "op": op.label,
            "args": op.args, "op_known_failure": op.known_failure,
            "wall_s": child.wall_s, "cpu_s": child.cpu_s, "rss_mb": child.rss_mb,
            "exit": child.code, "failure": reason, "stdout": child.stdout,
        })
        if spans_dir is not None and (spans_dir / f"op{i}.json").exists():
            traces.append(json.loads((spans_dir / f"op{i}.json").read_text()))
    return Pass(wall, records, traces)


def median_pass(passes: list[Pass], key: str) -> float:
    """One pass's `key` summed over its operations, each operation's value
    taken as its median over the passes: a burst of load on the host that
    slows one operation in one pass does not move the result."""
    return sum(statistics.median(p.records[i][key] for p in passes)
               for i in range(len(passes[0].records)))


def e2e_metrics(setups: list[float], passes: list[Pass]) -> dict:
    records = [r for p in passes for r in p.records]
    ok = [r for r in records if not r["failure"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median_pass(passes, "wall_s"), "s"),
        "cpu_s": (median_pass(passes, "cpu_s"), "s"),
        "peak_rss_mb": (max((r["rss_mb"] for r in ok), default=0.0), "MB"),
        "ops_ok_pct": (100 * len(ok) / len(records), "%"),
    }


def call_p50_ms(untraced: Pass) -> float:
    """Median latency of one call; a failed call counts as the wall-time cap."""
    return 1000 * statistics.median(r["wall_s"] if not r["failure"] else CHILD_WALL_CAP_S
                                    for r in untraced.records)


LAYER_UNITS = {"cli.call_p50_ms": "ms", "cli.cache_hits": "count", "cli.cache_misses": "count",
               "cli.table_bytes": "bytes", "groups.power_products": "count",
               "characters.cyclo_phi": "count", "oracle.cases": "count",
               "oracle.mismatches": "count", "oracle.case_p50_ms": "ms",
               "oracle.case_p95_ms": "ms"}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def metadata(workload: str, seed: int, trace: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"workload": workload, "seed": seed, "trace": trace, "commit": git_commit(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy}


def main(argv=None, sizes=FULL) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "sl2swc" / "cli.py").is_file():
        print(f"no sl2swc sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        runner = Runner(work, start + RUN_DEADLINE_S)
        wl = WORKLOADS[args.workload](sizes, args.seed, golden, runner)
        setups = []
        for k in range(SETUP_REPEATS if not args.trace else 1):
            t0 = time.perf_counter()
            wl.setup(k)
            setups.append(time.perf_counter() - t0)

        passes = []
        if args.trace:
            passes.append(run_pass(wl, 0, None))
            spans_dir = work / "spans"
            spans_dir.mkdir()
            passes.append(run_pass(wl, 1, spans_dir))
        else:
            t_measure = time.perf_counter()
            while True:
                passes.append(run_pass(wl, len(passes), None))
                last = passes[-1].wall_s
                if time.monotonic() + 1.5 * last > runner.deadline:
                    break
                if len(passes) >= MIN_PASSES \
                        and time.perf_counter() - t_measure + last > args.seconds:
                    break

        records = [r for p in passes for r in p.records]
        problems = [f"{r['op']}: {r['failure']}" for r in records
                    if r["failure"] and not r["op_known_failure"]]
        try:
            problems += wl.deferred_check(records)
        except (ValueError, KeyError, TypeError) as e:
            problems.append(f"in-process check: {type(e).__name__}: {e}")
        failed = sum(1 for r in records if r["failure"])

        if args.trace:
            layers = tracer.layer_metrics(passes[1].traces)
            layers["trace.overhead_s"] = passes[1].wall_s - passes[0].wall_s
            layers["cli.call_p50_ms"] = call_p50_ms(passes[0])
            metrics = {k: {"value": v, "unit": LAYER_UNITS.get(k, "s")}
                       for k, v in sorted(layers.items())}
            spans = [dict(zip(("id", "name", "parent", "start_ns", "end_ns", "op", "note"), s),
                          self_ns=own)
                     for tr in passes[1].traces
                     for s, own in zip(tr["spans"], tracer.self_times(tr["spans"]))]
            (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(spans, separators=(",", ":")))
        else:
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in e2e_metrics(setups, passes).items()}
    except SetupFailed as e:
        print(f"set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = metadata(args.workload, args.seed, args.trace)
    meta.update(passes=len(passes), setup_repeats=len(setups), problems=problems)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "ops": [{k: v for k, v in r.items() if k != "stdout"}
                                          for r in records], "metrics": metrics}, indent=1))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(meta))
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
