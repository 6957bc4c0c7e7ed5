"""Write perfbench/golden.json: the outputs the benchmark checks against.

    python3 perfbench/make_golden.py     # from the root of a checkout

It records the SHA-256 of the stdout of every `table` the workloads build, of
the set-up probe and of the fixed `swc` calls, and the case count of every
verification suite they run (case counts do not depend on the seed).  Run it
only where an output change is intended; the values committed with the
benchmark come from the commit that defined it.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import run

# operations that fail at the commit that defined the benchmark; each stays
# in its workload and is counted as failed, and the run stays correct
KNOWN_FAILURES = {
    "swc --q 16 --rep reg": (
        "MemoryError under the 512 MiB address-space cap; without a cap it grew past "
        "7 GB and was killed after 266 s. Suspected site, unverified: top_class_nonzero "
        "calling total_swc at D = deg reg = 4080, past TRUNCATION_CAP"),
}
# defects that keep an operation out of every workload
NOT_RUN = {
    "verify --q 16 --suite theorem": (
        "reached ~950 MB after 2 trials; its default 200 trials were OOM-killed"),
}


def main() -> int:
    sizes = [run.FULL, run.TINY]
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as work:
        runner = run.Runner(Path(work), time.monotonic() + 3600)

        def stdout_of(args):
            child = runner.cli(args)
            reason = run.failure_reason(child)
            if reason:
                sys.exit(f"sl2swc {' '.join(args)}: {reason}")
            return child.stdout

        cache = str(Path(work) / "cache")
        qs = sorted({q for s in sizes for q in s["table_qs"]})
        tables = {str(q): run.sha256(stdout_of(("table", "--q", str(q), "--cache-dir", cache)))
                  for q in qs}
        swc = {}
        for q, rep in sorted({call for s in sizes for call in s["swc_fixed"]}):
            if f"swc --q {q} --rep {rep}" not in KNOWN_FAILURES:
                args = ("swc", "--q", str(q), "--rep", rep, "--cache-dir", cache)
                swc[f"{q}:{rep}"] = run.sha256(stdout_of(args))
        cases = {}
        for q, suite, trials in sorted({v for s in sizes for v in s["verify"]}, key=str):
            args = ("verify", "--q", str(q), "--suite", suite, "--seed", "0")
            args += ("--trials", str(trials)) if trials is not None else ()
            (report,) = json.loads(stdout_of(args))["suites"]
            cases[f"{q}:{suite}:{trials}"] = report["cases"]
        golden = {
            "probe": run.sha256(stdout_of(run.PROBE)),
            "tables": tables,
            "swc": swc,
            "verify_cases": cases,
            "known_failures": KNOWN_FAILURES,
            "not_run": NOT_RUN,
        }
    (run.BENCH_DIR / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
