"""Smoke test of the benchmark: every workload at small q, untraced and traced.

    python3 perfbench/smoke.py     # from the root of a checkout

Checks that each run is correct and prints every metric BENCHMARK.json names,
each with its unit.  Takes about half a minute.
"""

import contextlib
import io
import json
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", wl["name"], "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace)], sizes=run.TINY)
            res = json.loads(out.getvalue().strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            where = f"{wl['name']} --trace {trace}"
            if code != 0 or not res["correct"] or res["failed"]:
                bad.append(f"{where}: exit {code}, result {res}")
            if got != want[trace]:
                bad.append(f"{where}: metrics {got} != {want[trace]}")
            if not all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                bad.append(f"{where}: a metric value is not a number")
            print(f"{where}: {len(got)} metrics, attempted {res['attempted']}", file=sys.stderr)
    for b in bad:
        print(b, file=sys.stderr)
    print("smoke:", "FAIL" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
