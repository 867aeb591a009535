"""Steadiness check for the skysched benchmark.

    python3 skybench/steady.py --out set1.json
    python3 skybench/steady.py --out set2.json --compare set1.json

Runs `run.py` once per workload of BENCHMARK.json and seed 0-9, one process
at a time, with the `run_seconds` of BENCHMARK.json. For each workload and
end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(n=4)`) and the spread (q3 - q1) / median next to the
metric's bound. Exit status 1 when a run fails, is incorrect or counts a
failed operation, when a spread other than setup_s's exceeds its bound (see
UNGATED_SPREADS), when the runs of one
(workload, seed) give different output hashes, or, with --compare, when a
median differs from the earlier set's by more than its bound in either
direction (max(a/b, b/a) - 1).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_LINE = re.compile(r"output sha256 (\w+)")
SEEDS = range(10)
# setup_s is one cold start of about 0.5-0.8 s per run: a single sample, so a
# host slowdown during those few hundred milliseconds moves it undamped (its
# spread reached 0.28 in one ten-seed set). It is judged on its median
# against the earlier set's; a spread above its bound is printed but does not
# fail the set.
UNGATED_SPREADS = {"setup_s"}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    hashes = HASH_LINE.findall(proc.stderr)
    result["hash"] = hashes[-1] if hashes else None
    result["seed"] = seed
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write this set's results to")
    parser.add_argument("--compare", help="results JSON of an earlier set")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    runs = {w["name"]: [] for w in bench["workloads"]}
    ok = True
    for workload in runs:
        for seed in SEEDS:
            result = run_once(workload, seed, bench["run_seconds"])
            runs[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} {result['failed']}/{result['attempted']} failed {values}", flush=True)
            ok = ok and result["correct"]
    Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")

    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    for workload, results in runs.items():
        print(f"\n{workload}")
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, rel = spread(values)
            flag = ""
            if rel > spec["bound"] and name in UNGATED_SPREADS:
                flag = "  spread above bound (not gated)"
            elif rel > spec["bound"]:
                flag, ok = "  SPREAD ABOVE BOUND", False
            elif rel > spec["bound"] / 3:
                flag = "  spread above bound/3"
            line = f"  {name:16s} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {rel:.3f} (bound {spec['bound']})"
            if workload in earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                change = (median - before) / before
                apart = max(median / before, before / median) - 1.0
                line += f"  vs earlier {before:.5g} ({change:+.3f})"
                if apart > spec["bound"]:
                    flag, ok = flag + "  MEDIANS APART BY MORE THAN BOUND", False
            print(line + flag)
        failed_share = {(r["failed"], r["attempted"]) for r in results}
        print(f"  failed/attempted per run: {sorted(failed_share)}")
        if any(f for f, _ in failed_share):
            ok = False
        by_seed = {r["seed"]: r["hash"] for r in results}
        for r in earlier.get(workload, []):
            if r["seed"] in by_seed and r["hash"] != by_seed[r["seed"]]:
                print(f"  HASH DIFFERS for seed {r['seed']}: {r['hash']} then {by_seed[r['seed']]}")
                ok = False
        if None in by_seed.values():
            print("  a run printed no output hash")
            ok = False
    print("\nSTEADY" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
