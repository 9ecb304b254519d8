"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 bench/repeat.py --workload sign-local --seeds 1 2 3 4 5 [--seconds 30]

Runs ``bench/run.py --trace 0`` for each seed, one run at a time. For each
end-to-end metric in BENCHMARK.json it prints the values, their median, the
distance between the first and third quartiles (``statistics.quantiles``,
n=4) as a share of the median, and the metric's bound. The last column is
the largest deviation of a later seed's value from the first seed's, as a
share of the first: run the default seed first and a held-out seed after it
to check that the baseline is not tied to the default seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: incorrect result\n{proc.stdout}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        metrics = run_once(args.workload, seed, seconds)["metrics"]
        for name in values:
            values[name].append(metrics[name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              file=sys.stderr, flush=True)

    summary = {}
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        first = vals[0]
        summary[metric["name"]] = {
            "values": vals, "median": med, "iqr_share": (q3 - q1) / med,
            "bound": metric["bound"],
            "max_dev_from_first": max((abs(v - first) / first for v in vals[1:]), default=0.0),
        }
    for name, s in summary.items():
        print(f"{args.workload:14s} {name:20s} median={s['median']:.6g} "
              f"iqr/median={s['iqr_share']:.4f} bound={s['bound']} "
              f"dev_from_first={s['max_dev_from_first']:.4f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
