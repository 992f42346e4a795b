"""Runs one twigperf workload on several seeds and reports, per metric, the
median and the spread (distance between the first and third quartile as a
share of the median), the statistic the bounds in BENCHMARK.json are set
against.

    python3 twigperf/steady.py read-warm 1 2 3 4 5 [--seconds 10] [--trace 1]
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seeds", nargs="+", type=int)
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    runs = []
    for seed in args.seeds:
        cmd = ["bash", "twigperf/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            sys.exit("seed %d failed: %s" % (seed, out.stderr[-2000:]))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(res)
        print("seed %d: attempted %d failed %d correct %s" % (seed, res["attempted"], res["failed"], res["correct"]),
              flush=True)
    names = sorted(runs[0]["metrics"])
    print("%-36s %14s %10s  values" % ("metric", "median", "spread"))
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and med != 0:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
        print("%-36s %14.6g %10.4f  %s" % (name, med, spread, " ".join("%.4g" % v for v in vals)))
    shares = {r["failed"] / r["attempted"] for r in runs}
    print("failed shares:", sorted(shares))


if __name__ == "__main__":
    main()
