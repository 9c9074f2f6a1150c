#!/usr/bin/env python3
"""Runs the benchmark once per seed on each named workload and prints, per
end-to-end metric, the median, the quartiles and the spread (the distance
between the quartiles as a share of the median), with the share of failed
operations. Run from the root of the repository:

    python3 perfbench/spread.py --seeds 1-10 wire-proposal engine-original sim-proposal
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return [str(s) for s in range(int(lo), int(hi or lo) + 1)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for wl in args.workloads:
        values, failed = {}, set()
        for seed in seed_list(args.seeds):
            p = subprocess.run(["bash", "perfbench/run.sh", "--workload", wl, "--seed", seed,
                                "--seconds", args.seconds, "--trace", "0"], capture_output=True, text=True)
            if p.returncode != 0:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}{p.stdout[-2000:]}")
                ok = False
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            failed.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), flush=True)
        print(f"{wl}: {len(values.get('setup_s', []))} runs, failed shares {sorted(failed)}")
        for name, xs in sorted(values.items()):
            if len(xs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread <= bounds[name] / 3 else "  (above a third of the bound)"
            print(f"  {name:18s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}  bound {bounds[name]}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
