#!/usr/bin/env python3
"""Runs the benchmark on several seeds and records the spread of each metric.

    python3 perfbench/steady.py --workloads paper-suite,fuzz-corpus,tcad-storm \
        --seeds 1-10 --sets 2 --out perfbench/steadiness.json

Run from the repository root. Each set runs every workload once per seed.
For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and the bound from BENCHMARK.json. With more than one
set it also prints how far each later set's median moved from the first
set's, in the metric's worse direction. It writes the same figures, with
every run's values and summary line, to --out.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(bench, workloads, seeds, seconds, bounds):
    record, ok = {}, True
    for w in workloads:
        runs = []
        for s in seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                sys.exit(f"{w} seed {s}: exit {out.returncode}\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["summary"] = [l for l in lines[:-1] if l.startswith(w + " seed=")]
            runs.append(res)
            print(f"{w} seed {s}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
                  flush=True)
        summary = {}
        for name in sorted(bounds):
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": vals}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- spread >= bound/3"
            if flag:
                ok = False
            print(f"  {w:12s} {name:14s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.2%}  bound {bounds[name]:.2f}{flag}")
        record[w] = {
            "metrics": summary,
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "summaries": [r["summary"] for r in runs],
        }
    return record, ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sign = {m["name"]: 1 if m["better"] == "lower" else -1 for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    sets, ok = [], True
    for k in range(args.sets):
        print(f"set {k + 1} of {args.sets}", flush=True)
        rec, set_ok = run_set(bench, workloads, args.seeds, seconds, bounds)
        sets.append(rec)
        ok = ok and set_ok
    worse = {}
    for k in range(1, len(sets)):
        for w in workloads:
            for name in sorted(bounds):
                first = sets[0][w]["metrics"][name]["median"]
                later = sets[k][w]["metrics"][name]["median"]
                change = sign[name] * (later - first) / first if first else 0.0
                worse.setdefault(w, {}).setdefault(name, []).append(change)
                flag = "  <-- worse by more than the bound" if change > bounds[name] else ""
                if flag:
                    ok = False
                print(f"  set {k + 1} vs set 1: {w:12s} {name:14s} worse by {change:7.2%}  "
                      f"bound {bounds[name]:.2f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "seeds": args.seeds, "sets": sets,
                       "median_worse_than_set1": worse}, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
