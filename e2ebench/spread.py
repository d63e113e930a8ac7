#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and drift between two run sets.

Runs every workload once per seed (untraced), then reports for each
end-to-end metric the median, the quartiles and the spread: the
distance between the first and third quartile over the median, next to
the metric's bound from BENCHMARK.json.

    python3 e2ebench/spread.py --runs 10 --first-seed 1 --out e2ebench/results/runs-a.json
    python3 e2ebench/spread.py --compare e2ebench/results/runs-a.json e2ebench/results/runs-b.json

Run from the repository root. `--bin` runs an already built benchmark
executable instead of going through `cargo run`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def bench_command(args, workload, seed):
    if args.bin:
        cmd = [args.bin]
    else:
        cmd = ["cargo", "run", "--release", "--offline", "--quiet",
               "--manifest-path", "e2ebench/Cargo.toml", "--"]
    return cmd + ["--workload", workload, "--seed", str(seed), "--trace", "0"]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def run_set(args, bench):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    result = {"seeds": [], "workloads": {}}
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(bench_command(args, w, seed), capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed} failed ({out.returncode}):\n{out.stderr}")
            line = json.loads(lines[-1])
            if not line["correct"] or line["failed"]:
                sys.exit(f"{w} seed {seed}: {line}")
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed} " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        result["workloads"][w] = {name: {"values": v, **summarize(v)} for name, v in values.items()}
    result["seeds"] = [args.first_seed + i for i in range(args.runs)]
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="", help="comma-separated subset")
    p.add_argument("--bin", default="", help="prebuilt benchmark executable")
    p.add_argument("--out", default="", help="write the run set as JSON")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        ok = True
        for w, metrics in sets[0]["workloads"].items():
            for name, first in metrics.items():
                second = sets[1]["workloads"][w][name]
                m = bounds[name]
                drift = (second["median"] - first["median"]) / first["median"]
                worse = drift if m["better"] == "lower" else -drift
                verdict = "ok" if worse <= m["bound"] else "WORSE"
                ok &= verdict == "ok"
                print(f"{w:18} {name:16} {first['median']:12.6g} {second['median']:12.6g} drift {drift:+.4f} bound {m['bound']} {verdict}")
        sys.exit(0 if ok else 1)

    result = run_set(args, bench)
    ok = True
    for w, metrics in result["workloads"].items():
        for name, s in metrics.items():
            bound = bounds[name]["bound"]
            # Every spread must stay under a third of its bound.
            verdict = "ok" if s["spread"] < bound / 3 else "WIDE"
            ok &= verdict == "ok"
            print(f"{w:18} {name:16} median {s['median']:12.6g} spread {s['spread']:.4f} bound {bound} {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
