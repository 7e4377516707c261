"""Run every workload, untraced and traced, and record one trajectory point.

    python3 bench/record.py --seed 1 --out bench/results/<commit>.json

Each run is a separate ``run.py`` process, so peak memory stays per workload.
Prints every metric by name with its unit; with ``--out`` it also writes the
stamp and both metric sets of every workload to that file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from workloads import HERE, ROOT, WORKLOADS


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    stamp = json.loads(lines[0][2:])
    return stamp, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    record = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        entry = record["workloads"][name] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            stamp, result = run(name, args.seed, seconds, trace)
            record["stamp"] = {k: stamp[k] for k in ("commit", "python", "nproc", "cpu")}
            entry[key] = result
            print(f"== {name} --trace {trace}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            for metric, value in result["metrics"].items():
                print(f"   {metric} = {value['value']:.6g} {value['unit']}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
