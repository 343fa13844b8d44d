"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-fanout --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the run's inputs, each in a child process of its
own, and prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures the first input once untraced and once with every
layer wrapped, each in a child process of its own, and prints the
per-layer metrics.  Progress lines go to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
under test is imported from ``src/`` next to this directory; without it
the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"

#: Longest one input may take in its child process.
INPUT_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--input-seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_in_child(args, input_seed: int, traced: bool = False) -> dict:
    """Measure one input in a fresh interpreter; echo its progress lines."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--input-seed", str(input_seed),
    ] + (["--traced"] if traced else [])
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=INPUT_TIMEOUT_S, cwd=ROOT, check=False
    )
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"input seed {input_seed} failed with exit code {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SOURCES}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in contract["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; expected one of {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    import workloads

    if args.input_seed is not None:
        if args.traced:
            part = workloads.trace_input(args.workload, args.input_seed, args.seed)
        else:
            part = workloads.measure_input(args.workload, args.input_seed)
        print(json.dumps(part), flush=True)
        return 0
    seeds = workloads.input_seeds(workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    if args.trace:
        untraced = measure_in_child(args, seeds[0])
        traced = measure_in_child(args, seeds[0], traced=True)
        result = workloads.traced_result(args.workload, untraced, traced)
    else:
        result = workloads.pool([measure_in_child(args, seed) for seed in seeds], print)
    declared = contract["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(result["metrics"]):
        print(
            f"error: measured metrics {sorted(result['metrics'])} differ from "
            f"the declared {sorted(units)}",
            file=sys.stderr,
        )
        return 1
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
