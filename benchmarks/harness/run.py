#!/usr/bin/env python3
"""The request-path benchmark: four workloads, end to end and layer by layer.

Two ways to call it.

The whole report, for people::

    PYTHONPATH=src python benchmarks/harness/run.py --seed 0

builds one demo pool, runs every workload with all tracing off, checks
every answer, prints the end-to-end metrics, then replays the first quarter
of each workload's ops traced and prints the per-layer metrics and the
waterfall.

One measurement, for the driver that gates later changes::

    python3 benchmarks/harness/run.py --workload NAME --seed N --seconds S --trace 0|1

runs that one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

See README.md next to this file for workloads, metrics and their bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
#: Complete set-ups (pool build, start, warm-up) per gated measurement; ``setup_s`` is their median.
SETUPS_PER_MEASUREMENT = 3
#: ``--smoke`` measures for this share of the usual time.
SMOKE_SHARE = 0.02


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the load generator")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: one workload, result as one JSON line; "
                             "0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced replay")
    parser.add_argument("--smoke", action="store_true",
                        help="2%% of the measuring time, every correctness check")
    parser.add_argument("--out", metavar="FILE",
                        help="append this run to FILE (JSON; created if missing) for compare.py")
    parser.add_argument("--trace-out", metavar="FILE", help="write the recorded spans as JSONL")
    return parser.parse_args(argv)


def environment(seed, seconds) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "seed": seed,
        "seconds": seconds,
    }


def append_run(path: str, run: dict) -> None:
    """One file holds the runs of one commit; compare.py reads two such files."""
    document = {"schema": 1, "runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            document = json.load(fh)
    document["runs"].append(run)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")


def _shown(value) -> str:
    return "null".rjust(14) if value is None else f"{value:>14.4f}"


def print_report(name, result, specs) -> None:
    end_to_end, per_layer = specs
    print(f"\n== {name}: {result['attempted']} attempted, {result['succeeded']} succeeded, "
          f"{result['failed']} failed (failed_share {result['failed_share']:.6f}); "
          f"{result['predictions_checked']} predictions checked against autograd; "
          f"{result['samples_beyond_p95']} samples beyond p95 in a window")
    for error in result["errors"]:
        print(f"   ! {error}")
    for metric, unit, _better, bound in end_to_end:
        print(f"   {metric:<38} {_shown(result['end_to_end'][metric])} {unit:<7} (bound {bound:.0%})")
    if "per_layer" not in result:
        return
    print(f"   -- per layer, traced replay of {result['traced_ops']} ops --")
    for metric, unit, _better in per_layer:
        print(f"   {metric:<38} {_shown(result['per_layer'][metric])} {unit}")
    if result["trace_gaps"]:
        print(f"   trace_gaps: {', '.join(result['trace_gaps'])}")
    print("   -- waterfall: self time per op, microseconds --")
    for layer, micros in sorted(result["waterfall"].items(), key=lambda item: -item[1]):
        print(f"   {layer:<38} {micros:>14.2f}")
    print(f"   {'(unattributed)':<38} {result['per_layer']['waterfall.unattributed_us']:>14.2f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # a polite kill unwinds through the ``finally`` blocks that stop the shard workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one BLAS thread, pinned before numpy loads: a 2-core box must not be oversubscribed
    for name in BLAS_ENV:
        os.environ[name] = "1"
    if (ROOT / "src").is_dir():
        sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads as W
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    import opgen

    names = args.workload or list(opgen.WORKLOAD_NAMES)
    unknown = [name for name in names if name not in opgen.WORKLOAD_NAMES]
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {opgen.WORKLOAD_NAMES}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        with open(ROOT / "BENCHMARK.json") as fh:
            seconds = float(json.load(fh)["run_seconds"])
    if args.smoke:
        seconds *= SMOKE_SHARE
    driver_mode = args.trace is not None
    if driver_mode and len(names) != 1:
        print("--trace takes exactly one --workload", file=sys.stderr)
        return 2

    run = {"workloads": {}}
    span_sink = open(args.trace_out, "w") if args.trace_out else None
    try:
        if driver_mode:
            name = names[0]
            result = W.measure(
                name, args.seed, seconds,
                trace=bool(args.trace),
                setups=1 if args.trace else SETUPS_PER_MEASUREMENT,
                span_sink=span_sink,
                say=lambda text: print(text, file=sys.stderr),
            )
            run["workloads"][name] = result
            units = {metric: unit for metric, unit, *_ in W.END_TO_END + W.PER_LAYER}
            values = result["per_layer"] if args.trace else result["end_to_end"]
            for error in result["errors"]:
                print(f"! {error}", file=sys.stderr)
            line = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
            }
            status = 0
        else:
            shared = W.build_pool()
            print(f"pool built in {shared[2]:.2f} s; nproc={os.cpu_count()} "
                  f"{' '.join(f'{name}=1' for name in BLAS_ENV)} seed={args.seed} seconds={seconds:g}")
            for name in names:
                try:
                    result = W.measure(name, args.seed, seconds, trace=not args.no_trace,
                                     setups=1, pool=shared, span_sink=span_sink)
                except Exception as error:  # one broken workload must not hide the other three
                    print(f"\n== {name}: aborted: {type(error).__name__}: {error}")
                    run["workloads"][name] = {"correct": False, "aborted": repr(error)}
                    continue
                run["workloads"][name] = result
                print_report(name, result, (W.END_TO_END, W.PER_LAYER))
            status = 0 if all(w["correct"] for w in run["workloads"].values()) else 1
            print("\nall answers correct" if status == 0 else "\nFAILED: see above")
    finally:
        if span_sink is not None:
            span_sink.close()
    if args.out:
        append_run(args.out, {**environment(args.seed, seconds), **run})
    if driver_mode:
        print(json.dumps(line))
    return status


if __name__ == "__main__":
    sys.exit(main())
