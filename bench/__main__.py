"""``python3 -m bench run|compare`` — see ``bench/README.md``."""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional

from bench import ROOT, SRC


def _commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def _print_run(result: Dict[str, Any], units: Dict[str, str], bounds: Dict[str, float]) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end (tracing off)"
    print(f"== {result['workload']} — {kind}, seed {result['seed']}, {result['seconds']:g} s ==")
    for name, (value, noise) in result["figures"].items():
        unit = units.get(name, "ms" if name.endswith("_ms") else "")
        gate = f"  bound {bounds[name]:.0%}" if name in bounds else ""
        shown = f"  noise {noise:.1%}" if noise else ""
        print(f"  {name:<48s} {value:>14.4f} {unit:<6s}{shown}{gate}")
    print(f"  samples per class: {result['samples']}")
    print(
        f"  attempted {result['attempted']}, failed {result['failed']}, "
        f"oracle checks {result['oracle_checks']}"
    )
    if result.get("setups_s"):
        print("  SUT spawn → ready, each: " + ", ".join(f"{s:.3f} s" for s in result["setups_s"]))
    if result.get("open_loop"):
        print(
            f"  open loop: late_share {result['open_loop']['late_share']:.4f}, "
            f"max lag {result['open_loop']['max_lag_ms']:.2f} ms"
        )
    if result["trace"]:
        print(
            f"  traced ops {result['traced_ops']}: mean {result['traced_mean_ms']:.3f} ms, "
            f"p50 {result['traced_p50_ms']:.3f} ms (untraced p50 {result['untraced_p50_ms']:.3f} ms)"
        )
        for op_class, by_layer in sorted(result["by_class"].items()):
            total = sum(by_layer.values())
            top = sorted(by_layer.items(), key=lambda item: -item[1])[:6]
            shares = ", ".join(f"{layer} {value / total:.0%}" for layer, value in top if total)
            print(f"  {op_class:<12s} {total / 1000:.3f} ms: {shares}")
    for error in result["errors"]:
        print(f"  ! {error}")


def _run(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no system to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    from bench import config, runner

    if args.workload and args.workload not in config.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    catalogue = runner.catalogue()
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in catalogue[section]}
    bounds = {metric["name"]: metric["bound"] for metric in catalogue["end_to_end"]}
    workloads = [args.workload] if args.workload else list(config.WORKLOADS)
    seconds = args.seconds if args.seconds is not None else (3 if args.smoke else catalogue["run_seconds"])
    results = []
    for workload in workloads:
        measure = runner.run_traced if args.trace else runner.run_end_to_end
        result = measure(workload, args.seed, float(seconds), args.smoke)
        missing = sorted(set(units) - set(result["figures"]))
        if missing:
            raise SystemExit(f"bench: BENCHMARK.json names metrics the run did not produce: {missing}")
        result["environment"] = {
            "commit": _commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "population": config.SMOKE_POPULATION if args.smoke else config.POPULATION,
        }
        _print_run(result, units, bounds)
        results.append(result)
    if args.out:
        _append(args.out, results)
    # The last line of stdout is the machine-readable result (of the last
    # workload run; the driver always names one).
    last = results[-1]
    print(
        json.dumps(
            {
                "correct": last["failed"] == 0,
                "attempted": max(last["attempted"], 1),
                "failed": last["failed"],
                "metrics": {
                    name: {"value": last["figures"][name][0], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


def _append(path: str, results: List[Dict[str, Any]]) -> None:
    """``--out`` accumulates: repeated runs into one file make the
    several-runs-per-side input ``compare`` wants."""
    runs: List[Dict[str, Any]] = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    runs.extend(results)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure one workload (default: all five)")
    run.add_argument("--workload")
    run.add_argument("--seed", type=int, default=1994)
    run.add_argument("--seconds", type=float, help="measured time per run")
    run.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced, per-layer run",
    )
    run.add_argument("--smoke", action="store_true", help="2 000 offers, one short window")
    run.add_argument("--out", help="append the full result to this JSON file")
    compare = commands.add_parser("compare", help="compare result files, base first")
    compare.add_argument("files", nargs="+")
    compare.add_argument(
        "--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
        help="a metric the change claims to improve",
    )
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args)
    from bench import compare as comparing

    return comparing.main(args.files, args.claim)


if __name__ == "__main__":
    sys.exit(main())
