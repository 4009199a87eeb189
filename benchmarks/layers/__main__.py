"""Command line of the layered benchmark.

``python3 -m benchmarks.layers --seed 11`` runs every workload untraced and
traced plus the layer probes, prints every metric and writes
``out/results.json``. The driver's form,
``--workload W --seed N --seconds S --trace 0|1``, runs one workload and
prints one JSON object as the last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional

from repro.observability import metrics_enabled, tracing_enabled

from . import graph_query, graph_update, kv_adhoc, serve_mixed
from .compare import compare_files, compare_results
from .harness import OUT_DIR, SETUPS, measure, pin, set_up, trace
from .metrics import END_TO_END, PER_LAYER, UNITS
from .probes import Probes

WORKLOADS = {module.NAME: module
             for module in (graph_query, kv_adhoc, serve_mixed, graph_update)}
#: Repetitions when neither ``--seconds`` nor ``--reps`` is given.
DEFAULT_REPS = 5
#: ``--smoke``: 8 % of the operations, one repetition, one set-up (< 15 s).
SMOKE_SCALE = 0.08


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=serve_mixed.REPO_ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": args.cpu,
        "python": platform.python_version(),
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": args.reps,
        "scale": args.scale,
        "fsync_policy": serve_mixed.FSYNC_POLICY,
        "metrics_enabled": metrics_enabled(),
        "tracing_enabled": tracing_enabled(),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def run_workload(name: str, args: argparse.Namespace, traced: Optional[bool]
                 ) -> Dict[str, Any]:
    """One workload: untraced (``traced`` False), traced (True) or both
    (None). The instance is closed however the run ends."""
    module = WORKLOADS[name]

    def setup():
        return module.setup(args.seed, args.scale)

    record: Dict[str, Any] = {"why": module.WHY}
    instance = None
    try:
        if traced is not True:
            instance, measured = measure(
                setup, args.seconds, args.reps, args.setups)
            record.update(measured)
        else:
            instance, _seconds, failed, attempted = set_up(setup)
            record.update(attempted=attempted, failed=failed, errors=[])
        if traced is not False:
            os.makedirs(OUT_DIR, exist_ok=True)
            traced_run = trace(instance, os.path.join(OUT_DIR, f"trace_{name}.json"))
            record["attempted"] += traced_run.pop("attempted")
            record["failed"] += traced_run.pop("failed")
            record["errors"] += traced_run.pop("errors")
            record["trace"] = traced_run
            record["plan_shapes"] = instance.plan_shapes()
        if traced is not True:
            # last, because it kills the server
            record["lost_acked_writes"] = instance.lost_acked_writes()
            record["failed"] += record["lost_acked_writes"]
    finally:
        if instance is not None:
            instance.close()
    record["failed_share"] = record["failed"] / record["attempted"]
    return record


def print_report(results: Dict[str, Any]) -> None:
    for name, record in results["workloads"].items():
        print(f"\n== {name}: {record['why']}")
        print(f"   attempted={record['attempted']} failed={record['failed']} "
              f"failed_share={record['failed_share']:.6f}"
              + (f" lost_acked_writes={record['lost_acked_writes']}"
                 if "lost_acked_writes" in record else ""))
        for error in record["errors"]:
            print(f"   ! {error}")
        if "end_to_end" in record:
            print(f"   {record['reps']} repetitions of {record['ops_per_rep']} "
                  f"operations, {record['clients']} client(s), samples per "
                  f"repetition {record['samples_per_rep']}")
            for metric, entry in record["end_to_end"].items():
                print(f"   {metric:<16} {entry['value']:>14.4f} {UNITS[metric]:<4}"
                      f" spread {entry['spread']:.3f}")
        if "trace" in record:
            shares = ", ".join(f"{layer} {share:.1%}" for layer, share
                               in record["trace"]["self_time_share"].items())
            print(f"   traced self time: {shares}")
            print(f"   tracing overhead: "
                  f"{record['trace']['trace_overhead_share']:.1%}")
            for cls, shape in record["plan_shapes"].items():
                print(f"   plan {cls}: {shape}")
    if "per_layer" in results:
        print("\n== per-layer probes")
        for metric, entry in results["per_layer"].items():
            mark = " (derived)" if entry["derived"] else ""
            print(f"   {metric:<36} {entry['value']:>14.4f} {entry['unit']:<6}"
                  f"{mark}  -> {entry['moves']}")


def run_isolated(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """One workload, untraced and traced, in a process of its own, so that
    its peak RSS and heap are not the previous workload's."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"record_{name}.json")
    command = [sys.executable, "-m", "benchmarks.layers", "--workload", name,
               "--seed", str(args.seed), "--record", path]
    if args.smoke:
        command.append("--smoke")
    for flag in ("seconds", "reps"):
        if getattr(args, flag) is not None and not args.smoke:
            command += [f"--{flag}", str(getattr(args, flag))]
    subprocess.run(command, cwd=serve_mixed.REPO_ROOT, check=True)
    with open(path) as handle:
        return json.load(handle)


def run(args: argparse.Namespace) -> Dict[str, Any]:
    """Everything ``args`` selects; returns the ``results.json`` document."""
    traced = None if args.trace is None else bool(args.trace)
    results: Dict[str, Any] = {"env": environment(args), "workloads": {}}
    if args.workload:
        results["workloads"][args.workload] = run_workload(
            args.workload, args, traced)
    else:
        for name in WORKLOADS:
            results["workloads"][name] = run_isolated(name, args)
    if traced is not False and not args.record:
        probes = Probes(args.seed, args.scale).run()
        results["probes"] = {"attempted": probes.attempted,
                             "failed": probes.failed, "errors": probes.errors}
        results["per_layer"] = {
            metric.name: {"value": probes.values.get(metric.name),
                          "unit": metric.unit, "derived": metric.derived,
                          "moves": metric.moves}
            for metric in PER_LAYER
        }
        # the one layer metric that belongs to a workload's own traced run
        overheads = [record["trace"]["trace_overhead_share"]
                     for record in results["workloads"].values()]
        results["per_layer"]["observability.trace_overhead_share"]["value"] = (
            sum(overheads) / len(overheads))
    return results


def contract_line(results: Dict[str, Any], workload: str, traced: bool) -> str:
    """The driver's result object for a single-workload run."""
    record = results["workloads"][workload]
    if traced:
        metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
                   for name, entry in results["per_layer"].items()}
        attempted = record["attempted"] + results["probes"]["attempted"]
        failed = record["failed"] + results["probes"]["failed"]
    else:
        metrics = {metric.name: {"value": record["end_to_end"][metric.name]["value"],
                                 "unit": metric.unit}
                   for metric in END_TO_END}
        attempted, failed = record["attempted"], record["failed"]
    finite = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                 for m in metrics.values())
    return json.dumps({"correct": failed == 0 and finite, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def total_failed(results: Dict[str, Any]) -> int:
    return (sum(record["failed"] for record in results["workloads"].values())
            + results.get("probes", {}).get("failed", 0))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.layers",
                                     description=__doc__)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="repeat the operation list for this long")
    parser.add_argument("--reps", type=int,
                        help="timed repetitions (default 5 without --seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only; 1: traced run and probes only")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny operation counts, one repetition")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice and compare the two sets")
    parser.add_argument("--record", help=argparse.SUPPRESS)  # see run_isolated
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(*args.compare)
    args.cpu = pin()  # before any thread or child process starts
    args.scale, args.setups = 1.0, SETUPS
    if args.smoke:
        args.scale, args.setups, args.reps, args.seconds = SMOKE_SCALE, 1, 1, None
    elif args.seconds is None and args.reps is None:
        args.reps = DEFAULT_REPS

    results = run(args)
    if args.record:
        with open(args.record, "w") as handle:
            json.dump(results["workloads"][args.workload], handle)
        return 0
    print_report(results)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.json"), "w") as handle:
        json.dump(results, handle, indent=1)
    status = 1 if total_failed(results) else 0
    if args.selfcheck:
        again = run(args)
        print_report(again)
        with open(os.path.join(OUT_DIR, "results_again.json"), "w") as handle:
            json.dump(again, handle, indent=1)
        status = max(status, 1 if total_failed(again) else 0,
                     compare_results(results, again))
    if args.workload and args.trace is not None:
        print(contract_line(results, args.workload, bool(args.trace)))
    return status


if __name__ == "__main__":
    sys.exit(main())
