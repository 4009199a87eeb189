"""Compare two ``results.json`` documents: per workload and end-to-end
metric, both medians, the relative change, the bound, and a verdict."""

from __future__ import annotations

import json
from typing import Any, Dict

from .metrics import END_TO_END


def verdict(first: Dict[str, Any], second: Dict[str, Any], better: str,
            bound: float) -> tuple:
    """``(relative worsening of second against first, verdict)``. A metric
    whose own spread is wider than its bound cannot resolve a change of
    the bound's size and is reported as unresolved, not as unchanged."""
    change = (second["value"] - first["value"]) / first["value"]
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return worsening, "worse"
    if max(first["spread"], second["spread"]) > bound:
        return worsening, "unresolved"
    return worsening, "ok"


def compare_results(first: Dict[str, Any], second: Dict[str, Any]) -> int:
    """Print the table; 1 when any metric is worse or any operation
    failed, else 0."""
    status = 0
    print(f"\n{'workload':<14}{'metric':<16}{'first':>14}{'second':>14}"
          f"{'worsening':>11}{'bound':>7}  verdict")
    for name, record in first["workloads"].items():
        other = second["workloads"].get(name)
        if other is None or "end_to_end" not in record or "end_to_end" not in other:
            continue
        for metric in END_TO_END:
            a, b = record["end_to_end"][metric.name], other["end_to_end"][metric.name]
            worsening, word = verdict(a, b, metric.better, metric.bound)
            status = max(status, word == "worse")
            print(f"{name:<14}{metric.name:<16}{a['value']:>14.3f}{b['value']:>14.3f}"
                  f"{worsening:>+11.1%}{metric.bound:>7.0%}  {word}")
        for count in ("failed", "lost_acked_writes"):
            for label, side in (("first", record), ("second", other)):
                if side.get(count, 0):
                    status = 1
                    print(f"{name:<14}{count}: {side[count]} in the {label} set "
                          "(bound: 0 absolute)  worse")
    return int(status)


def compare_files(first_path: str, second_path: str) -> int:
    with open(first_path) as first, open(second_path) as second:
        return compare_results(json.load(first), json.load(second))
