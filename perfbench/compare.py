"""Diff two benchmark run records, metric by metric, one row per workload.

    python3 perfbench/compare.py BASE.json NEW.json [--layers]

A run record is what ``perfbench/run.py --workload all`` writes (or a single
``--record`` file).  Rows pair runs of the same workload and seed.  Every
cell shows ``base -> new (xratio)``, the ratio being new over base.  The
``BENCHMARK.json`` end-to-end metrics are judged against its bounds; the
simulated metrics must be identical between runs of the same seed; the raw
wall metrics are shown for reference.  ``--layers`` adds the per-layer
metrics of traced runs (no bounds; nonzero ones only).  The exit code is 1
when a metric worsened by more than its bound or a simulated metric changed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> dict[tuple[str, int, int], dict]:
    record = json.loads(Path(path).read_text())
    return {(run["workload"], run["seed"], run["trace"]): run for run in record.get("runs", [record])}


def cell(name: str, base: float, new: float) -> str:
    ratio = f"x{new / base:.3f}" if base else "x-"
    return f"{name} {base:.6g} -> {new:.6g} ({ratio})"


def row(base: dict, new: dict, spec: dict, layers: bool) -> tuple[list[str], bool]:
    """The cells of one workload's row, and whether any of them failed."""
    cells, failed = [], False
    if base["trace"] == 0:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old, now = base["metrics"][name]["value"], new["metrics"][name]["value"]
            change = (now - old) / old if old else 0.0
            worse = -change if metric["better"] == "higher" else change
            verdict = f"WORSE by more than {bound:.0%}" if worse > bound else "ok"
            failed |= worse > bound
            cells.append(f"{cell(name, old, now)} {verdict}")
        for name, metric in base["end_to_end"].items():
            old, now = metric["value"], new["end_to_end"][name]["value"]
            if metric["source"] == "sim":
                failed |= old != now
                cells.append(f"{name} {'same' if old == now else f'CHANGED {old:.6g} -> {now:.6g}'}")
            else:
                cells.append(f"raw {cell(name, old, now)}")
    elif layers:
        for name, metric in base["metrics"].items():
            old, now = metric["value"], new["metrics"][name]["value"]
            if old or now:
                cells.append(cell(name, old, now))
    return cells, failed


def compare(base_path: str, new_path: str, layers: bool) -> int:
    base_runs, new_runs = load_runs(base_path), load_runs(new_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for key in sorted(base_runs.keys() & new_runs.keys()):
        cells, failed = row(base_runs[key], new_runs[key], spec, layers)
        status |= failed
        if cells:
            workload, seed, trace = key
            print(f"{workload} seed={seed} trace={trace}: " + " | ".join(cells))
    for workload, seed, trace in sorted(base_runs.keys() ^ new_runs.keys()):
        print(f"{workload} seed={seed} trace={trace}: only in one record")
    return int(status)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--layers", action="store_true", help="also diff per-layer metrics")
    args = parser.parse_args(argv)
    return compare(args.base, args.new, args.layers)


if __name__ == "__main__":
    sys.exit(main())
