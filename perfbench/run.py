"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload (what ``BENCHMARK.json``'s command does)::

    python3 perfbench/run.py --workload shared_dnn_64 --seed 1 --seconds 20 --trace 0

Each run generates its inputs from the seed; for ``shared_dnn_64`` it checks
once that batched scoring reports exactly what per-camera scoring does.
Then come ``WARMUP`` warm-up iterations (the first one's outputs digest is
the reference) and timed iterations for ``--seconds`` (at least
``MIN_TIMED``; none starts that would end past the deadline).  An iteration
is one set-up (build the runtime, ``start()`` it) plus one run, with the
cyclic garbage collector paused; every iteration is checked and must
reproduce the reference digest.

``--trace 0`` reports the ``BENCHMARK.json`` end-to-end metrics: medians
over the timed iterations of throughput and set-up time, both scaled to a
fixed machine speed by the workload's reference kernel
(``perfbench/reference.py``),
plus the process's peak RSS and the simulated uplink bits per operation.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics (seconds scaled the same way) and the tracing overhead,
and writes the last traced
iteration's spans to ``.perfbench/spans-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a table of the workload's own metrics (raw wall throughput and
set-up time, peak RSS, and the simulated metrics).  The exit code is 1 when
a correctness check failed and 2 when ``src/repro`` is not next to the
benchmark.

Run every workload, each in a fresh process, on ``--seed`` (untraced and
traced) and again on a held-out seed, and write a run record::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --out .perfbench/a.json

Diff two run records with ``python3 perfbench/compare.py A.json B.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("shared_dnn_64", "hotspot_4node", "kilocam_16node", "event_burst")
# A seed never used while the benchmark was tuned; ``--workload all`` runs
# every workload on it a second time.
HELDOUT_SEED = 7919
MIN_TIMED = 3
# The first iteration grows the heap and the second still page-faults part
# of it; from the third on an iteration allocates no new pages.
WARMUP = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The end-to-end metrics each kind of workload prints in its table: (name,
# unit, where the value comes from).  "sim" values are simulated outputs a
# pure speed-up must leave unchanged.
FRAME_METRICS = (
    ("frames_per_s", "1/s", "wall"),
    ("setup_s", "s", "wall"),
    ("peak_rss_mb", "MB", "wall"),
    ("drop_rate", "ratio", "sim"),
    ("uplink_bits_per_frame", "bit", "sim"),
    ("queue_wait_p99_ms", "ms", "sim"),
)
EVENT_METRICS = (
    ("events_per_s", "1/s", "wall"),
    ("setup_s", "s", "wall"),
    ("peak_rss_mb", "MB", "wall"),
    ("delivery_p50_ms", "ms", "sim"),
    ("delivery_p99_ms", "ms", "sim"),
    ("undelivered_ratio", "ratio", "sim"),
)


class StartClock:
    """Adds up wall time spent in ``FleetRuntime.start`` (part of set-up).

    ``ShardedFleetRuntime.run`` starts its nodes itself, so their start time
    lands inside the run call; this moves it back into set-up.
    """

    def __init__(self, runtime_cls) -> None:
        self.seconds = 0.0
        self._cls = runtime_cls
        self._original = runtime_cls.__dict__["start"]
        original = self._original

        def start(runtime):
            began = time.perf_counter()
            try:
                return original(runtime)
            finally:
                self.seconds += time.perf_counter() - began

        runtime_cls.start = start

    def close(self) -> None:
        self._cls.start = self._original


def iterate(workload, clock: StartClock) -> dict:
    """One set-up + run with the collector paused; checks run afterwards."""
    gc.collect()
    gc.disable()
    try:
        clock.seconds = 0.0
        began = time.perf_counter()
        state = workload.setup()
        built = time.perf_counter()
        in_setup = clock.seconds
        report = workload.run(state)
        finished = time.perf_counter()
    finally:
        gc.enable()
    in_run = clock.seconds - in_setup
    outcome = workload.check(state, report)
    del state, report
    gc.collect()
    run_s = finished - built - in_run
    return {
        "setup_s": built - began + in_run,
        "run_s": run_s,
        "ops_per_s": outcome.completed / run_s,
        "outcome": outcome,
    }


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def measure(workload, seconds: float, recorder) -> tuple[list, list, list, list]:
    """Warm-up, then timed (and, with a recorder, alternating traced) iterations.

    Returns the warm-up, untraced and traced iteration results and the
    per-layer metrics of each traced iteration.
    """
    from repro.fleet.runtime import FleetRuntime

    from perfbench.reference import nominal_seconds, reference_seconds
    from perfbench.spans import LAYER_METRICS

    clock = StartClock(FleetRuntime)
    probes = [reference_seconds(workload.REFERENCE)]

    def step() -> dict:
        # The reference kernel brackets every iteration; the mean of the two
        # times gives the iteration's scale (nominal over current speed).
        result = iterate(workload, clock)
        probes.append(reference_seconds(workload.REFERENCE))
        scale = nominal_seconds(workload.REFERENCE) / ((probes[-2] + probes[-1]) / 2)
        result["scale"] = scale
        result["ref_setup_s"] = result["setup_s"] * scale
        result["ops_per_ref_s"] = result["ops_per_s"] / scale
        return result

    warm: list[dict] = []
    timed: list[dict] = []
    traced: list[dict] = []
    layer_values: list[dict] = []
    try:
        warm = [step() for _ in range(WARMUP)]
        deadline = time.perf_counter() + seconds
        while True:
            trace_this = recorder is not None and len(timed) > len(traced)
            if trace_this:
                recorder.reset()
                recorder.install()
                try:
                    traced.append(step())
                finally:
                    recorder.uninstall()
                values = recorder.layer_metrics(traced[-1]["outcome"].counts)
                # Seconds scale like the end-to-end times; counts do not.
                for name, unit, _ in LAYER_METRICS:
                    if unit == "s":
                        values[name] *= traced[-1]["scale"]
                layer_values.append(values)
            else:
                timed.append(step())
            enough = len(timed) >= MIN_TIMED and (recorder is None or traced)
            # Start no iteration that would end past the deadline.
            longest = max(r["setup_s"] + r["run_s"] for r in [*timed, *traced])
            if enough and time.perf_counter() + longest >= deadline:
                return warm, timed, traced, layer_values
    finally:
        clock.close()


def run_one(args) -> int:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    errors: list[str] = []
    if args.workload == "shared_dnn_64":
        errors += workload.equivalence_errors()
    recorder = None
    if args.trace:
        from perfbench.spans import LAYER_METRICS, SpanRecorder

        recorder = SpanRecorder()
    warm, timed, traced, layer_values = measure(workload, args.seconds, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.dump(OUT_DIR / f"spans-{args.workload}.json")

    outcome = warm[0]["outcome"]
    for result in [*warm, *timed, *traced]:
        errors += result["outcome"].errors
        if result["outcome"].digest != outcome.digest:
            errors.append("outputs digest differs between iterations (traced or untraced)")
    errors = list(dict.fromkeys(errors))
    runs = timed + traced
    attempted = sum(r["outcome"].attempted for r in runs)
    failed = sum(r["outcome"].failed for r in runs)

    frames = workload.unit == "frames"
    ops_per_s = statistics.median(r["ops_per_s"] for r in timed)
    wall = {
        "frames_per_s" if frames else "events_per_s": ops_per_s,
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "peak_rss_mb": peak_rss_mb,
    }
    table = {
        name: {"value": wall.get(name, outcome.sim.get(name)), "unit": unit, "source": source}
        for name, unit, source in (FRAME_METRICS if frames else EVENT_METRICS)
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(
        f"  iterations: {WARMUP} warm-up, {len(timed)} timed, {len(traced)} traced | "
        f"{outcome.attempted} {workload.unit} offered per iteration, "
        f"{outcome.completed} completed | digest {outcome.digest[:16]}"
    )
    for name, metric in table.items():
        print(f"  {name:<24} {metric['value']:>14.6g} {metric['unit']:<6} ({metric['source']})")

    scaled_ops = statistics.median(r["ops_per_ref_s"] for r in timed)
    scaled_setup = statistics.median(r["ref_setup_s"] for r in timed)
    print(
        f"  scaled to the reference speed (median scale "
        f"{statistics.median(r['scale'] for r in timed):.3f}): "
        f"ops_per_ref_s {scaled_ops:.6g} 1/s, setup_s {scaled_setup:.6g} s"
    )
    if recorder is None:
        bits = outcome.sim["uplink_bits_per_frame" if frames else "uplink_bits_per_record"]
        metrics = {
            "ops_per_ref_s": {"value": scaled_ops, "unit": "1/s"},
            "setup_s": {"value": scaled_setup, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "uplink_bits_per_op": {"value": bits, "unit": "bit"},
        }
    else:
        metrics = {
            name: {"value": statistics.median(v[name] for v in layer_values), "unit": unit}
            for name, unit, _ in LAYER_METRICS
        }
        traced_ops = statistics.median(r["ops_per_ref_s"] for r in traced)
        overhead = scaled_ops / traced_ops - 1.0
        metrics["bench.trace_overhead"] = {"value": overhead, "unit": "ratio"}
        metrics["bench.spans"] = {"value": float(len(recorder.start)), "unit": "count"}
        print(
            f"  tracing: untraced {scaled_ops:.6g}/s, traced {traced_ops:.6g}/s "
            f"(scaled; overhead {overhead:+.1%})"
        )
        for name, metric in metrics.items():
            print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")

    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(args.seed),
            "attempted": attempted,
            "failed": failed,
            "digest": outcome.digest,
            "end_to_end": table,
            "metrics": metrics,
            "iterations": [
                {key: r[key] for key in ("setup_s", "run_s", "ops_per_s", "scale")}
                for r in runs
            ],
            "errors": errors,
        }
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        Path(args.record).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 1 if errors else 0


def run_all(args) -> int:
    """Every workload in its own process, on ``--seed`` and the held-out seed."""
    out = Path(args.out) if args.out else OUT_DIR / f"record-seed{args.seed}.json"
    record: dict = {"environment": environment(args.seed), "seconds": args.seconds, "runs": []}
    status = 0
    for seed in (args.seed, HELDOUT_SEED):
        for name in WORKLOAD_NAMES:
            for trace in (0, 1) if seed == args.seed else (0,):
                part = OUT_DIR / f"part-{name}-seed{seed}-trace{trace}.json"
                command = [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--workload", name,
                    "--seed", str(seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--record", str(part),
                ]
                done = subprocess.run(command, capture_output=True, text=True, check=False)
                sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
                sys.stderr.write(done.stderr)
                if done.returncode != 0:
                    status = 1
                if part.exists():
                    record["runs"].append(json.loads(part.read_text()))
                    part.unlink()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"run record: {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="write this run's detail as JSON here")
    parser.add_argument("--out", help="run-record path for --workload all")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} not found; "
            "run the benchmark from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # One process, one thread: pin BLAS before NumPy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
