"""Benchmark runner for boolsolve.

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                    # every workload, each in its own process
    python3 bench/run.py --selftest         # the checks reject planted wrong outputs

One workload runs in one process as a closed loop: a single caller on
a single thread issues the next operation when the previous one has
returned.  Set-up (import, seeded input generation, writing the problem
files and a warm-up pass) is repeated ``SETUP_ROUNDS`` times; only the
program's part of it is timed.  Timed passes run the whole operation
list until ``--seconds`` of passes have passed; every run attempts
whole passes.  The set-up rounds are spread over the run, one before
each ``1/SETUP_ROUNDS`` of its passes, so that their median does not
rest on the machine's speed in a single moment.  Each result is
checked by the benchmark's own evaluator and
dropped right after its operation, and garbage is collected between
operations, outside the timed region.

On a machine shared with other tenants, speed drifts by tens of percent
within seconds, so each operation is timed in every pass and taken at
its fastest: ``ops_per_s`` is the operation count over the sum
of those fastest times, ``latency_p50_ms`` their median.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (per pass) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
RUN_SECONDS = 25
SETUP_ROUNDS = 7
MIN_PASSES = 2

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "output_nodes": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class OpFailed(Exception):
    """The program gave no answer: it raised, or the CLI exited 2."""


def _load_package() -> float:
    """Import boolsolve from the checkout's sources, then the benchmark's
    modules; seconds the program's import took."""
    if not os.path.isfile(os.path.join(SRC, "boolsolve", "__init__.py")):
        raise SystemExit(f"error: no boolsolve sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    before = time.perf_counter()
    import boolsolve.cli  # noqa: F401  (the package imports its other modules)
    import_s = time.perf_counter() - before
    import workloads  # noqa: F401
    return import_s


def _call(op):
    try:
        result = op.run()
    except Exception as exc:  # any exception is a failed operation
        raise OpFailed(f"{op.label}: {type(exc).__name__}: {exc}") from exc
    if isinstance(result, tuple) and result and result[0] == 2:
        raise OpFailed(f"{op.label}: exit code 2")
    return result


def run_pass(ops, durations: list[float] | None = None) -> tuple[int, int]:
    """Run and check every operation once: (failed, output nodes).

    Only the call itself is timed; ``durations`` gets one entry per
    operation, in order.  Each result is dropped once checked and the
    garbage it left is collected before the next call.
    """
    from evaluator import CheckError

    failed = nodes = 0
    for op in ops:
        start = time.perf_counter()
        try:
            result = _call(op)
        except OpFailed as exc:
            failed += 1
            print(f"failed: {exc}", file=sys.stderr)
            continue
        finally:
            if durations is not None:
                durations.append(time.perf_counter() - start)
        try:
            nodes += op.check(result)
        except CheckError as exc:
            raise CheckError(f"{op.label}: {exc}") from exc
        del result
        gc.collect()
    return failed, nodes


def _build(workload: str, seed: int, workdir: str):
    """Seeded inputs: the operations and their unwritten problem files."""
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    files = workloads.ProblemFiles(workdir)
    return workloads.BUILDERS[workload](random.Random(seed), files), files


def _setup(workload: str, seed: int, workdir: str):
    """One set-up round: (operations, seconds of the program's part).

    Generating the inputs and checking the warm-up results are the
    benchmark's own work and not timed; writing the problem files and
    the warm-up calls are.  The inputs are frozen out of collections
    first, as they are for the timed passes.
    """
    gc.unfreeze()
    ops, files = _build(workload, seed, workdir)
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    files.write()
    elapsed = time.perf_counter() - start
    durations: list[float] = []
    run_pass(ops, durations)
    return ops, elapsed + sum(durations)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    from evaluator import CheckError

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{workload}-{os.getpid()}")
    attempted = failed = passes = 0
    try:
        rounds = []
        fastest: list[float] = []
        pass_nodes = set()
        timed = 0.0
        for segment in range(1, SETUP_ROUNDS + 1):
            if tracer is not None:
                tracer.recording = False
            ops = None  # the previous round's inputs must not be frozen again
            ops, seconds_taken = _setup(workload, seed, workdir)
            rounds.append(seconds_taken)
            fastest = fastest or [float("inf")] * len(ops)
            if tracer is not None:
                tracer.recording = True
            gc.collect()
            while passes < MIN_PASSES or timed < seconds * segment / SETUP_ROUNDS:
                durations: list[float] = []
                start = time.perf_counter()
                bad, nodes = run_pass(ops, durations)
                timed += time.perf_counter() - start
                fastest = [min(a, b) for a, b in zip(fastest, durations)]
                pass_nodes.add(nodes)
                passes += 1
                attempted += len(ops)
                failed += bad
        if len(pass_nodes) != 1:
            raise CheckError(f"output node count differs between passes: {sorted(pass_nodes)}")
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops_per_s = len(ops) / sum(fastest)
    if tracer is None:
        values = {
            "ops_per_s": ops_per_s,
            "latency_p50_ms": statistics.median(fastest) * 1e3,
            "output_nodes": pass_nodes.pop(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": import_s + statistics.median(rounds),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        metrics = _layer_report(tracer, workload, seed, passes, ops_per_s)
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_report(tracer, workload: str, seed: int, passes: int, ops_per_s: float) -> dict:
    import tracer as tracing

    values = tracing.layer_metrics(tracer, passes)
    values["tracer.ops_per_s"] = ops_per_s
    metrics = {name: {"value": value, "unit": tracing.unit(name)} for name, value in values.items()}
    stem = os.path.join(RESULTS, f"trace-{workload}-seed{seed}")
    tracer.write(stem + ".csv.gz")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(tracing.summary(tracer, passes), handle, indent=1)
    return metrics


def run_selftest() -> int:
    """Each workload's checks accept the program's outputs and reject a
    planted wrong output for every kind of operation that has one."""
    import workloads
    from evaluator import CheckError

    os.makedirs(RESULTS, exist_ok=True)
    status = 0
    for workload in workloads.BUILDERS:
        workdir = os.path.join(RESULTS, f"selftest-{workload}-{os.getpid()}")
        try:
            ops, files = _build(workload, 1, workdir)
            files.write()
            seen = set()
            for op in ops:
                if op.plant is None or op.label in seen:
                    continue
                seen.add(op.label)
                result = _call(op)
                op.check(result)
                try:
                    op.check(op.plant(result))
                except CheckError as exc:
                    print(f"{workload}: {op.label}: planted output rejected ({exc})")
                else:
                    print(f"{workload}: {op.label}: planted output ACCEPTED")
                    status = 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return status


def _format(report: dict) -> str:
    lines = [f"  attempted {report['attempted']}, failed {report['failed']}, correct {report['correct']}"]
    for name, m in report["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    return "\n".join(lines)


def run_all(seed: int, trace: bool) -> int:
    """Every workload in a fresh process of its own, one after another."""
    import workloads

    status = 0
    for workload in workloads.BUILDERS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}")
            status = 1
            continue
        report = json.loads(lines[-1])
        print(workload)
        print(_format(report))
        if not report["correct"] or report["failed"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    import_s = _load_package()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.BUILDERS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    # The benchmark interface passes the run length as BENCHMARK.json's
    # run_seconds; the default is that value.
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return run_selftest()
    if args.workload == "all":
        return run_all(args.seed, bool(args.trace))
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(_format(report))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
