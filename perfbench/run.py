#!/usr/bin/env python3
"""Layered benchmark for pirlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from its
`src/`.  A run keeps to one CPU.  With `--trace 0` one workload is set up
repeatedly (the median set-up time is reported), then run as a closed loop
for about S seconds and every output is checked; the end-to-end metrics
are printed.  With
`--trace 1` the same work runs once untraced and once with spans around the
library's layers, and the per-layer metrics and the tracing overhead are
printed; spans are written to `perfbench/out/`.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
clock = time.perf_counter

# (metric, unit, better); BENCHMARK.json lists the same, with bounds
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "pirlab", "__init__.py")):
        raise SystemExit(f"perfbench: no pirlab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import pirlab

    if os.path.dirname(os.path.dirname(os.path.abspath(pirlab.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported pirlab from {pirlab.__file__}, not {SRC}")


def pin_to_one_cpu():
    """Keep the whole run, servers included, on the lowest CPU it may use.

    Spread over two CPUs of a shared host, the wire workloads' thread
    hand-offs crossed CPUs and met the host's stolen time: their median
    latency moved by up to 1.8x between runs.  Pinned, it holds steady.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # threads started later inherit it
    return cpu


def stamp() -> dict:
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pirlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "network": "loopback only",
    }


def percentile(sorted_values, q: int) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# measurement


class LoopResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.failures = 0
        self.problems: list[str] = []
        self.harness_s = 0.0  # request generation, GC and checks
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def closed_loop(wl, inputs, state, *, seconds=None, count=None, tracer=None) -> LoopResult:
    """One client running operations back to back: `count` of them, or, by
    time, while the next is expected to end within `seconds` (at least one)."""
    res = LoopResult()

    def scope(name):
        return tracer.root(name) if tracer is not None else contextlib.nullcontext()

    start = clock()
    cpu0 = time.process_time()
    deadline = start + (seconds or 0)
    last = 0.0
    while True:
        t_req = clock()
        if count is not None:
            if res.attempted == count:
                break
        elif res.attempted and t_req + last > deadline:
            break
        request = wl.request(inputs)
        if wl.collect_between_ops:
            gc.collect()
        error = None
        t0 = clock()
        try:
            with scope("op"):
                output = wl.op(inputs, state, request)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if error is None:
            try:
                with scope("check"):
                    error = wl.check(inputs, state, request, output)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        t2 = clock()
        last = t2 - t_req
        res.latencies.append(t1 - t0)
        res.harness_s += (t0 - t_req) + (t2 - t1)
        if error is not None:
            res.failures += 1
            if len(res.problems) < 5:
                res.problems.append(error)
    res.wall_s = clock() - start
    res.cpu_s = time.process_time() - cpu0
    return res


def timed_run(wl, seed: int, seconds: float, workdir: str):
    """Set up `wl.setup_reps` times (keeping the last), then run the loop."""
    inputs = wl.inputs(seed, workdir)
    setup_times = []
    state = None
    for _ in range(wl.setup_reps):
        if state is not None:
            wl.teardown(state)
        gc.collect()
        t0 = clock()
        state = wl.setup(inputs)
        setup_times.append(clock() - t0)
    try:
        res = closed_loop(wl, inputs, state, seconds=seconds)
    finally:
        wl.teardown(state)
    return res, setup_times


def summarize_timed(wl, res: LoopResult, setup_times):
    """End-to-end metrics, per-percentile sample counts and report lines."""
    lat = sorted(res.latencies)
    n = len(lat)
    ok = n - res.failures
    pcts = {q: (statistics.median(lat) if q == 50 else percentile(lat, q)) for q in (50, 90, 99)}
    beyond = {q: sum(1 for x in lat if x > v) for q, v in pcts.items()}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": pcts[50] * 1e3,
        # harness time (request generation, GC, checks) is not the system's
        "ops_per_s": ok / (res.wall_s - res.harness_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"ops": n, **{f"beyond_p{q}": b for q, b in beyond.items()}}
    lines = [_line("setup_s", metrics["setup_s"], "s", f"median of {len(setup_times)} set-ups")]
    if wl.seeded:
        lines.append(
            _line(
                "retrievals_per_s",
                metrics["ops_per_s"],
                "1/s",
                f"{ok} correct in {res.wall_s:.1f} s, one closed-loop client (not gated)",
            )
        )
        for q, value in pcts.items():
            note = f"n={n}, {beyond[q]} beyond"
            if q != 50 and beyond[q] < 10:
                note += ": too few to hold steady"
            lines.append(_line(f"retrieval_p{q}_ms", value * 1e3, "ms", note))
    else:
        name = "verify_s" if wl.name == "verify-nary" else "transform_s"
        lines.append(_line(name, pcts[50], "s", f"median of n={n}"))
    lines.append(_line("fail_ratio", res.failures / n, "", f"{res.failures} of {n} failed"))
    lines.append(_line("peak_rss_mib", metrics["peak_rss_mib"], "MiB", "whole process, servers included"))
    lines.append(
        _line("cpu_ms_per_op", res.cpu_s / n * 1e3, "ms", "process CPU time per operation (not gated)")
    )
    lines.append("  gated end-to-end metrics (BENCHMARK.json):")
    lines.extend(_line(name, metrics[name], unit) for name, unit, _b in END_TO_END)
    return metrics, samples, lines


def traced_run(wl, seed: int, workdir: str):
    import tracing

    def one_pass(tracer):
        inputs = wl.inputs(seed, workdir)
        t0 = clock()
        if tracer is None:
            state = wl.setup(inputs)
        else:
            with tracer.root("setup"):
                state = wl.setup(inputs)
        try:
            res = closed_loop(wl, inputs, state, count=wl.trace_ops, tracer=tracer)
            wall = clock() - t0
        finally:
            wl.teardown(state)
        return inputs, res, wall

    _inputs, plain, plain_wall = one_pass(None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        inputs, traced, traced_wall = one_pass(tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.per_layer_metrics(tracer, n_ops=wl.trace_ops, n_setups=1)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_pct"] = 100 * (traced_wall - plain_wall) / plain_wall
    return tracer, inputs, (plain, plain_wall), (traced, traced_wall), metrics


# ---------------------------------------------------------------------------
# reporting


def _line(name, value, unit, note="") -> str:
    return f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip()


def report_traced(wl, tracer, inputs, plain_wall, traced_wall, metrics) -> tuple[list[str], int]:
    """Report lines and the number of retrievals whose traffic broke the model."""
    import tracing

    lines = [
        f"  tracing overhead: traced {traced_wall:.4f} s - untraced {plain_wall:.4f} s "
        f"= {metrics['trace.overhead_s']:.4f} s ({metrics['trace.overhead_pct']:.1f} %), "
        f"{wl.trace_ops} operation(s) per pass"
    ]
    mismatched = 0
    if wl.seeded:
        n_servers, n_messages, _m = wl.shape
        traffic = tracing.retrieval_traffic(tracer)
        query_frame = 5 + n_messages  # header + one digit per message
        for frames, sizes in traffic.values():
            if frames != 2 * n_servers or sizes != [query_frame] * n_servers:
                mismatched += 1
        mismatched += max(0, wl.trace_ops - len(traffic))
        lines.append(
            f"  traffic vs exact model: {len(traffic)} retrievals traced, "
            f"{mismatched} break 2N={2 * n_servers} frames or {n_messages} query bytes per QUERY"
        )
        expected = wl.expected_answer_symbols(inputs)
        lines.append(
            f"  ANSWER symbols per retrieval: observed {metrics['net.answer_symbols']:.4f}, "
            + (
                f"expected {expected} = {float(expected):.4f} (observation, not a gate)"
                if expected is not None
                else "expected not tabulated at this shape (observation, not a gate)"
            )
        )
    for name, unit, _better in tracing.PER_LAYER:
        lines.append(_line(name, metrics[name], unit))
    return lines, mismatched


def run_one(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    info = stamp()
    info["cpu"] = pin_to_one_cpu()
    info["seed"] = args.seed if wl.seeded else "unused (deterministic workload)"
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        if not args.trace:
            res, setup_times = timed_run(wl, args.seed, args.seconds, workdir)
            metrics, info["samples"], lines = summarize_timed(wl, res, setup_times)
            attempted, failed, problems = res.attempted, res.failures, res.problems
            declared = END_TO_END
        else:
            import tracing

            tracer, inputs, plain, traced, metrics = traced_run(wl, args.seed, workdir)
            lines, mismatched = report_traced(wl, tracer, inputs, plain[1], traced[1], metrics)
            base = os.path.join(OUT, f"{wl.name}-seed{args.seed}" if wl.seeded else wl.name)
            n_spans = tracer.write_spans(base + "-spans.csv.gz")
            lines.append(f"  {n_spans} spans written to {os.path.relpath(base, ROOT)}-spans.csv.gz")
            info["tracing_overhead_s"] = metrics["trace.overhead_s"]
            attempted = plain[0].attempted + traced[0].attempted
            failed = plain[0].failures + traced[0].failures + mismatched
            problems = plain[0].problems + traced[0].problems
            declared = tracing.PER_LAYER
            with open(base + "-trace.json", "w", encoding="ascii") as fh:
                json.dump({"stamp": info, "metrics": metrics}, fh, indent=1, sort_keys=True)

    print(f"perfbench {wl.name} trace={args.trace}")
    print("stamp " + json.dumps(info, sort_keys=True))
    for line in lines:
        print(line)
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit, _better in declared
                },
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
