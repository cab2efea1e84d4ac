#!/usr/bin/env python3
"""adsl benchmark: one closed-loop client, one workload per process.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run_bench.py --workload all --seed N --seconds S

Workloads (see workloads.py and BENCHMARK.json for why each exists):
peg_trace, stats_sweep, reverse_roundtrip, corpus_roundtrip. Inputs come
from --seed only; the toolchain under test is imported from src/ of the
checkout this file sits in, and nothing else.

--trace 0 measures for S seconds and reports the end-to-end metrics:
set-up time (median of several fresh processes), ops per second, per-op
latency p50/p90 and peak RSS. --trace 1 spends half of S untraced and half
with span wrappers installed around every layer (tracing.py), then reports
the per-layer metrics, the obstacle-scaling and CLI start-up probes, and
the tracing overhead. Reported times are corrected for the host's pace
(speed.py). Every op's output is checked, every run re-checks the
identity witness (probes.py), and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The line before it holds the
details (environment, simulated-time rate, failures). Files a run writes go
to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
NAMES = ("peg_trace", "stats_sweep", "reverse_roundtrip", "corpus_roundtrip")
#: Fresh processes timed for setup_s, after one that only warms the bytecode cache.
SETUP_PROCESSES = 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_checkout_source() -> None:
    """Import adsl from this checkout's src/, or stop before measuring."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "adsl", "__init__.py")):
        sys.exit(f"error: no adsl package under {src}; run from a full checkout")
    sys.path[:0] = [src, HERE]


def set_up(name: str, seed: int):
    """Import the toolchain and build the workload's inputs.

    Returns (workload, seconds, snippet seconds timed just before).
    """
    from speed import calibrate

    calibrate()  # a fresh process runs the snippet's first pass slower
    snippet = statistics.median(calibrate() for _ in range(3))
    start = time.perf_counter()
    import workloads

    workdir = os.path.join(OUT, name)
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, ROOT, workdir)
    return workload, time.perf_counter() - start, snippet


def setup_in_fresh_processes(args) -> list[tuple[float, float, str]]:
    """(setup seconds, snippet seconds, inputs digest) from fresh processes;
    the first process only warms the bytecode cache."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_PROCESSES + 1):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((result["setup_s"], result["snippet_s"], result["inputs_sha256"]))
    return samples[1:]


class Phase:
    """Latencies and outcomes of one timed loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.inputs: list[int] = []
        self.speed_index: list[int] = []  # latest speed sample before each op
        self.simulated = 0.0
        self.failures: list[str] = []
        self.matched_earlier = 0

    def corrected(self, speed) -> list[float]:
        return [t / speed.slowdown(i) for t, i in zip(self.latencies, self.speed_index)]


def measure(workload, seconds: float, records: dict, speed, tracer=None,
            baseline=frozenset()) -> Phase:
    """Closed loop: op k runs input k % pool size until `seconds` have passed.

    `records` maps input -> deterministic record of its first visit; a later
    visit must reproduce it. `matched_earlier` counts visits that did so for
    an input in `baseline`.
    """
    from workloads import OpFailed

    phase = Phase()
    speed.sample()
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        i = k % workload.pool_size
        phase.speed_index.append(speed.due())
        if tracer is not None:
            tracer.open_op("op", k)
        start = time.perf_counter()
        try:
            result, error = workload.op(i), None
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        phase.latencies.append(time.perf_counter() - start)
        phase.inputs.append(i)
        if tracer is not None:
            tracer.close_op()
        if error is None:
            try:
                record, simulated = workload.check(i, result)
                expected = records.setdefault(i, record)
                if expected is not record:
                    if expected != record:
                        raise OpFailed("output differs from the first visit of this input")
                    phase.matched_earlier += i in baseline
                phase.simulated += simulated
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            phase.failures.append(f"op {k} (input {i}): {error}")
        result = None
        k += 1
    speed.sample()
    return phase


def check_witness(root, tracer=None) -> list[str]:
    import probes

    workdir = os.path.join(OUT, "witness")
    os.makedirs(workdir, exist_ok=True)
    got = probes.witness(root, workdir, tracer)
    want = probes.recorded_witness()
    return [f"witness {key}: {got.get(key)} != recorded {value}"
            for key, value in sorted(want.items()) if got.get(key) != value]


def latency_metrics(latencies, inputs) -> dict:
    """Throughput weighs every input visited equally, so a run that ends part
    way through the pool is not biased toward the inputs visited once more."""
    per_input: dict[int, list[float]] = {}
    for latency, i in zip(latencies, inputs):
        per_input.setdefault(i, []).append(latency)
    mean = statistics.fmean(statistics.fmean(v) for v in per_input.values())
    return {
        "ops_per_s": (1.0 / mean, "1/s"),
        "op_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3, "ms"),
    }


def run_untraced(args, workload, setup_samples, speed, detail):
    from speed import NOMINAL

    phase = measure(workload, args.seconds, {}, speed)
    lat = phase.corrected(speed)
    setup = [s / (snippet / NOMINAL) for s, snippet, _ in setup_samples]
    metrics = {"setup_s": (statistics.median(setup), "s")}
    metrics.update(latency_metrics(lat, phase.inputs))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    p90 = metrics["op_ms_p90"][0] / 1e3
    raw = latency_metrics(phase.latencies, phase.inputs)
    detail.update(
        ops=len(lat),
        ops_beyond_p90=sum(1 for x in lat if x > p90),
        failed_frac=len(phase.failures) / len(lat),
        sim_rtf=phase.simulated / sum(lat) if workload.simulates else None,
        mean_slowdown=sum(phase.latencies) / sum(lat),
        raw={"setup_s": statistics.median(s for s, _, _ in setup_samples),
             **{name: value for name, (value, _) in raw.items()}},
        setup_samples_s=setup,
    )
    return phase, metrics


def run_traced(args, workload, speed, detail):
    import probes
    import tracing

    records: dict = {}
    plain = measure(workload, args.seconds / 2, records, speed)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        traced = measure(workload, args.seconds / 2, records, speed, tracer,
                         baseline=frozenset(records))
        before = speed.sample()
        witness_problems = check_witness(ROOT, tracer)
        witness_slowdown = speed.slowdown(before, speed.sample())
    finally:
        restore()
    before = speed.sample()
    obstacles = probes.obstacle_probe(args.seed)
    obstacle_slowdown = speed.slowdown(before, speed.sample())
    before = speed.sample()
    cli = probes.cli_probe(ROOT, os.path.join(OUT, "witness"))
    cli_slowdown = speed.slowdown(before, speed.sample())

    traced_lat = traced.corrected(speed)
    traced_slowdown = sum(traced.latencies) / sum(traced_lat)
    metrics = tracing.layer_metrics(tracer, detail, {"op": traced_slowdown,
                                                     "witness": witness_slowdown})
    for count, us in obstacles.items():
        metrics[f"workcell.first_hit_us.n{count}"] = (us / obstacle_slowdown, "us")
    metrics["cli.process_ms.run"] = (cli["run"] / cli_slowdown, "ms")
    metrics["cli.process_ms.reverse"] = (cli["reverse"] / cli_slowdown, "ms")
    plain_lat = plain.corrected(speed)
    overhead = statistics.median(traced_lat) / statistics.median(plain_lat)
    metrics["bench.tracing_overhead"] = (overhead, "ratio")
    metrics["bench.sim_rtf"] = (plain.simulated / sum(plain_lat), "ratio")
    recorded = probes.recorded_witness()["run peg_in_hole.adsl blocked.json seed=0"]
    if recorded != "exit=0 " + cli["run_trace_sha256"]:
        witness_problems.append("adsl run as a process wrote a different trace than in-process")
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
    detail.update(untraced_ops=len(plain.latencies), traced_ops=len(traced.latencies),
                  noninterference_checked=traced.matched_earlier,
                  slowdown={"traced": traced_slowdown, "witness": witness_slowdown,
                            "obstacle_probe": obstacle_slowdown, "cli_probe": cli_slowdown},
                  spans_file=os.path.relpath(spans_path, ROOT), spans_kept=len(tracer.spans))
    return [plain, traced], witness_problems, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    use_checkout_source()
    if args.setup_only:
        workload, seconds, snippet = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds, "snippet_s": snippet,
                          "inputs_sha256": workload.digest.hexdigest()}))
        return 0
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")

    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace}
    problems: list[str] = []
    checks = 0
    setup_samples = []
    if args.trace == 0:
        setup_samples = setup_in_fresh_processes(args)
    workload, seconds, snippet = set_up(args.workload, args.seed)
    setup_samples.append((seconds, snippet, workload.digest.hexdigest()))

    import probes
    from speed import Speed

    speed = Speed()

    if args.trace == 0:
        phase, metrics = run_untraced(args, workload, setup_samples, speed, detail)
        phases = [phase]
        problems += check_witness(ROOT)
        checks += 1
        digests = {d for _, _, d in setup_samples}
        if len(digests) != 1:
            problems.append(f"the same seed generated different inputs: {sorted(digests)}")
    else:
        phases, witness_problems, metrics = run_traced(args, workload, speed, detail)
        problems += witness_problems
        checks += 1  # the CLI process trace
    checks += len(probes.recorded_witness())
    problems += workload.finish()

    failures = [f for phase in phases for f in phase.failures]
    attempted = sum(len(phase.latencies) for phase in phases) + checks
    failed = len(failures) + len(problems)
    detail.update(environment=probes.environment(ROOT), notes=workload.notes,
                  failures=failures[:10], problems=problems)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints one table of all metrics."""
    rows = []
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        metrics = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        if args.trace == 0:
            metrics["failed_frac"] = (detail["failed_frac"], "1")
            if detail["sim_rtf"] is not None:
                metrics["sim_rtf"] = (detail["sim_rtf"], "s/s")
        for metric, (value, unit) in metrics.items():
            rows.append((name, metric, value, unit))
        rows.append((name, "correct", result["correct"], f"{result['failed']}/{result['attempted']} failed"))
    width = max(len(r[1]) for r in rows)
    for name, metric, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<18} {metric:<{width}} {shown:>14} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
