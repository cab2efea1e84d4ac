"""Checks and probes that sit beside the workloads.

- `witness`: the identity witness. It reruns the shipped examples on fixed
  configs and seeds and hashes their trace bytes (and the canonical print
  of every shipped program). `witness.json` holds the digests recorded on
  the seed code; a differing digest means trace bytes changed.
- `obstacle_probe`: `Workcell._first_hit` against 1, 10 and 100 generated
  obstacles, the data that decides whether a broad phase would pay off.
- `cli_probe`: `adsl run --trace` and `adsl reverse` as fresh processes.
- `environment`: where and on what a result was measured.

Run `python3 bench/probes.py --write-witness` to re-record `witness.json`
after a change that alters trace bytes on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WITNESS_FILE = os.path.join(HERE, "witness.json")

#: (program, config, seed, command). "run" mirrors `adsl run --trace`;
#: "reverse" runs forward then reverses fully, as `adsl reverse` does, and
#: hashes the trace including the reversal events; "sweep" is one seed of
#: the criterion-4 sweep, motion samples off.
WITNESS_CASES = (
    ("peg_in_hole.adsl", "aligned.json", 0, "run"),
    ("peg_in_hole.adsl", "aligned.json", 1, "run"),
    ("peg_in_hole.adsl", "blocked.json", 0, "run"),
    ("peg_in_hole.adsl", "blocked.json", 1, "run"),
    ("reverse_demo.adsl", "free_space.json", 0, "reverse"),
    ("barrier_demo.adsl", "free_space.json", 0, "reverse"),
    ("stats_insert.adsl", "stats.json", 0, "sweep"),
    ("stats_insert.adsl", "stats.json", 1, "sweep"),
    ("stats_insert.adsl", "stats.json", 2, "sweep"),
    ("stats_insert.adsl", "stats.json", 3, "sweep"),
)
PRINTED = ("barrier_demo.adsl", "peg_in_hole.adsl", "reverse_demo.adsl", "stats_insert.adsl")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def witness(root: str, workdir: str, tracer=None) -> dict[str, str]:
    """Digest of every witness case, keyed by a readable case name.

    With a tracer, each case runs as one traced op in the "witness" group.
    """
    from adsl import cli
    from adsl.controller import Controller, ControllerOptions
    from adsl.model import validate_program
    from adsl.parser import parse_program
    from adsl.printer import pretty_print
    from adsl.reverse import reverse_execute
    from adsl.workcell import load_workcell_config

    examples = os.path.join(root, "src", "adsl", "examples")

    def read(name):
        with open(os.path.join(examples, name), encoding="utf-8") as fh:
            return fh.read()

    def case(key, fn):
        if tracer is not None:
            tracer.open_op("witness", key)
        try:
            digests[key] = fn()
        finally:
            if tracer is not None:
                tracer.close_op()

    def run_cli(program, config, seed):
        path = os.path.join(workdir, "witness.ndjson")
        argv = ["run", os.path.join(examples, program), "--workcell",
                os.path.join(examples, config), "--seed", str(seed), "--trace", path]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(path, "rb") as fh:
            return f"exit={code} " + _sha(fh.read())

    def run_api(program, config, seed, reverse):
        parsed = parse_program(read(program))
        if validate_program(parsed):
            raise RuntimeError(f"{program} does not validate")
        options = ControllerOptions(record_motion_samples=reverse)
        controller = Controller(parsed, load_workcell_config(os.path.join(examples, config)),
                                seed=seed, options=options)
        controller.run()
        if reverse:
            reverse_execute(controller.trace, None, controller.ctx, registry=controller.registry)
        return _sha(controller.trace.serialize().encode())

    digests: dict[str, str] = {}
    for program, config, seed, command in WITNESS_CASES:
        key = f"{command} {program} {config} seed={seed}"
        if command == "run":
            case(key, lambda: run_cli(program, config, seed))
        else:
            case(key, lambda: run_api(program, config, seed, command == "reverse"))
    for program in PRINTED:
        case(f"print {program}", lambda: _sha(pretty_print(parse_program(read(program))).encode()))
    return digests


def recorded_witness() -> dict[str, str]:
    with open(WITNESS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Obstacle scaling


#: Obstacle counts, segments per count and timed passes of the obstacle probe.
OBSTACLE_COUNTS = (1, 10, 100)
OBSTACLE_SEGMENTS = 400
OBSTACLE_REPEATS = 5
#: Fresh processes timed per command by the CLI probe.
CLI_REPEATS = 3


def obstacle_probe(seed: int) -> dict[int, float]:
    """Median microseconds per `Workcell._first_hit` call for each obstacle count.

    Obstacles are random boxes, half of them pierced by a hole, scattered in
    a 1 m cube; segments are one control cycle long (up to 4 mm) from random
    points, so most tests miss, as in a real run.
    """
    from adsl.workcell import Workcell, workcell_config_from_dict

    rng = random.Random(seed)
    out = {}
    for count in OBSTACLE_COUNTS:
        obstacles = []
        for _ in range(count):
            lo = [rng.uniform(0.0, 0.9) for _ in range(3)]
            size = [rng.uniform(0.02, 0.1) for _ in range(3)]
            box = {"min": lo, "max": [a + b for a, b in zip(lo, size)]}
            entry = {"box": box}
            if rng.random() < 0.5:
                axis = rng.randrange(3)
                u, v = [i for i in range(3) if i != axis]
                entry["hole"] = {
                    "axis": "xyz"[axis],
                    "center": [lo[u] + size[u] / 2, lo[v] + size[v] / 2],
                    "half_extents": [size[u] / 4, size[v] / 4],
                }
            obstacles.append(entry)
        cell = Workcell(workcell_config_from_dict({"obstacles": obstacles}))
        rays = []
        for _ in range(OBSTACLE_SEGMENTS):
            d = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = sum(c * c for c in d) ** 0.5
            origin = tuple(rng.uniform(0.0, 1.0) for _ in range(3))
            rays.append((origin, tuple(c / norm for c in d), rng.uniform(0.0004, 0.004)))
        samples = []
        for _ in range(OBSTACLE_REPEATS):
            start = time.perf_counter()
            for origin, direction, length in rays:
                cell._first_hit(origin, direction, length)
            samples.append((time.perf_counter() - start) / OBSTACLE_SEGMENTS * 1e6)
        out[count] = statistics.median(samples)
    return out


# ---------------------------------------------------------------------------
# CLI start-up


def cli_probe(root: str, workdir: str) -> dict[str, float]:
    """Median wall milliseconds of `adsl run --trace` and `adsl reverse` as
    fresh `python -m adsl.cli` processes; raises if a command misbehaves."""
    examples = os.path.join(root, "src", "adsl", "examples")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    trace = os.path.join(workdir, "cli_probe.ndjson")
    commands = {
        "run": (["run", "peg_in_hole.adsl", "--workcell", "blocked.json", "--trace", trace],
                "result: completed"),
        "reverse": (["reverse", "reverse_demo.adsl", "--workcell", "free_space.json"],
                    "io bits restored: true"),
    }
    out = {}
    for name, (args, expect) in commands.items():
        argv = [sys.executable, "-m", "adsl.cli"] + [
            os.path.join(examples, a) if a.endswith((".adsl", ".json")) else a for a in args
        ]
        samples = []
        for _ in range(CLI_REPEATS):
            start = time.perf_counter()
            proc = subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True, timeout=60)
            samples.append((time.perf_counter() - start) * 1e3)
            if proc.returncode != 0 or expect not in proc.stdout:
                raise RuntimeError(f"adsl {name} exited {proc.returncode}: {proc.stderr.strip()}")
        out[name] = statistics.median(samples)
    with open(trace, "rb") as fh:
        out["run_trace_sha256"] = _sha(fh.read())
    return out


# ---------------------------------------------------------------------------
# Environment record


def environment(root: str) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src = os.path.join(root, "src", "adsl")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": commit,
        "src_adsl_lines": lines,
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-witness"]:
        sys.exit("usage: python3 bench/probes.py --write-witness")
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    workdir = os.path.join(HERE, "out")
    os.makedirs(workdir, exist_ok=True)
    digests = witness(root, workdir)
    with open(WITNESS_FILE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {WITNESS_FILE}")
