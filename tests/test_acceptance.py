"""Acceptance suite: one test per shipped criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in
captured output) and enforces its wall-clock budget. Tolerances are fixed
here, not configurable.
"""

import importlib.resources
import math
import random
import time
from contextlib import contextmanager

from _helpers import max_overshoot_past_first_contact, of_kind, random_reversible_program

from adsl.cli import main as cli_main
from adsl.controller import Controller, ControllerOptions
from adsl.model import validate_program
from adsl.parser import parse_program
from adsl.printer import pretty_print
from adsl.reverse import PolicyMode, ResumePolicy, StopReason, reverse_execute
from adsl.trace import EventKind
from adsl.workcell import (
    Workcell,
    load_workcell_config,
    workcell_config_from_dict,
)

EXAMPLES = importlib.resources.files("adsl") / "examples"


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_seconds:
        print(f"FAIL criterion {number}: {description} (over budget: {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {limit_seconds}s budget ({elapsed:.2f}s)"
        )
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def load_example(name):
    return (EXAMPLES / name).read_text(encoding="utf-8")


def run_example(program_name, config_name, seed=0, options=None):
    program = parse_program(load_example(program_name))
    config = load_workcell_config(str(EXAMPLES / config_name))
    controller = Controller(program, config, seed=seed, options=options)
    result = controller.run()
    return controller, result


def test_criterion_1_corpus_fidelity():
    with criterion(1, "corpus parses, validates, and round-trips", 1.0):
        program = parse_program(load_example("peg_in_hole.adsl"))
        assert validate_program(program) == []
        text = pretty_print(program)
        reparsed = parse_program(text)
        assert reparsed == program
        assert pretty_print(reparsed) == text


def test_criterion_2_aligned_peg_in_hole():
    with criterion(2, "aligned insertion completes with zero errors", 5.0):
        controller, result = run_example("peg_in_hole.adsl", "aligned.json")
        assert result.completed and result.stats.errors == 0

        begins = of_kind(controller.trace, EventKind.ATTEMPT_BEGIN)
        ends = of_kind(controller.trace, EventKind.ATTEMPT_END)
        assert len(begins) == len(ends) == 1
        assert begins[0].data["move"] == "insert_peg"
        assert ends[0].data["covered"] > 0.20  # strict

        # on_success return_to_initial_position restored the TCP pose.
        instr_end = next(
            e
            for e in of_kind(controller.trace, EventKind.INSTR_END)
            if e.data["text"] == 'adv_move "insert_peg";'
        )
        assert instr_end.post_joints == instr_end.pre_joints


def test_criterion_3_blocked_peg_in_hole():
    with criterion(3, "blocked insertion: 4 attempts, one recovery, resume", 10.0):
        controller, result = run_example("peg_in_hole.adsl", "blocked.json")
        assert result.completed, result.reason

        assert len(of_kind(controller.trace, EventKind.ATTEMPT_BEGIN)) == 4
        errors = of_kind(controller.trace, EventKind.ERROR_SIGNALED)
        assert [e.data["error"] for e in errors] == ["peg_not_inserted"]

        rec_begin = of_kind(controller.trace, EventKind.RECOVERY_BEGIN)
        rec_end = of_kind(controller.trace, EventKind.RECOVERY_END)
        assert len(rec_begin) == len(rec_end) == 1
        assert rec_begin[0].data["sequence"] == "peg_in_hole_recovery"

        # Forward execution continued inside the enclosing sequence, at the
        # instruction after the failed guarded move (return_to=sequence).
        after = [
            e
            for e in controller.trace.events[rec_end[0].index :]
            if e.kind is EventKind.INSTR_BEGIN
        ]
        assert after and after[0].stack[-1] == ("reliability_test", 3)

        program = parse_program(load_example("peg_in_hole.adsl"))
        start = program.joint_confs["startPosition"].joints
        final = controller.ctx.workcell.state.joints
        assert all(abs(a - b) <= 1e-9 for a, b in zip(final, start))


def _disc_overlap_oracle(samples=400_000, seed=20240817):
    """Brute-force estimate of one perturbed attempt landing in the aperture.

    Geometry mirrors stats.json: disc radius 10 mm in the wall plane, square
    aperture of half-extent 2 mm centered 6 mm off the nominal ray.
    """
    rng = random.Random(seed)
    radius, offset, half = 0.010, 0.006, 0.002
    hits = 0
    for _ in range(samples):
        r = radius * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        u = r * math.cos(theta)
        v = r * math.sin(theta)
        if abs(u - offset) <= half and abs(v) <= half:
            hits += 1
    return hits / samples


def test_criterion_4_perturbation_statistics():
    with criterion(4, "retry success rate matches the geometric oracle", 60.0):
        per_attempt = _disc_overlap_oracle()
        oracle = 1.0 - (1.0 - per_attempt) ** 3  # three perturbed retries

        program = parse_program(load_example("stats_insert.adsl"))
        config = load_workcell_config(str(EXAMPLES / "stats.json"))
        options = ControllerOptions(record_motion_samples=False)
        successes = 0
        for seed in range(1000):
            controller = Controller(
                program,
                config,
                seed=seed,
                options=ControllerOptions(record_motion_samples=False),
            )
            result = controller.run()
            assert result.completed, result.reason
            if result.stats.errors == 0:
                successes += 1
        rate = successes / 1000.0
        assert abs(rate - oracle) <= 0.03, (rate, oracle)


def test_criterion_5_guard_overshoot():
    with criterion(5, "guard halts within six control cycles of contact", 1.0):
        # Zero-noise variant of the blocked scene; insert_peg runs slow
        # (0.05 m/s) with dt 0.008 and filter window 5.
        program = parse_program(load_example("peg_in_hole.adsl"))
        config = workcell_config_from_dict(
            {
                "home_joints": [3.425, -1.0, 0.5, 0.0, 0.0, 0.0],
                "obstacles": [
                    {
                        "box": {"min": [3.575, -1.5, 0.0], "max": [3.675, -0.5, 0.6]},
                        "hole": {
                            "axis": "x",
                            "center": [-0.96, 0.3],
                            "half_extents": [0.01, 0.01],
                        },
                    }
                ],
                "noise_sigma": 0.0,
            }
        )
        controller = Controller(program, config, seed=0)
        controller.run()
        worst = max_overshoot_past_first_contact(controller.trace)
        assert worst is not None
        assert worst <= 0.05 * 0.008 * 6  # 0.0024 m


def test_criterion_6_filter_correctness():
    with criterion(6, "running average equals the exact window mean", 5.0):
        rng = random.Random(60_617)
        for case in range(10_000):
            window = rng.randint(1, 8)
            sigma = 0.0 if case % 2 == 0 else rng.uniform(0.05, 2.0)
            cell = Workcell(
                workcell_config_from_dict(
                    {"filter_window": window, "noise_sigma": sigma}
                )
            )
            raws = []
            for _ in range(rng.randint(1, 12)):
                cell.state.in_contact = rng.random() < 0.4
                raw, filtered = cell.read_force(rng)
                raws.append(raw)
                expected = sum(raws[-window:]) / len(raws[-window:])
                if sigma == 0.0:
                    assert filtered == expected
                else:
                    assert abs(filtered - expected) <= 1e-12


def test_criterion_7_forward_reverse_identity():
    with criterion(7, "full-depth reversal restores state; barriers hold", 30.0):
        config = workcell_config_from_dict(
            {"noise_sigma": 0.0, "home_joints": [0.0, 0.0, 0.1, 0.0, 0.0, 0.0]}
        )
        rng = random.Random(314159)
        for trial in range(100):
            text, n_instr = random_reversible_program(rng)
            program = parse_program(text)
            assert validate_program(program) == []
            controller = Controller(program, config, seed=trial)
            joints0 = controller.ctx.workcell.state.joints
            bits0 = controller.ctx.workcell.state.bits()
            result = controller.run()
            assert result.completed, result.reason
            plan = reverse_execute(
                controller.trace, None, controller.ctx, registry=controller.registry
            )
            assert plan.stop_reason is StopReason.TRACE_START
            state = controller.ctx.workcell.state
            assert state.bits() == bits0
            assert state.joints == joints0

            # Same program with a barrier at a random instruction: reversal
            # stops exactly there.
            barrier_at = rng.randrange(n_instr)
            lines = text.splitlines()
            row = next(i for i, l in enumerate(lines) if l.startswith("sequence"))
            stmts = [
                s if s.endswith(";") else s + ";"
                for s in lines[row][len('sequence "main" { ') : -2].split("; ")
                if s
            ]
            stmts[barrier_at] = "@barrier " + stmts[barrier_at]
            lines[row] = 'sequence "main" { ' + " ".join(stmts) + " }"
            program_b = parse_program("\n".join(lines))
            controller_b = Controller(program_b, config, seed=trial)
            controller_b.run()
            plan_b = reverse_execute(
                controller_b.trace, None, controller_b.ctx, registry=controller_b.registry
            )
            assert plan_b.stop_reason is StopReason.BARRIER
            assert len(plan_b.steps) == n_instr - barrier_at - 1
            stopped = controller_b.trace.events[plan_b.stop_index]
            assert stopped.data["text"].startswith("@barrier")


SCRIPTED_FAILURE = """
joint_configuration rest = { 0.0, 0.0, 0.1, 0.0, 0.0, 0.0 };
error "stuck" { }
advanced_move "doomed" {
  specification { distance 0.001 direction forward frame tcp; }
  evaluation { distance_covered(more_than, 999.0); }
  on_fail { throw_error("stuck"); }
}
sequence "main" {
  wait 0.01;
  wait 0.01;
  wait 0.01;
  wait 0.01;
  wait 0.01;
  adv_move "doomed";
}
entry "main";
"""


def test_criterion_8_progressive_resume_policy():
    with criterion(8, "reversal depths follow the resume policy", 5.0):
        program = parse_program(SCRIPTED_FAILURE)
        assert validate_program(program) == []
        config = workcell_config_from_dict(
            {"noise_sigma": 0.0, "home_joints": [0.0, 0.0, 0.1, 0.0, 0.0, 0.0]}
        )
        for mode, expected in (
            (PolicyMode.LINEAR, [1, 2, 3]),
            (PolicyMode.EXPONENTIAL, [1, 2, 4]),
        ):
            options = ControllerOptions(
                resume_policy=ResumePolicy(mode=mode, base_depth=1)
            )
            controller = Controller(program, config, seed=0, options=options)
            controller.run()
            depths = [
                e.data["depth"]
                for e in of_kind(controller.trace, EventKind.REVERSE_BEGIN)
            ]
            assert depths[:3] == expected, depths


def test_criterion_9_trace_determinism(tmp_path, capsys):
    with criterion(9, "identical runs produce byte-identical traces", 5.0):
        corpus = str(EXAMPLES / "peg_in_hole.adsl")
        workcell = str(EXAMPLES / "aligned.json")
        paths = [tmp_path / "a.ndjson", tmp_path / "b.ndjson"]
        for path in paths:
            code = cli_main(
                ["run", corpus, "--workcell", workcell, "--seed", "3", "--trace", str(path)]
            )
            assert code == 0
        capsys.readouterr()
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert len(first) > 0
