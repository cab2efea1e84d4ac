import importlib.resources
import json
import logging
import os
import runpy
import subprocess
import sys

import pytest

import adsl
from adsl.cli import (
    EXIT_ABORTED,
    EXIT_INPUT_ERROR,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_REVERSAL_BLOCKED,
    main,
)
from adsl import controller as controller_module
from adsl.controller import Controller
from adsl.workcell import load_workcell_config

from _helpers import build, call_chain
from test_golden_trace import BLOCKED, WALL

EXAMPLES = importlib.resources.files("adsl") / "examples"


def example(name):
    return str(EXAMPLES / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_dict(out):
    entries = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(":")
        entries[key.strip()] = value.strip()
    return entries


class TestValidate:
    def test_valid_corpus_silent(self, capsys, corpus_path):
        code, out, err = run_cli(capsys, "validate", corpus_path)
        assert code == EXIT_OK
        assert out == "" and err == ""

    def test_dangling_name(self, capsys, tmp_path):
        bad = tmp_path / "bad.adsl"
        bad.write_text('sequence "s" { move to startPos; }')
        code, out, _ = run_cli(capsys, "validate", str(bad))
        assert code == EXIT_INVALID
        assert len(out.strip().splitlines()) == 1
        assert "unresolved joint configuration" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "ghost.adsl"))
        assert code == EXIT_INPUT_ERROR
        assert "cannot read" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.adsl"
        bad.write_text('sequence "s" {')
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == EXIT_INPUT_ERROR
        assert "expected" in err

    def test_call_chain_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        chain = tmp_path / "chain.adsl"
        chain.write_text(call_chain(1200))
        assert run_cli(capsys, "validate", str(chain)) == (EXIT_OK, "", "")

    @pytest.mark.parametrize("command", ["validate", "run", "reverse"])
    def test_integer_literal_over_the_conversion_limit(self, capsys, tmp_path, command):
        prog = tmp_path / "long.adsl"
        prog.write_text("joint_configuration a = {" + "1" * 5000 + ", 0, 0, 0, 0, 0};")
        argv = [command, str(prog)]
        if command != "validate":
            argv += ["--workcell", example("free_space.json")]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err == (
            f"error: {prog}:1:26: expected a shorter integer, found '5000-digit integer'\n"
        )

    def test_integer_literal_beyond_float_range_is_a_diagnostic(self, capsys, tmp_path):
        prog = tmp_path / "huge.adsl"
        prog.write_text("joint_configuration a = {" + "1" * 400 + ", 0, 0, 0, 0, 0};")
        code, out, err = run_cli(capsys, "validate", str(prog))
        assert code == EXIT_INVALID
        assert "'a' non-finite joint value" in out
        assert err == ""

    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path):
        # A recovery sequence reaching six moves that each throw its error:
        # one diagnostic a move, in a fixed order rather than set order.
        moves = "".join(
            f'advanced_move "m{i}" {{ specification {{ distance 0.1 direction forward frame tcp; }}'
            ' evaluation { forces_exceed(1); } on_fail { throw_error("stuck"); } }\n'
            for i in range(6)
        )
        calls = " ".join(f'adv_move "m{i}";' for i in range(6))
        prog = tmp_path / "rethrow.adsl"
        prog.write_text(
            moves + f'sequence "rec" {{ {calls} }}\n'
            'error "stuck" { recovery_sequence "rec"; }\n'
            f'sequence "main" {{ {calls} }}\nentry "main";\n'
        )
        outputs = set()
        for hash_seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.dirname(os.path.dirname(adsl.__file__)))
            done = subprocess.run([sys.executable, "-m", "adsl", "validate", str(prog)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == EXIT_INVALID
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs
        out = outputs.pop()
        assert [line.split("'")[3] for line in out.splitlines()] == [f"m{i}" for i in range(6)]


class TestRun:
    def test_aligned_completes_clean(self, capsys, corpus_path):
        code, out, _ = run_cli(
            capsys, "run", corpus_path, "--workcell", example("aligned.json")
        )
        assert code == EXIT_OK
        summary = summary_dict(out)
        assert summary["result"] == "completed"
        assert summary["errors"] == "0"
        assert summary["seed"] == "0"

    def test_blocked_recovers_once(self, capsys, corpus_path):
        code, out, _ = run_cli(
            capsys, "run", corpus_path, "--workcell", example("blocked.json")
        )
        assert code == EXIT_OK
        summary = summary_dict(out)
        assert summary["errors"] == "1"
        assert summary["recoveries"] == "1"

    def test_trace_files_byte_identical(self, capsys, corpus_path, tmp_path):
        t1 = tmp_path / "a.ndjson"
        t2 = tmp_path / "b.ndjson"
        for path in (t1, t2):
            code, _, _ = run_cli(
                capsys,
                "run",
                corpus_path,
                "--workcell",
                example("blocked.json"),
                "--seed",
                "9",
                "--trace",
                str(path),
            )
            assert code == EXIT_OK
        assert t1.read_bytes() == t2.read_bytes()
        assert t1.stat().st_size > 0

    def test_unwritable_trace_path(self, capsys, corpus_path):
        path = "/nonexistent/dir/t.ndjson"
        code, out, err = run_cli(
            capsys, "run", corpus_path, "--workcell", example("aligned.json"), "--trace", path
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("program", ["peg_in_hole", "one_wait"], ids=["in_run", "at_close"])
    def test_trace_write_that_fails(self, capsys, tmp_path, program):
        # The blocked run's trace overflows the file buffer mid-run; the
        # one-wait trace is written only when the file is closed.
        if program == "one_wait":
            path = tmp_path / "p.adsl"
            path.write_text('sequence "s" { wait 0.1; }')
        else:
            path = example("peg_in_hole.adsl")
        code, out, err = run_cli(
            capsys, "run", str(path), "--workcell", example("blocked.json"), "--trace", "/dev/full"
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith("error: cannot write /dev/full: ")
        assert len(err.splitlines()) == 1

    def test_workcell_required(self, capsys, corpus_path):
        with pytest.raises(SystemExit):
            main(["run", corpus_path])

    def test_aborting_program_exits_3(self, capsys, tmp_path):
        prog = tmp_path / "abort.adsl"
        prog.write_text('sequence "s" { call "ghost" (); }')
        code, out, _ = run_cli(
            capsys, "run", str(prog), "--workcell", example("free_space.json")
        )
        assert code == EXIT_ABORTED
        summary = summary_dict(out)
        assert summary["result"] == "aborted"
        assert "unregistered" in summary["reason"]

    @pytest.mark.parametrize("command", ["run", "reverse"])
    def test_out_of_range_io_bit_aborts(self, capsys, tmp_path, command):
        prog = tmp_path / "bits.adsl"
        prog.write_text(
            'io_operation "bad" { set_high; bit 1; set_high; bit 8; }\nsequence "s" { io "bad"; }'
        )
        code, out, err = run_cli(capsys, command, str(prog), "--workcell", example("free_space.json"))
        assert code == EXIT_ABORTED
        if command == "run":
            assert summary_dict(out)["reason"] == "io bit out of range: bit 8 outside 0..7"
        else:  # undoing the aborted `io "bad"` writes bit 8 again
            assert out == "" and err == "error: reversal failed: io bit out of range: bit 8 outside 0..7\n"

    @pytest.mark.parametrize("flags, code, expected", [
        ((), EXIT_OK, {"result": "completed", "errors": "1"}),
        (("--return-to-sequence", "resume"), EXIT_OK, {"result": "completed", "errors": "1"}),
        (("--return-to-sequence", "restart"), EXIT_ABORTED,
         {"result": "aborted", "reason": "resume loop guard: error 'miss' recurred 6 times"}),
    ], ids=["default", "resume", "restart"])
    def test_return_to_sequence_flag(self, capsys, tmp_path, flags, code, expected):
        prog = tmp_path / "miss.adsl"
        prog.write_text(
            'error "miss" { recovery_sequence "rec"; return_to sequence; }\n'
            'sequence "rec" { wait 0.01; }\n'
            'advanced_move "m" {\n'
            "  specification { distance 0.001 direction forward frame tcp; }\n"
            "  evaluation { distance_covered(more_than, 999.0); }\n"
            '  on_fail { throw_error("miss"); }\n'
            "}\n"
            'sequence "main" { wait 0.01; adv_move "m"; }\n'
            'entry "main";'
        )
        got, out, _ = run_cli(
            capsys, "run", str(prog), "--workcell", example("free_space.json"), *flags
        )
        summary = summary_dict(out)
        assert got == code
        assert {key: summary[key] for key in expected} == expected

    def test_seed_defaults_to_the_config_rng_seed(self, capsys, corpus_path, tmp_path):
        cell = tmp_path / "seven.json"
        with open(example("blocked.json"), encoding="utf-8") as fh:
            cell.write_text(json.dumps({**json.load(fh), "rng_seed": 7}))
        traces = []
        for flags in ((), ("--seed", "7")):
            trace = tmp_path / f"{len(traces)}.ndjson"
            code, out, _ = run_cli(
                capsys, "run", corpus_path, "--workcell", str(cell), "--trace", str(trace), *flags
            )
            assert code == EXIT_OK and summary_dict(out)["seed"] == "7"
            traces.append(trace.read_bytes())
        assert traces[0] == traces[1]
        _, out, _ = run_cli(capsys, "reverse", corpus_path, "--workcell", str(cell))
        assert summary_dict(out)["seed"] == "7"

    @pytest.mark.parametrize("command", ["run", "reverse"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_config_range_is_a_usage_error(self, capsys, command, seed):
        # `random.Random` seeds with abs(n): -1 would run as 1 but print -1.
        with pytest.raises(SystemExit) as exc:
            main([command, example("reverse_demo.adsl"), "--workcell",
                  example("free_space.json"), "--seed", str(seed)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --seed:" in captured.err

    def test_trace_quotes_sequence_names(self, capsys, tmp_path):
        name = 'a"b\\c\tdé'
        prog, trace = tmp_path / "p.adsl", tmp_path / "t.ndjson"
        written = name.replace("\\", "\\\\").replace('"', '\\"')
        prog.write_text(f'sequence "{written}" {{ wait 0.1; }}\n'
                        f'sequence "main" {{ seq "{written}"; wait 0.1; }}\nentry "main";',
                        encoding="utf-8")
        code, _, _ = run_cli(capsys, "run", str(prog), "--workcell", example("free_space.json"),
                             "--trace", str(trace))
        assert code == EXIT_OK
        records = [json.loads(line) for line in trace.read_text(encoding="ascii").splitlines()]
        assert {tuple(seq for seq, _ in r["stack"]) for r in records} == {
            ("main",), ("main", name)
        }

    def test_trace_of_a_collision_abort_is_complete(self, capsys, tmp_path):
        prog, cell, trace = tmp_path / "p.adsl", tmp_path / "cell.json", tmp_path / "t.ndjson"
        prog.write_text(BLOCKED)
        cell.write_text(json.dumps({
            "noise_sigma": 0.0, "home_joints": [0.0, 0.0, 0.1, 0.0, 0.0, 0.0], "obstacles": [WALL],
        }))
        code, out, _ = run_cli(
            capsys, "run", str(prog), "--workcell", str(cell), "--seed", "3", "--trace", str(trace)
        )
        assert code == EXIT_ABORTED
        assert summary_dict(out)["reason"].startswith("collision during move")
        controller = Controller(build(BLOCKED), load_workcell_config(str(cell)), seed=3)
        assert not controller.run().completed
        expected = controller.trace.serialize()
        assert trace.read_text(encoding="utf-8") == expected
        assert '"aborted":true' in expected.splitlines()[-1]

    def test_cycle_cap_ends_a_move_that_never_arrives(self, capsys, tmp_path, monkeypatch):
        # The distance to the target overflows to inf, so each cycle moves
        # the tool a finite step and it never arrives.
        monkeypatch.setattr(controller_module, "MAX_CONTROL_CYCLES", 1000)
        cell = tmp_path / "far.json"
        cell.write_text('{"home_joints": [1e308, 0, 0.1, 0, 0, 0]}')
        code, out, _ = run_cli(capsys, "run", example("reverse_demo.adsl"), "--workcell", str(cell))
        assert code == EXIT_ABORTED
        assert summary_dict(out)["reason"] == "control cycles exceed MAX_CONTROL_CYCLES (1000)"
        code, out, _ = run_cli(
            capsys, "reverse", example("reverse_demo.adsl"), "--workcell", str(cell)
        )
        summary = summary_dict(out)
        assert (code, summary["forward result"]) == (EXIT_ABORTED, "aborted")
        assert summary["reason"] == "control cycles exceed MAX_CONTROL_CYCLES (1000)"

    @pytest.mark.parametrize("text, home", [
        ("joint_configuration far = { 1" + "0" * 308 + ".0, 0.0, 0.0, 0.0, 0.0, 0.0 };\n"
         'sequence "main" { move to far; }', -1e308),
        ('advanced_move "far" {\n'
         "  specification { distance 1" + "0" * 308 + ".0 direction forward frame base; }\n"
         "  evaluation { distance_covered(more_than, 1.0); }\n"
         "  on_fail { return_to_initial_position; }\n"
         '}\nsequence "main" { adv_move "far"; }', 1e308),
    ], ids=["move", "guarded"])
    def test_a_move_whose_span_overflows_aborts(self, capsys, tmp_path, monkeypatch, text, home):
        # Start to target overflows to inf: stepping would write NaN joints.
        monkeypatch.setattr(controller_module, "MAX_CONTROL_CYCLES", 50)
        prog, cell, trace = tmp_path / "p.adsl", tmp_path / "cell.json", tmp_path / "t.ndjson"
        prog.write_text(text)
        cell.write_text(json.dumps({"home_joints": [home, 0, 0, 0, 0, 0]}))
        assert run_cli(capsys, "validate", str(prog))[0] == EXIT_OK
        code, out, _ = run_cli(
            capsys, "run", str(prog), "--workcell", str(cell), "--trace", str(trace)
        )
        assert code == EXIT_ABORTED
        assert summary_dict(out)["reason"].startswith("move out of range: ")
        for line in trace.read_text(encoding="ascii").splitlines():
            json.loads(line)

    def test_cycle_cap_ends_retries_that_never_move(self, capsys, tmp_path, monkeypatch):
        # A guarded move of distance 0 in a cell without perturbation makes
        # no control cycle; each attempt still counts as one. 5,000 retries
        # stand for 1e9: without the count the run completes instead.
        monkeypatch.setattr(controller_module, "MAX_CONTROL_CYCLES", 1000)
        cell = tmp_path / "still.json"
        cell.write_text('{"perturbation_radius": 0, "noise_sigma": 0}')
        prog = tmp_path / "still.adsl"
        prog.write_text(
            'advanced_move "nudge" {\n'
            "  specification { distance 0 direction down frame base; }\n"
            "  evaluation { distance_covered(more_than, 1.0); }\n"
            "  on_fail { repeat_with_perturbation(5000); }\n"
            "}\n"
            'sequence "s" { adv_move "nudge"; }\nentry "s";'
        )
        trace = tmp_path / "still.ndjson"
        code, out, _ = run_cli(capsys, "run", str(prog), "--workcell", str(cell), "--trace", str(trace))
        assert code == EXIT_ABORTED
        assert summary_dict(out)["reason"] == "control cycles exceed MAX_CONTROL_CYCLES (1000)"
        kinds = [json.loads(line)["kind"] for line in trace.read_text().splitlines()]
        assert kinds.count("attempt_end") == 1001
        assert "motion_sample" not in kinds

    def test_validation_failure_exits_1(self, capsys, tmp_path):
        prog = tmp_path / "bad.adsl"
        prog.write_text('sequence "s" { io "nope"; }')
        code, _, _ = run_cli(
            capsys, "run", str(prog), "--workcell", example("free_space.json")
        )
        assert code == EXIT_INVALID

    def test_bad_workcell_config(self, capsys, corpus_path, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"gravity": 9.81}')
        code, _, err = run_cli(capsys, "run", corpus_path, "--workcell", str(cfg))
        assert code == EXIT_INPUT_ERROR
        assert "unknown workcell config keys" in err

    def test_missing_workcell_file(self, capsys, corpus_path, tmp_path):
        code, out, err = run_cli(
            capsys, "run", corpus_path, "--workcell", str(tmp_path / "ghost.json")
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith(f"error: cannot read {tmp_path / 'ghost.json'}: ")

    @pytest.mark.parametrize("command", ["run", "reverse"])
    @pytest.mark.parametrize("config, message", [
        ('{"home_joints": 5}', "home_joints must be a list of 6 numbers"),
        ('{"home_joints": [0, 0, 0.1, 0, 0]}', "home_joints must be a list of 6 numbers"),
        ('{"home_joints": [0, 0, 0.1, 0, 0, 0, 0]}', "home_joints must be a list of 6 numbers"),
        ('{"dof": 6}', "unknown workcell config keys: ['dof']"),
        ('{"home_joints": [NaN, 0, 0.1, 0, 0, 0]}', "home_joints must be finite"),
        ('{"dt": 5e-324}', "dt is too small: very_slow speed * dt is 0.0"),
        ('{"bit_count": 100000000000}', "bit_count must be at most 1024"),
        ('{"filter_window": 1000000000000000000000000000000}',
         "filter_window must be at most 1024"),
        ('{"dt": 1e308}', "dt must be at most 1.0"),
        ('{"noise_sigma": 1e308}', "noise_sigma must be at most 1000000.0"),
    ])
    def test_mistyped_workcell_config(self, capsys, tmp_path, command, config, message):
        cfg = tmp_path / "typed.json"
        cfg.write_text(config)
        code, out, err = run_cli(
            capsys, command, example("reverse_demo.adsl"), "--workcell", str(cfg)
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err == f"error: {cfg}: {message}\n"


class TestReverse:
    def test_full_depth_restores(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reverse",
            example("reverse_demo.adsl"),
            "--workcell",
            example("free_space.json"),
        )
        assert code == EXIT_OK
        summary = summary_dict(out)
        assert summary["joints restored"] == "true"
        assert summary["io bits restored"] == "true"
        assert summary["stop reason"] == "trace_start"

    def test_barrier_exits_4(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reverse",
            example("barrier_demo.adsl"),
            "--workcell",
            example("free_space.json"),
        )
        assert code == EXIT_REVERSAL_BLOCKED
        assert summary_dict(out)["stop reason"] == "barrier"

    def test_forward_abort_wins_over_a_blocked_reversal(self, capsys, tmp_path):
        prog = tmp_path / "stop.adsl"
        prog.write_text('sequence "s" { @barrier wait 0.1; call "missing" (); }\nentry "s";')
        code, out, _ = run_cli(capsys, "reverse", str(prog), "--workcell", example("free_space.json"))
        summary = summary_dict(out)
        assert summary["reason"] == "unregistered action 'missing'"
        assert summary["stop reason"] == "never_reversible_hit"
        assert code == EXIT_ABORTED

    def test_policy_flags_configure_forward_recovery(self, capsys, tmp_path):
        prog = tmp_path / "doomed.adsl"
        prog.write_text(
            "joint_configuration rest = { 0.0, 0.0, 0.1, 0.0, 0.0, 0.0 };\n"
            'error "stuck" { }\n'
            'advanced_move "doomed" {\n'
            "  specification { distance 0.001 direction forward frame tcp; }\n"
            "  evaluation { distance_covered(more_than, 999.0); }\n"
            '  on_fail { throw_error("stuck"); }\n'
            "}\n"
            'sequence "main" { wait 0.01; wait 0.01; adv_move "doomed"; }\n'
            'entry "main";'
        )
        code, out, _ = run_cli(
            capsys,
            "reverse",
            str(prog),
            "--workcell",
            example("free_space.json"),
            "--policy",
            "exponential",
            "--base-depth",
            "2",
        )
        # The forward run aborts on the loop guard; the reversal after it
        # still reaches the start of what remains unconsumed.
        summary = summary_dict(out)
        assert summary["forward result"] == "aborted"
        assert summary["reason"].startswith("resume loop guard: error 'stuck'")
        assert summary["stop reason"] == "trace_start"
        assert code == EXIT_ABORTED

    def test_depth_one_on_two_instruction_program(self, capsys, tmp_path):
        prog = tmp_path / "two.adsl"
        prog.write_text(
            'io_operation "on" { set_high; bit 0; }\n'
            'sequence "s" { io "on"; wait 0.05; }\n'
            'entry "s";'
        )
        code, out, _ = run_cli(
            capsys,
            "reverse",
            str(prog),
            "--workcell",
            example("free_space.json"),
            "--depth",
            "1",
        )
        assert code == EXIT_OK
        summary = summary_dict(out)
        assert summary["steps reversed"] == "1"
        assert summary["stop reason"] == "depth_reached"
        # Only the wait was undone; the io write is still in effect.
        assert summary["io bits restored"] == "false"

    @pytest.mark.parametrize("flag, value", [
        ("--depth", "-3"),
        ("--depth", "two"),
        ("--base-depth", "0"),
        ("--base-depth", "-1"),
    ])
    def test_nonsense_counts_are_usage_errors(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([
                "reverse", example("reverse_demo.adsl"),
                "--workcell", example("free_space.json"), flag, value,
            ])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument {flag}:" in captured.err

    def test_depth_zero_undoes_nothing(self, capsys):
        code, out, _ = run_cli(
            capsys, "reverse", example("reverse_demo.adsl"),
            "--workcell", example("free_space.json"), "--depth", "0",
        )
        assert code == EXIT_OK
        assert summary_dict(out)["steps reversed"] == "0"


class TestUndecodableInput:
    @pytest.mark.parametrize("command", ["validate", "run", "reverse"])
    def test_program_that_is_not_utf8(self, capsys, tmp_path, command):
        prog = tmp_path / "latin1.adsl"
        prog.write_bytes('sequence "s" { wait 0.1; } # caf\xe9\n'.encode("latin-1"))
        argv = [command, str(prog)]
        if command != "validate":
            argv += ["--workcell", example("free_space.json")]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith(f"error: {prog}: not UTF-8 text:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "reverse"])
    def test_workcell_json_nested_too_deep(self, capsys, tmp_path, command):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(
            capsys, command, example("reverse_demo.adsl"), "--workcell", str(cfg)
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err == f"error: {cfg}: invalid JSON in {cfg}: nested too deeply\n"


class TestJointCount:
    """The cell has six joints, (x, y, z, roll, pitch, yaw), and no setting
    for their count: a config that names one, or a joint configuration of
    another length, ends in a documented exit code, not a traceback."""

    @pytest.mark.parametrize("command", ["run", "reverse"])
    def test_config_naming_dof_is_an_input_error(self, capsys, tmp_path, command):
        cfg = tmp_path / "dof.json"
        cfg.write_text('{"dof": 7, "home_joints": [0, 0, 0.1, 0, 0, 0, 0]}')
        code, out, err = run_cli(
            capsys, command, example("reverse_demo.adsl"), "--workcell", str(cfg)
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err == f"error: {cfg}: unknown workcell config keys: ['dof']\n"

    @pytest.mark.parametrize("command", ["validate", "run", "reverse"])
    def test_seven_joint_configuration_is_invalid(self, capsys, tmp_path, command):
        prog = tmp_path / "seven.adsl"
        prog.write_text('joint_configuration c = { 0, 0, 0.1, 0, 0, 0, 0 };\n'
                        'sequence "s" { move to c; }\nentry "s";')
        workcell = [] if command == "validate" else ["--workcell", example("free_space.json")]
        code, out, err = run_cli(capsys, command, str(prog), *workcell)
        assert code == EXIT_INVALID
        assert "exactly 6 values" in out
        assert err == ""


@pytest.mark.parametrize("argv, expected", [
    (["validate", example("peg_in_hole.adsl")], EXIT_OK),
    (["run", example("barrier_demo.adsl"), "--workcell", example("free_space.json")], EXIT_OK),
    (["reverse", example("barrier_demo.adsl"), "--workcell", example("free_space.json")],
     EXIT_REVERSAL_BLOCKED),
])
def test_python_dash_m_adsl_returns_the_exit_code(capsys, monkeypatch, argv, expected):
    monkeypatch.setattr(sys, "argv", ["adsl", *argv])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("adsl", run_name="__main__")
    assert exit_.value.code == expected


def _fresh_python(code, *argv):
    """Run `code` in a fresh interpreter that imports this adsl; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(adsl.__file__)))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_cli_import_loads_no_module_it_does_not_need():
    loaded = _fresh_python(
        "import sys, adsl.cli; "
        "print(*[m for m in ('dataclasses', 'inspect', 'logging', 'decimal') if m in sys.modules])"
    )
    assert loaded.split() == []


def _move_peaks_kb(tmp_path, command, trace=False):
    """Peak RSS in KB of `adsl COMMAND` on a 1 m and a 20 m move (25,000
    events), with `--trace` to a file if `trace`."""
    # A child's ru_maxrss starts at its parent's peak, the size of this test
    # process, so the run is a grandchild under a bare interpreter, which
    # reads it as RUSAGE_CHILDREN.
    measure = (
        "import resource, subprocess, sys; "
        "subprocess.run([sys.executable, '-m', 'adsl', *sys.argv[1:]], check=True); "
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    peaks_kb = []
    for metres in (1, 20):
        prog = tmp_path / f"move{metres}.adsl"
        prog.write_text(f"joint_configuration far = {{ {metres}.0, 0.0, 0.1, 0.0, 0.0, 0.0 }};\n"
                        'sequence "s" { move to far; }\nentry "s";')
        traced = ["--trace", str(tmp_path / f"move{metres}.ndjson")] if trace else []
        out = _fresh_python(measure, command, str(prog), "--workcell",
                            example("free_space.json"), *traced)
        assert "result: completed" in out
        peaks_kb.append(int(out.splitlines()[-1]))
    return peaks_kb


def test_streamed_trace_memory_does_not_grow_with_the_run(tmp_path):
    """A 20 m move under `adsl run --trace` peaks within a few MB of a 1 m
    one: the events go to the file and are not kept."""
    peaks_kb = _move_peaks_kb(tmp_path, "run", trace=True)
    lines = (tmp_path / "move20.ndjson").read_text().count("\n")
    assert lines > 25_000
    assert peaks_kb[1] - peaks_kb[0] < 4 * 1024, peaks_kb


@pytest.mark.parametrize("command", ["run", "reverse"])
def test_untraced_memory_does_not_grow_with_the_run(tmp_path, command):
    """Without `--trace`, and under `adsl reverse` (which has none), a 20 m
    move peaks within a few MB of a 1 m one: nothing reads the events, so
    the trace only counts them."""
    peaks_kb = _move_peaks_kb(tmp_path, command)
    assert peaks_kb[1] - peaks_kb[0] < 4 * 1024, peaks_kb


LOG_PROGRAM = 'item "a" { keyframe k { (0.0, 0.0, 0.0); } } sequence "s" { call "log" ("a"); }'


def test_log_action_prints_on_stderr(capsys, tmp_path):
    """The CLI prints the built-in `log` action's message on stderr; stdout and
    the trace are those of a library run, which logs instead."""
    prog, trace = tmp_path / "log.adsl", tmp_path / "t.ndjson"
    prog.write_text(LOG_PROGRAM)
    cell = example("free_space.json")
    code, out, err = run_cli(capsys, "run", str(prog), "--workcell", cell, "--trace", str(trace))
    assert (code, err) == (EXIT_OK, "log: a\n")
    assert summary_dict(out) == {"seed": "0", "result": "completed", "instructions": "1",
                                 "errors": "0", "recoveries": "0", "simulated time": "0.000000"}
    controller = Controller(build(LOG_PROGRAM), load_workcell_config(cell), seed=0)
    controller.run()
    assert trace.read_text(encoding="utf-8") == controller.trace.serialize()
    code, out, err = run_cli(capsys, "reverse", str(prog), "--workcell", cell)
    assert (code, err) == (EXIT_REVERSAL_BLOCKED, "log: a\n")  # `log` has no reverse


def test_log_action_in_library_use_logs_at_info(caplog):
    with caplog.at_level(logging.INFO, logger="adsl"):
        Controller(build(LOG_PROGRAM), load_workcell_config(example("free_space.json"))).run()
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == \
        [("adsl", logging.INFO, "log action: a")]
