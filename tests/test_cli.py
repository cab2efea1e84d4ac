import importlib.resources

import pytest

from adsl.cli import (
    EXIT_ABORTED,
    EXIT_INPUT_ERROR,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_REVERSAL_BLOCKED,
    main,
)

from _helpers import call_chain

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

    @pytest.mark.parametrize("command", ["run", "reverse"])
    @pytest.mark.parametrize("config, message", [
        ('{"home_joints": 5}', "home_joints must be a list of dof numbers"),
        ('{"dof": "6"}', "dof must be an integer"),
        ('{"home_joints": [NaN, 0, 0.1, 0, 0, 0]}', "home_joints must be finite"),
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
        assert summary["stop reason"] == "trace_start"
        assert code == EXIT_OK

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


class TestWorkcellDof:
    """A config whose dof differs from the program's joint configurations or
    from the kinematic model ends in a documented exit code, not a traceback."""

    DOF7 = '{"dof": 7, "home_joints": [0, 0, 0.1, 0, 0, 0, 0]}'

    @pytest.mark.parametrize("command", ["run", "reverse"])
    def test_program_validated_against_config_dof(self, capsys, tmp_path, command):
        cfg = tmp_path / "dof7.json"
        cfg.write_text(self.DOF7)
        code, out, err = run_cli(
            capsys, command, example("reverse_demo.adsl"), "--workcell", str(cfg)
        )
        assert code == EXIT_INVALID
        assert "exactly 7 values" in out
        assert err == ""

    @pytest.mark.parametrize("command", ["run", "reverse"])
    def test_model_dof_mismatch_is_an_input_error(self, capsys, tmp_path, command):
        cfg = tmp_path / "dof7.json"
        cfg.write_text(self.DOF7)
        prog = tmp_path / "wait.adsl"
        prog.write_text('sequence "s" { wait 0.1; }\nentry "s";')
        code, out, err = run_cli(capsys, command, str(prog), "--workcell", str(cfg))
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith(f"error: {cfg}: kinematic model expects 6 joints")
