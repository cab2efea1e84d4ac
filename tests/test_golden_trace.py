"""Golden traces for leaf execution in every role it plays.

One program runs each leaf kind forward, carries each primitive kind as a
`@reverse_with` payload, and recovers by progressive reversal from an error
signaled by a registered action. The sha256 of the serialized trace pins the
bytes: forward runs, payloads, and undo steps must keep executing exactly as
these digests record.
"""

import hashlib
import importlib.resources

import pytest

from adsl.cli import EXIT_ABORTED, main
from adsl.controller import Controller, ControllerOptions, default_registry
from adsl.reverse import PolicyMode, ResumePolicy, StopReason, reverse_execute
from adsl.trace import EventKind

from _helpers import build, quiet_config


GOLDEN_PROGRAM = """
io_operation "on" { set_high; bit 1; sleep 0.01; }
io_operation "off" { set_low; bit 1; }
io_operation "mark" { set_high; bit 2; }
joint_configuration a = { 0.02, 0.0, 0.1, 0.0, 0.0, 0.0 };
joint_configuration b = { 0.02, 0.02, 0.11, 0.0, 0.0, 0.0 };
error "glitch" { }
advanced_move "probe" {
  specification { distance 0.01 direction forward frame tcp; speed slow; }
  evaluation { distance_covered(more_than, 0.005); }
  on_fail { return_to_initial_position; }
}
sequence "inner" { wait 0.01; call "noop" (); }
sequence "main" {
  io "on";
  move to a;
  wait 0.02;
  call "noop" ();
  adv_move "probe";
  seq "inner";
  @reverse_with(move to a) move to b;
  @reverse_with(io "off") io "mark";
  @reverse_with(wait 0.03) wait 0.01;
  @reverse_with(call "noop" ()) call "flaky" ();
  wait 0.01;
}
entry "main";
"""

#: sha256 of the trace of a forward run followed by a full reversal.
GOLDEN_DIGESTS = {
    PolicyMode.LINEAR: "548b1efd7978b630d3d80655559f0b4edf714275be4708f04d71b2d048b14729",
    PolicyMode.EXPONENTIAL: "6a3ded1edb83e4311f51428f869bb25148f95a6471067c23b63822072757f533",
}


def golden_run(mode):
    """Forward run (the action fails four times), then full reversal."""
    registry = default_registry()
    runs = {"n": 0}

    def flaky(ctx, items):
        runs["n"] += 1
        if runs["n"] <= 4:
            ctx.signal_error("glitch")

    registry.register("flaky", flaky)
    options = ControllerOptions(resume_policy=ResumePolicy(mode=mode))
    controller = Controller(
        build(GOLDEN_PROGRAM), quiet_config(), seed=0, options=options, registry=registry
    )
    result = controller.run()
    plan = reverse_execute(
        controller.trace, None, controller.ctx, registry=controller.registry
    )
    return controller, result, plan


@pytest.mark.parametrize("mode", list(PolicyMode))
def test_golden_trace_digest(mode):
    controller, result, plan = golden_run(mode)
    assert result.completed, result.reason
    assert result.stats.errors == 4
    assert plan.stop_reason is StopReason.TRACE_START
    depths = [e.data["depth"] for e in controller.trace.of_kind(EventKind.REVERSE_BEGIN)]
    expected = [1, 2, 3, 4] if mode is PolicyMode.LINEAR else [1, 2, 4, 8]
    assert depths == expected + ["full"]
    digest = hashlib.sha256(controller.trace.serialize().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_DIGESTS[mode]


def test_unregistered_reverse_with_payload_aborts_reversal(capsys, tmp_path):
    prog = tmp_path / "nope.adsl"
    prog.write_text('sequence "s" { @reverse_with(call "nope"()) wait 0.2; }\nentry "s";')
    workcell = importlib.resources.files("adsl") / "examples" / "free_space.json"
    code = main(["reverse", str(prog), "--workcell", str(workcell)])
    err = capsys.readouterr().err
    assert code == EXIT_ABORTED
    assert "reversal failed: unregistered action 'nope'" in err
