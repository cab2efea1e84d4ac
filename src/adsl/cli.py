"""Command-line surface: validate, run, and reverse assembly programs.

Exit codes are a fixed map: 0 success, 1 validation diagnostics, 2 I/O or
parse errors, 3 aborted run, 4 reversal stopped by a barrier or a
never-reversible entry. Summaries go to stdout as `key: value` lines;
machine-readable output goes only to the trace file.
"""

from __future__ import annotations

import argparse
import sys

from .controller import Controller, ControllerOptions, RunAborted
from .model import validate_program
from .parser import ParseError, parse_program
from .reverse import PolicyMode, ResumePolicy, StopReason, reverse_execute
from .workcell import BitOutOfRange, WorkcellConfigError, load_workcell_config

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT_ERROR = 2
EXIT_ABORTED = 3
EXIT_REVERSAL_BLOCKED = 4


def _load_program(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text: {exc}", file=sys.stderr)
        return None
    try:
        return parse_program(text)
    except ParseError as exc:
        print(f"error: {path}:{exc}", file=sys.stderr)
        return None


def _load_config(path):
    try:
        return load_workcell_config(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except WorkcellConfigError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _report(diagnostics) -> int:
    for diag in diagnostics:
        print(str(diag))
    return EXIT_INVALID if diagnostics else EXIT_OK


def cmd_validate(args) -> int:
    program = _load_program(args.program)
    if program is None:
        return EXIT_INPUT_ERROR
    return _report(validate_program(program))


def _inputs(args):
    """Parse the program, load the config and validate the program against
    the config's dof; returns (program, config, exit code)."""
    program = _load_program(args.program)
    if program is None:
        return None, None, EXIT_INPUT_ERROR
    config = _load_config(args.workcell)
    if config is None:
        return None, None, EXIT_INPUT_ERROR
    return program, config, _report(validate_program(program, config.dof))


def _controller(args, program, config, sink=None):
    """The controller for a run, or None when the workcell cannot host it."""
    try:
        return Controller(
            program, config, seed=args.seed, trace_sink=sink, options=_options_from_args(args)
        )
    except WorkcellConfigError as exc:
        print(f"error: {args.workcell}: {exc}", file=sys.stderr)
        return None


def _options_from_args(args) -> ControllerOptions:
    options = ControllerOptions()
    if getattr(args, "return_to_sequence", None):
        options.return_to_sequence = args.return_to_sequence
    if hasattr(args, "base_depth"):  # `reverse` only
        options.resume_policy = ResumePolicy(
            mode=PolicyMode(args.policy or "linear"), base_depth=args.base_depth
        )
    return options


def _print_run_summary(args, result) -> None:
    print(f"seed: {args.seed}")
    print(f"result: {'completed' if result.completed else 'aborted'}")
    if not result.completed:
        print(f"reason: {result.reason}")
    print(f"instructions: {result.stats.instructions}")
    print(f"errors: {result.stats.errors}")
    print(f"recoveries: {result.stats.recoveries}")
    print(f"simulated time: {result.stats.simulated_time:.6f}")


def cmd_run(args) -> int:
    program, config, code = _inputs(args)
    if code != EXIT_OK:
        return code

    try:
        sink = open(args.trace, "w", encoding="utf-8") if args.trace else None
    except OSError as exc:
        print(f"error: cannot write {args.trace}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        controller = _controller(args, program, config, sink)
        if controller is None:
            return EXIT_INPUT_ERROR
        result = controller.run()
    finally:
        if sink is not None:
            sink.close()

    _print_run_summary(args, result)
    return EXIT_OK if result.completed else EXIT_ABORTED


def cmd_reverse(args) -> int:
    program, config, code = _inputs(args)
    if code != EXIT_OK:
        return code
    controller = _controller(args, program, config)
    if controller is None:
        return EXIT_INPUT_ERROR

    initial_joints = controller.ctx.workcell.state.joints
    initial_bits = controller.ctx.workcell.state.bits()
    result = controller.run()

    try:
        plan = reverse_execute(
            controller.trace, args.depth, controller.ctx, registry=controller.registry
        )
    except (RunAborted, BitOutOfRange) as exc:
        print(f"error: reversal failed: {exc}", file=sys.stderr)
        return EXIT_ABORTED

    state = controller.ctx.workcell.state
    joints_ok = all(
        abs(a - b) <= 1e-9 for a, b in zip(state.joints, initial_joints)
    )
    bits_ok = state.bits() == initial_bits

    print(f"seed: {args.seed}")
    print(f"forward result: {'completed' if result.completed else 'aborted'}")
    print(f"requested depth: {'full' if args.depth is None else args.depth}")
    print(f"steps reversed: {len(plan.steps)}")
    print(f"stop reason: {plan.stop_reason.value}")
    print(f"joints restored: {'true' if joints_ok else 'false'}")
    print(f"io bits restored: {'true' if bits_ok else 'false'}")

    if plan.stop_reason in (StopReason.BARRIER, StopReason.NEVER_REVERSIBLE_HIT):
        return EXIT_REVERSAL_BLOCKED
    return EXIT_OK


def _count(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adsl",
        description="Assembly-DSL toolchain: validate, simulate, and reverse programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate a program")
    p_validate.add_argument("program", help="program file (.adsl)")
    p_validate.set_defaults(fn=cmd_validate)

    p_run = sub.add_parser("run", help="execute a program against a workcell")
    p_run.add_argument("program", help="program file (.adsl)")
    p_run.add_argument("--workcell", required=True, help="workcell config (JSON)")
    p_run.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    p_run.add_argument("--trace", default=None, help="write the event trace here")
    p_run.add_argument(
        "--return-to-sequence",
        choices=("restart", "resume"),
        default=None,
        help="how return_to=sequence resumes (default: resume)",
    )
    p_run.set_defaults(fn=cmd_run)

    p_rev = sub.add_parser("reverse", help="run forward, then reverse the trace")
    p_rev.add_argument("program", help="program file (.adsl)")
    p_rev.add_argument("--workcell", required=True, help="workcell config (JSON)")
    p_rev.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    p_rev.add_argument(
        "--depth", type=_count(0), default=None, help="instructions to undo (default: all)"
    )
    p_rev.add_argument(
        "--policy",
        choices=("linear", "exponential"),
        default=None,
        help="resume policy used for reversal-based recovery during the forward run",
    )
    p_rev.add_argument(
        "--base-depth", type=_count(1), default=1, help="resume policy base depth"
    )
    p_rev.set_defaults(fn=cmd_reverse)

    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
