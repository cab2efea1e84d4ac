"""Command-line surface: validate, run, and reverse assembly programs.

Exit codes are a fixed map: 0 success, 1 validation diagnostics, 2 I/O or
parse errors, 3 aborted run (before 4 when both apply), 4 reversal stopped by
a barrier or a never-reversible entry. An unusable input raises `_InputError`;
`main` alone turns it into one `error:` line on stderr and exit 2. Summaries
go to stdout as `key: value` lines; machine-readable output goes only to the
trace file.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .controller import Controller, ControllerOptions, RunAborted, default_registry
from .model import validate_program
from .parser import ParseError, parse_program
from .reverse import PolicyMode, ResumePolicy, StopReason, reverse_execute
from .trace import NULL_SINK
from .workcell import MAX_RNG_SEED, WorkcellConfigError, load_workcell_config

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT_ERROR = 2
EXIT_ABORTED = 3
EXIT_REVERSAL_BLOCKED = 4
_TRACE_BUFFER = 1 << 16  # bytes: a trace file takes one write per 64 KiB, not per 8 KiB


class _InputError(Exception):
    """An input the command cannot use; `main` prints `error: <message>`."""


def _load_program(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: not UTF-8 text: {exc}")
    try:
        return parse_program(text)
    except ParseError as exc:
        raise _InputError(f"{path}:{exc}")


def _report(diagnostics) -> int:
    for diag in diagnostics:
        print(str(diag))
    return EXIT_INVALID if diagnostics else EXIT_OK


def cmd_validate(args) -> int:
    return _report(validate_program(_load_program(args.program)))


def _inputs(args):
    """Parse the program, load the config, default `--seed` to its `rng_seed`
    and validate the program; returns (program, config, exit code)."""
    program = _load_program(args.program)
    try:
        config = load_workcell_config(args.workcell)
    except OSError as exc:
        raise _InputError(f"cannot read {args.workcell}: {exc}")
    except WorkcellConfigError as exc:
        raise _InputError(f"{args.workcell}: {exc}")
    if args.seed is None:  # the library's rule for `seed=None`
        args.seed = config.rng_seed
    return program, config, _report(validate_program(program))


def _print_log(ctx, items):
    """The `log` action here: the library's logs at INFO, which no handler shows."""
    print("log:", ", ".join(items) if items else "(no items)", file=sys.stderr)


def _controller(args, program, config, sink):
    """The controller for a run, with the CLI's `log` action; `sink` takes its
    trace (`NULL_SINK` where no file is asked for: nothing reads the events)."""
    registry = default_registry()
    registry.register("log", _print_log)
    return Controller(program, config, seed=args.seed, trace_sink=sink,
                      options=_options_from_args(args), registry=registry)


def _options_from_args(args) -> ControllerOptions:
    return ControllerOptions(
        return_to_sequence=args.return_to_sequence,
        resume_policy=ResumePolicy(PolicyMode(args.policy), args.base_depth),
    )


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
        with (open(args.trace, "w", _TRACE_BUFFER, "utf-8") if args.trace
              else nullcontext(NULL_SINK)) as sink:
            result = _controller(args, program, config, sink).run()
    except OSError as exc:  # opening, writing or closing the trace file
        if not args.trace:
            raise
        raise _InputError(f"cannot write {args.trace}: {exc}")

    _print_run_summary(args, result)
    return EXIT_OK if result.completed else EXIT_ABORTED


def cmd_reverse(args) -> int:
    program, config, code = _inputs(args)
    if code != EXIT_OK:
        return code
    controller = _controller(args, program, config, NULL_SINK)
    initial_joints = controller.ctx.workcell.state.joints
    initial_bits = controller.ctx.workcell.state.io_bits
    result = controller.run()

    try:
        plan = reverse_execute(controller.trace, args.depth, controller.ctx)
    except RunAborted as exc:
        print(f"error: reversal failed: {exc}", file=sys.stderr)
        return EXIT_ABORTED

    state = controller.ctx.workcell.state
    joints_ok = state.joints == initial_joints
    bits_ok = state.io_bits == initial_bits

    print(f"seed: {args.seed}")
    print(f"forward result: {'completed' if result.completed else 'aborted'}")
    if not result.completed:
        print(f"reason: {result.reason}")
    print(f"requested depth: {'full' if args.depth is None else args.depth}")
    print(f"steps reversed: {len(plan.steps)}")
    print(f"stop reason: {plan.stop_reason.value}")
    print(f"joints restored: {'true' if joints_ok else 'false'}")
    print(f"io bits restored: {'true' if bits_ok else 'false'}")

    if not result.completed:
        return EXIT_ABORTED
    if plan.stop_reason in (StopReason.BARRIER, StopReason.NEVER_REVERSIBLE_HIT):
        return EXIT_REVERSAL_BLOCKED
    return EXIT_OK


def _count(minimum: int, maximum: int | None = None):
    """An argparse type: an integer from `minimum` up to `maximum`, if given."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return integer


_SEED = _count(0, MAX_RNG_SEED)  # the range a config's rng_seed has


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
    p_run.add_argument("--seed", type=_SEED, help="rng seed (default: the workcell's rng_seed)")
    p_run.add_argument("--trace", default=None, help="write the event trace here")
    p_run.add_argument(
        "--return-to-sequence",
        choices=("restart", "resume"),
        default="resume",
        help="how return_to=sequence resumes (default: resume)",
    )
    p_run.set_defaults(fn=cmd_run, policy="linear", base_depth=1)  # ResumePolicy()

    p_rev = sub.add_parser("reverse", help="run forward, then reverse the trace")
    p_rev.add_argument("program", help="program file (.adsl)")
    p_rev.add_argument("--workcell", required=True, help="workcell config (JSON)")
    p_rev.add_argument("--seed", type=_SEED, help="rng seed (default: the workcell's rng_seed)")
    p_rev.add_argument(
        "--depth", type=_count(0), default=None, help="instructions to undo (default: all)"
    )
    p_rev.add_argument(
        "--policy",
        choices=("linear", "exponential"),
        default="linear",
        help="resume policy used for reversal-based recovery during the forward run",
    )
    p_rev.add_argument(
        "--base-depth", type=_count(1), default=1, help="resume policy base depth"
    )
    p_rev.set_defaults(fn=cmd_reverse, return_to_sequence="resume")  # not a `reverse` flag

    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
