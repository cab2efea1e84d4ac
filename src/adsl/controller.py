"""Program execution against a workcell.

The controller validates the program on construction (an invalid program
raises `InvalidProgramError`) and interprets it: it runs the entry sequence
instruction by instruction, drives motion through the workcell simulation,
executes guarded moves with their stop conditions, evaluation queries and
failure behaviors, and manages signaled errors.

Error handling follows the declaration of the signaled error. The
`respond_after` field gates when handling starts (immediately, after the
current instruction, or after the innermost sequence finishes), the optional
recovery sequence then runs with nested errors treated as fatal, and
`return_to` picks where forward execution resumes. Errors declared without a
recovery sequence are delegated to the reverse-execution engine, which
undoes recorded instructions from the context's undo log and resumes.

Every state change is recorded in an `ExecutionTrace`; runs with the same
program, workcell config, and seed produce byte-identical traces.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import reverse as reverse_engine
from .model import (
    AdvMoveRef,
    AdvMoveSpec,
    Call,
    Comparison,
    ForcesExceed,
    Instruction,
    Io,
    MoveJoint,
    Program,
    Query,
    RepeatWithPerturbation,
    RespondAfter,
    ReturnTo,
    ReturnToInitialPosition,
    SelectBit,
    SeqCall,
    SetHigh,
    SetLow,
    Sleep,
    SpeedLevel,
    ThrowError,
    Wait,
    validate_program,
)
from .printer import format_instruction
from .reverse import RecoveryImpossible, ResumePolicy
from .trace import EventKind, ExecutionTrace, TraceEvent
from .workcell import (
    BitOutOfRange,
    Pose,
    Workcell,
    WorkcellConfig,
    DEFAULT_SPEED,
)

logger = logging.getLogger("adsl")

#: Looked up once: reading an enum member off its class costs ~0.1 us a cycle.
_MOTION_SAMPLE = EventKind.MOTION_SAMPLE


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class RunStats:
    instructions: int
    errors: int
    recoveries: int
    simulated_time: float


@dataclass(frozen=True)
class RunResult:
    completed: bool
    reason: Optional[str]
    stats: RunStats


@dataclass
class ControllerOptions:
    max_call_depth: int = 32
    max_resume_retries: int = 5
    #: How return_to=sequence resumes: "resume" continues after the failed
    #: instruction, "restart" re-runs the enclosing sequence from the top.
    return_to_sequence: str = "resume"
    resume_policy: ResumePolicy = field(default_factory=ResumePolicy)
    max_reversal_occurrences: int = 5
    record_motion_samples: bool = True


# ---------------------------------------------------------------------------
# Action registry for `call` instructions


@dataclass(frozen=True)
class ActionEntry:
    run: Callable
    reverse: Optional[Callable] = None


class ActionRegistry:
    """Name-to-callback table backing `call` instructions.

    Callbacks receive (ctx, items). A registered reverse callback makes the
    call undoable during reverse execution.
    """

    def __init__(self):
        self._table: dict[str, ActionEntry] = {}

    def register(self, name: str, fn: Callable, reverse: Optional[Callable] = None):
        self._table[name] = ActionEntry(fn, reverse)

    def lookup(self, name: str) -> Optional[ActionEntry]:
        return self._table.get(name)

    def has_reverse(self, name: str) -> bool:
        entry = self._table.get(name)
        return entry is not None and entry.reverse is not None


def _noop_action(ctx, items):
    pass


def _log_action(ctx, items):
    logger.info("log action: %s", ", ".join(items) if items else "(no items)")


def default_registry() -> ActionRegistry:
    reg = ActionRegistry()
    reg.register("noop", _noop_action, reverse=_noop_action)
    reg.register("log", _log_action)
    return reg


# ---------------------------------------------------------------------------
# Query evaluation


def evaluate_query(query: Query, covered: float, filtered: float) -> bool:
    """Decide a query against an attempt's covered distance and filtered force.

    All comparisons are strict.
    """
    if isinstance(query, ForcesExceed):
        return filtered > query.threshold
    if query.cmp is Comparison.MORE_THAN:
        return covered > query.value
    return covered < query.value


def _describe_query(query: Query) -> str:
    if isinstance(query, ForcesExceed):
        return f"forces_exceed({query.threshold})"
    return f"distance_covered({query.cmp.value}, {query.value})"


# ---------------------------------------------------------------------------
# Internal control flow


class _AbortRun(Exception):
    """Unrecoverable condition; unwinds to run() and yields Aborted."""


class UnregisteredAction(_AbortRun):
    """A `call` named an action the registry does not hold."""


class _ErrorUnwind(Exception):
    """Carries an error record out of an instruction for immediate response."""

    def __init__(self, record):
        super().__init__(record.name)
        self.record = record


class InvalidProgramError(ValueError):
    """The program failed validation; `diagnostics` lists every finding."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class MotionBlocked(RuntimeError):
    """An unguarded move ran into a solid and cannot advance."""


@dataclass
class _PendingError:
    name: str
    site: tuple[tuple[str, int], ...]
    respond: RespondAfter
    frames: tuple  # the main frames at the signal; the error is bound to the last


class CallFrame:
    __slots__ = ("seq", "index", "entry_joints", "entry_bits")

    def __init__(self, seq: str, index: int = 0, entry_joints=(), entry_bits=()):
        self.seq = seq
        self.index = index
        self.entry_joints = entry_joints
        self.entry_bits = entry_bits

    def __repr__(self):
        return f"CallFrame({self.seq!r}, {self.index})"


# ---------------------------------------------------------------------------
# Execution context


class ExecutionContext:
    """Everything live during a run: workcell, rng, trace, and error state.

    The reverse engine drives the same context through the motion and I/O
    helpers below, so forward and backward execution share one code path for
    state changes. The context holds no reference to its controller, so a
    finished run's trace is freed by reference counting alone.
    """

    def __init__(self, program, workcell, rng, trace, options, registry):
        self.program: Program = program
        self.workcell: Workcell = workcell
        self.rng: random.Random = rng
        self.trace: ExecutionTrace = trace
        self.options: ControllerOptions = options
        self.registry: ActionRegistry = registry
        self.error_counts: dict[str, int] = {}
        self.saturation_markers: dict[str, tuple] = {}
        self.active_speed: SpeedLevel = DEFAULT_SPEED
        self.in_recovery: bool = False
        self.main_frames: list[CallFrame] = []
        self.frame_chain: list[list[CallFrame]] = [self.main_frames]
        self.pending: list[_PendingError] = []
        #: The `INSTR_END` events reverse execution may still undo, oldest
        #: first; reversal pops them as it undoes them.
        self.undo_log: list[TraceEvent] = []
        self._stack: Optional[tuple[tuple[str, int], ...]] = None

    # -- snapshots ----------------------------------------------------------

    def call_stack(self) -> tuple[tuple[str, int], ...]:
        """(sequence, index) of every frame, outermost first; cached, so every
        frame push or pop, index change or `frame_chain` change calls
        `stack_changed`."""
        if self._stack is None:
            self._stack = tuple(
                (f.seq, f.index) for frames in self.frame_chain for f in frames
            )
        return self._stack

    def stack_changed(self) -> None:
        self._stack = None

    def emit(
        self,
        kind: EventKind,
        data: Optional[dict] = None,
        pre_joints=None,
        post_joints=None,
        pre_bits=None,
        post_bits=None,
    ) -> TraceEvent:
        state = self.workcell.state
        joints = state.joints
        bits = state.io_bits
        trace = self.trace
        event = TraceEvent(
            len(trace.events), kind, state.clock, self.call_stack(), self.active_speed,
            joints if pre_joints is None else pre_joints,
            joints if post_joints is None else post_joints,
            bits if pre_bits is None else pre_bits,
            bits if post_bits is None else post_bits,
            {} if data is None else data,
        )
        trace.append(event)
        return event

    # -- state-change helpers -------------------------------------------------

    def advance_clock(self, seconds: float) -> None:
        self.workcell.state.clock += seconds

    def speed_value(self, level: Optional[SpeedLevel] = None) -> float:
        return self.workcell.speed_value(level or self.active_speed)

    def set_active_speed(self, level: SpeedLevel, why: str) -> None:
        if level is not self.active_speed:
            self.emit(EventKind.SETTING_CHANGE, data={"speed": level.value, "why": why})
            self.active_speed = level

    def move_to_pose(self, target: Pose, speed: Optional[float] = None) -> None:
        """Drive the TCP to `target`; a blocking solid raises MotionBlocked."""
        workcell = self.workcell
        if speed is None:
            speed = self.speed_value()
        record = self.options.record_motion_samples
        state = workcell.state
        tcp_pose = workcell.tcp_pose
        step_motion = workcell.step_motion
        emit = self.emit
        position, orientation = target.position, target.orientation
        while True:
            pose = tcp_pose()
            if pose.position == position and pose.orientation == orientation:
                return
            pre_j = state.joints
            pre_b = state.io_bits
            contact, advanced = step_motion(target, speed)
            if record:
                data = {"advanced": advanced, "contact": contact}
                emit(_MOTION_SAMPLE, data, pre_j, None, pre_b)
            if contact and advanced <= 1e-15:
                raise MotionBlocked(
                    f"blocked at {workcell.tcp_pose().position} moving to {target.position}"
                )

    def move_joints_to(self, joints, speed_level: Optional[SpeedLevel] = None) -> None:
        target = self.workcell.model.fk(tuple(joints))
        self.move_to_pose(target, self.speed_value(speed_level or self.active_speed))

    def apply_primitives(self, primitives) -> None:
        """Run an I/O primitive list.

        A level primitive opens a pending write, the next select commits it
        to that bit, and sleeps advance the clock. A select with no pending
        write commits nothing.
        """
        workcell = self.workcell
        pending: Optional[bool] = None
        for prim in primitives:
            if isinstance(prim, SetLow):
                pending = False
            elif isinstance(prim, SetHigh):
                pending = True
            elif isinstance(prim, SelectBit):
                if pending is not None:
                    pre_b = workcell.state.bits()
                    workcell.set_io(prim.index, pending)
                    self.emit(
                        EventKind.IO_WRITE,
                        data={"bit": prim.index, "level": pending},
                        pre_bits=pre_b,
                    )
                    pending = None
            elif isinstance(prim, Sleep):
                self.advance_clock(prim.seconds)

    def run_basic_instruction(self, instr: Instruction) -> None:
        """Execute a primitive instruction: io, wait, move, or call.

        The one leaf dispatcher: forward runs and reverse_with payloads both
        execute through it. Structured instructions are not accepted here.
        """
        if isinstance(instr, Io):
            self.apply_primitives(self.program.io_ops[instr.op].primitives)
        elif isinstance(instr, Wait):
            self.advance_clock(instr.seconds)
        elif isinstance(instr, MoveJoint):
            for wp in instr.waypoints:
                self.move_joints_to(self.program.joint_confs[wp].joints)
        elif isinstance(instr, Call):
            entry = self.registry.lookup(instr.action)
            if entry is None:
                raise UnregisteredAction(f"unregistered action '{instr.action}'")
            entry.run(self, instr.items)
        else:
            raise _AbortRun(f"cannot execute {type(instr).__name__} as a basic instruction")

    def signal_error(self, name: str) -> None:
        """Record a declared error, then raise it for an immediate response or
        queue it until its `respond_after` point."""
        self.emit(EventKind.ERROR_SIGNALED, data={"error": name})
        self.error_counts[name] = self.error_counts.get(name, 0) + 1
        if self.in_recovery:
            raise _AbortRun(f"error '{name}' during recovery")
        spec = self.program.errors.get(name)
        if spec is None:
            raise _AbortRun(f"undeclared error '{name}'")
        record = _PendingError(
            name=name,
            site=self.call_stack(),
            respond=spec.respond_after,
            frames=tuple(self.main_frames),
        )
        if spec.respond_after is RespondAfter.IMMEDIATELY:
            raise _ErrorUnwind(record)
        self.pending.append(record)


# ---------------------------------------------------------------------------
# Controller


class Controller:
    """Runs one program against one workcell, recording a full trace."""

    def __init__(
        self,
        program: Program,
        config: WorkcellConfig,
        *,
        seed: Optional[int] = None,
        trace_sink=None,
        options: Optional[ControllerOptions] = None,
        registry: Optional[ActionRegistry] = None,
        model=None,
    ):
        diagnostics = validate_program(program, config.dof)
        if diagnostics:
            raise InvalidProgramError(diagnostics)
        self.program = program
        self.options = options if options is not None else ControllerOptions()
        self.registry = registry if registry is not None else default_registry()
        workcell = Workcell(config, model=model)
        rng = random.Random(config.rng_seed if seed is None else seed)
        self.ctx = ExecutionContext(
            program, workcell, rng, ExecutionTrace(trace_sink), self.options, self.registry
        )
        self._failure_counts: dict[tuple, int] = {}
        self.stats_instructions = 0
        self.stats_recoveries = 0

    # -- public API ---------------------------------------------------------

    def run(self) -> RunResult:
        ctx = self.ctx
        ctx.main_frames.append(self._frame(self.program.entry))
        ctx.stack_changed()
        try:
            self._loop(ctx.main_frames, handle_errors=True)
            completed, reason = True, None
        except _AbortRun as exc:
            completed, reason = False, str(exc)
        except MotionBlocked as exc:
            completed, reason = False, f"collision during move: {exc}"
        except BitOutOfRange as exc:
            completed, reason = False, f"io bit out of range: {exc}"
        stats = RunStats(
            instructions=self.stats_instructions,
            errors=sum(ctx.error_counts.values()),
            recoveries=self.stats_recoveries,
            simulated_time=ctx.workcell.state.clock,
        )
        return RunResult(completed, reason, stats)

    @property
    def trace(self) -> ExecutionTrace:
        return self.ctx.trace

    # -- frame machine --------------------------------------------------------

    def _frame(self, seq_name: str, index: int = 0) -> CallFrame:
        state = self.ctx.workcell.state
        return CallFrame(seq_name, index, state.joints, state.bits())

    def _loop(self, frames: list[CallFrame], handle_errors: bool) -> None:
        ctx = self.ctx
        program = self.program
        while frames:
            if handle_errors:
                record = self._take_pending(RespondAfter.CURRENT_ACTION, None)
                if record is not None:
                    self._resolve_error(record, frames)
                    continue
            frame = frames[-1]
            sequence = program.sequences[frame.seq]
            if frame.index >= len(sequence.instructions):
                if handle_errors:
                    record = self._take_pending(RespondAfter.CURRENT_SEQUENCE, frame)
                    if record is not None:
                        self._resolve_error(record, frames)
                        continue
                frames.pop()
                ctx.stack_changed()
                if frames:
                    parent = frames[-1]
                    call_instr = program.sequences[parent.seq].instructions[parent.index]
                    if call_instr.annotation is not None:
                        # An annotated call is undone (or not) as a whole.
                        _drop_children(ctx.undo_log, ctx.call_stack())
                    ctx.undo_log.append(ctx.emit(
                        EventKind.INSTR_END,
                        data={"text": format_instruction(call_instr)},
                        pre_joints=frame.entry_joints,
                        pre_bits=frame.entry_bits,
                    ))
                    self.stats_instructions += 1
                    parent.index += 1
                    ctx.stack_changed()
                continue
            instr = sequence.instructions[frame.index]
            if isinstance(instr, SeqCall):
                if len(ctx.call_stack()) + 1 > self.options.max_call_depth:
                    raise _AbortRun(
                        f"sequence call depth exceeds {self.options.max_call_depth}"
                    )
                ctx.emit(EventKind.INSTR_BEGIN, data={"text": format_instruction(instr)})
                frames.append(self._frame(instr.name))
                ctx.stack_changed()
                continue
            try:
                self._execute_leaf(instr)
            except _ErrorUnwind as unwind:
                if not handle_errors:
                    raise _AbortRun("error during recovery") from None
                self._resolve_error(unwind.record, frames)
                continue
            frame.index += 1
            ctx.stack_changed()

    def _take_pending(self, respond: RespondAfter, frame) -> Optional[_PendingError]:
        pending = self.ctx.pending
        for i, record in enumerate(pending):
            if record.respond is not respond:
                continue
            if respond is RespondAfter.CURRENT_SEQUENCE and frame not in record.frames[-1:]:
                continue
            return pending.pop(i)
        return None

    # -- instruction execution ------------------------------------------------

    def _execute_leaf(self, instr: Instruction) -> None:
        ctx = self.ctx
        state = ctx.workcell.state
        pre_j = state.joints
        pre_b = state.io_bits
        text = format_instruction(instr)
        ctx.emit(EventKind.INSTR_BEGIN, data={"text": text})
        success = None
        finished = False
        try:
            if isinstance(instr, AdvMoveRef):
                success = self._execute_adv_move(self.program.adv_moves[instr.name])
            else:
                ctx.run_basic_instruction(instr)
            finished = True
        finally:
            data = {"text": text}
            if not finished:
                data["aborted"] = True
            if success is not None:
                data["outcome"] = "success" if success else "fail"
            ctx.undo_log.append(ctx.emit(
                EventKind.INSTR_END, data=data, pre_joints=pre_j, pre_bits=pre_b
            ))
            self.stats_instructions += 1

    # -- guarded moves ----------------------------------------------------

    def _execute_adv_move(self, spec: AdvMoveSpec) -> bool:
        """Run a guarded move to its final outcome; True on success.

        Each attempt moves along the configured direction, sampling the
        force filter every control cycle and stopping early on the guard.
        Success is the conjunction of all evaluation queries. Failure runs
        the on_fail behaviors in order; a repeat behavior with budget left
        perturbs the start pose and begins a new attempt, skipping the rest
        of the list.
        """
        ctx = self.ctx
        workcell = ctx.workcell
        rng = ctx.rng

        if spec.speed is not None:
            ctx.set_active_speed(spec.speed, f"advanced move '{spec.name}'")
        speed = ctx.speed_value()

        initial_pose = workcell.tcp_pose()
        start_pose = initial_pose
        direction = workcell.direction_vector(spec.direction, spec.frame)
        attempts = 0

        while True:
            attempts += 1
            ctx.emit(
                EventKind.ATTEMPT_BEGIN,
                data={"move": spec.name, "attempt": attempts},
            )

            condition_ok = True
            if spec.condition is not None:
                condition_ok = evaluate_query(
                    spec.condition, 0.0, workcell.filtered_force()
                )

            # Each attempt evaluates its own sensor stream.
            workcell.state.force_history.clear()

            covered = 0.0
            guard_stopped = False
            if condition_ok:
                covered, guard_stopped = self._attempt_motion(spec, start_pose, direction, speed)
                filtered = workcell.filtered_force()
                failed = tuple(
                    _describe_query(q)
                    for q in spec.eval_queries
                    if not evaluate_query(q, covered, filtered)
                )
            else:
                failed = ("condition",)

            success = not failed
            ctx.emit(
                EventKind.ATTEMPT_END,
                data={
                    "move": spec.name,
                    "attempt": attempts,
                    "covered": covered,
                    "guard_stopped": guard_stopped,
                    "outcome": "success" if success else "fail",
                    "failed": list(failed),
                },
            )

            behaviors = spec.on_success if success else spec.on_fail
            restart = False
            for behavior in behaviors:
                if isinstance(behavior, ReturnToInitialPosition):
                    ctx.move_to_pose(initial_pose, speed)
                elif isinstance(behavior, RepeatWithPerturbation):
                    if attempts < 1 + behavior.max_retries:
                        offset = _disc_offset(
                            rng, workcell.config.perturbation_radius, direction
                        )
                        start_pose = Pose(
                            (
                                initial_pose.position[0] + offset[0],
                                initial_pose.position[1] + offset[1],
                                initial_pose.position[2] + offset[2],
                            ),
                            initial_pose.orientation,
                        )
                        ctx.move_to_pose(start_pose, speed)
                        restart = True
                        break
                    # Retry budget exhausted: fall through to the next behavior.
                else:
                    assert isinstance(behavior, ThrowError)
                    ctx.signal_error(behavior.error)
                    break
            if restart:
                continue
            return success

    def _attempt_motion(self, spec, start_pose, direction, speed):
        """Move up to spec.distance along `direction`.

        Returns (covered meters, whether the guard stopped it). Motion also
        ends when the full distance is covered or when a solid blocks any
        further advance without the guard tripping.
        """
        ctx = self.ctx
        workcell = ctx.workcell
        record = self.options.record_motion_samples
        target = Pose(
            (
                start_pose.position[0] + direction[0] * spec.distance,
                start_pose.position[1] + direction[1] * spec.distance,
                start_pose.position[2] + direction[2] * spec.distance,
            ),
            start_pose.orientation,
        )
        covered = 0.0
        state = workcell.state
        step_motion = workcell.step_motion
        read_force = workcell.read_force
        rng = ctx.rng
        emit = ctx.emit
        stop_if = spec.stop_if
        until = spec.distance - 1e-12
        while covered < until:
            pre_j = state.joints
            pre_b = state.io_bits
            contact, advanced = step_motion(target, speed)
            covered += advanced
            reading = read_force(rng)
            if record:
                data = {
                    "advanced": advanced,
                    "covered": covered,
                    "contact": contact,
                    "raw": reading.raw,
                    "filtered": reading.filtered,
                }
                emit(_MOTION_SAMPLE, data, pre_j, None, pre_b)
            if stop_if is not None and evaluate_query(stop_if, covered, reading.filtered):
                return covered, True
            if advanced <= 1e-15:
                # Blocked by a solid, or already at the target with the
                # covered sum a rounding error short of the full distance.
                break
        return covered, False

    # -- error signaling and resolution -----------------------------------

    def _rebuild(self, snapshot, record: _PendingError) -> list[CallFrame]:
        """Frames for `snapshot`; calls open since `record` keep their entry state."""
        frames = [self._frame(seq, index) for seq, index in snapshot]
        for frame, (seq, index), old in zip(frames, record.site, record.frames):
            if frame.seq == seq:
                frame.entry_joints, frame.entry_bits = old.entry_joints, old.entry_bits
            if (frame.seq, frame.index) != (seq, index):
                break
        return frames

    def _resolve_error(self, record: _PendingError, frames: list[CallFrame]) -> None:
        key = (record.site, record.name)
        count = self._failure_counts.get(key, 0) + 1
        self._failure_counts[key] = count
        if count > self.options.max_resume_retries:
            raise _AbortRun(
                f"resume loop guard: error '{record.name}' recurred {count} times"
            )
        spec = self.program.errors[record.name]
        self.stats_recoveries += 1
        ctx = self.ctx
        if spec.recovery_sequence is not None:
            ctx.emit(
                EventKind.RECOVERY_BEGIN,
                data={"error": record.name, "sequence": spec.recovery_sequence},
            )
            self._run_recovery(spec.recovery_sequence)
            ctx.emit(
                EventKind.RECOVERY_END,
                data={"error": record.name, "sequence": spec.recovery_sequence},
            )
            if spec.return_to is ReturnTo.RESTART_PROGRAM:
                frames[:] = [self._frame(self.program.entry)]
                ctx.pending.clear()
            else:
                frames[:] = self._rebuild(record.site, record)
                if spec.return_to is ReturnTo.SEQUENCE:
                    if self.options.return_to_sequence == "restart":
                        frames[-1].index = 0
                    else:
                        frames[-1].index += 1
        else:
            try:
                snapshot = reverse_engine.recover_by_reversal(
                    record.name, ctx, self.options.resume_policy, registry=self.registry
                )
            except RecoveryImpossible as exc:
                raise _AbortRun(str(exc)) from None
            frames[:] = self._rebuild(snapshot if snapshot is not None else record.site, record)
        ctx.stack_changed()

    def _run_recovery(self, seq_name: str) -> None:
        ctx = self.ctx
        ctx.frame_chain.append([self._frame(seq_name)])
        ctx.stack_changed()
        ctx.in_recovery = True
        try:
            self._loop(ctx.frame_chain[-1], handle_errors=False)
        finally:
            ctx.in_recovery = False
            ctx.frame_chain.pop()
            ctx.stack_changed()


# ---------------------------------------------------------------------------
# Helpers


def _drop_children(undo_log: list[TraceEvent], call_site: tuple) -> None:
    """Pop the entries recorded inside the call at `call_site`: those on top of
    the log whose stack extends the call's own."""
    depth = len(call_site)
    while undo_log:
        stack = undo_log[-1].stack
        if len(stack) <= depth or stack[:depth] != call_site:
            return
        undo_log.pop()


def _disc_offset(rng: random.Random, radius: float, direction):
    """Uniform sample from a disc of `radius` perpendicular to `direction`."""
    u1 = rng.random()
    u2 = rng.random()
    r = radius * math.sqrt(u1)
    theta = 2.0 * math.pi * u2
    ux, uy, uz = _perp_basis(direction)
    vx, vy, vz = _cross(direction, (ux, uy, uz))
    c = r * math.cos(theta)
    s = r * math.sin(theta)
    return (c * ux + s * vx, c * uy + s * vy, c * uz + s * vz)


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _perp_basis(direction):
    ref = (0.0, 0.0, 1.0) if abs(direction[2]) < 0.9 else (1.0, 0.0, 0.0)
    u = _cross(direction, ref)
    norm = math.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2)
    return (u[0] / norm, u[1] / norm, u[2] / norm)


def run_program(
    program: Program,
    config: WorkcellConfig,
    *,
    seed: Optional[int] = None,
    trace_sink=None,
    options: Optional[ControllerOptions] = None,
    registry: Optional[ActionRegistry] = None,
    model=None,
) -> RunResult:
    """Execute the program's entry sequence; see Controller for the knobs."""
    controller = Controller(
        program,
        config,
        seed=seed,
        trace_sink=trace_sink,
        options=options,
        registry=registry,
        model=model,
    )
    return controller.run()
