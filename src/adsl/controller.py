"""Program execution against a workcell.

The controller validates the program on construction (an invalid program
raises `InvalidProgramError`) and interprets it: it runs the entry sequence
instruction by instruction, drives motion through the workcell simulation,
executes guarded moves with their stop conditions, evaluation queries and
failure behaviors, and manages signaled errors. The workcell's six joints are
the TCP pose, so every move steps them toward its goal: one tuple of six
floats, checked once (`_check_move`, which also makes the move's speed a
float) before the first cycle. Each step is a control cycle, which one loop,
`ExecutionContext._move`, runs for moves and guarded attempts alike, on
local variables as its reference `Workcell.step_motion` runs it;
`MAX_CONTROL_CYCLES` caps a context's cycles.
An action callback moves the same way, by `ctx.move_joints_to(joints, speed)`.
A `Controller` runs once: a second `run()` raises RuntimeError.

Error handling follows the declaration of the signaled error. The
`respond_after` field gates when handling starts (immediately, after the
current instruction, or after the innermost sequence finishes), the optional
recovery sequence then runs on top of the run's one frame stack, and
`return_to` picks where forward execution resumes. Errors declared without a
recovery sequence are delegated to the reverse-execution engine, which
undoes recorded instructions from the context's undo log, which holds no
plain `seq` call (only its children), and resumes. An error signaled while
another is being resolved aborts the run, as do an unguarded move into a
solid, a move with a malformed or non-finite target or speed, an I/O write to
a bit outside the cell and a `call` of an unregistered action: each abort is a
`RunAborted`, re-exported from `reverse`. `ctx.stack`, a tuple of
`(sequence, index)` pairs, is the one record of where the run is;
`ctx.frames` has a frame per entry, holding its
entry state and the `respond_after current_sequence` errors waiting on it.
Resuming moves the existing frames, so open calls keep their entry state and
waiting errors; a frame the resume drops takes its waiting errors with it,
and `return_to restart_program` discards them all. The limits are module
constants. `ControllerOptions` is frozen and checks itself when it is built;
`ctx.program` and `ctx.options` are the run's one reference to each, and the
reversal occurrence counts its `ResumePolicy` is applied to belong to the
run.

Every state change is recorded in an `ExecutionTrace`, failed guarded-move
queries as the program text `printer.format_query` writes; runs with the
same program, workcell config, and seed produce byte-identical traces.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Callable, Optional

from . import reverse as reverse_engine
from .model import (
    JOINT_COUNT,
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
    Value,
    Wait,
    validate_program,
)
from .printer import format_instruction, format_query
from .reverse import ResumePolicy, RunAborted
from .trace import EventKind, ExecutionTrace, TraceEvent
from .workcell import (
    Workcell,
    WorkcellConfig,
    DEFAULT_SPEED,
    MAX_RNG_SEED,
)

MAX_CALL_DEPTH = 32  # open sequence calls, recovery sequences included
MAX_CONTROL_CYCLES = 600_000  # control cycles in one context, reversal included
MAX_RESUME_RETRIES = 5  # resolutions of one error at one site before an abort


# ---------------------------------------------------------------------------
# Results


class RunStats(Value):
    instructions: int
    errors: int
    recoveries: int
    simulated_time: float


class RunResult(Value):
    completed: bool
    reason: Optional[str]
    stats: RunStats


class ControllerOptions(Value):
    #: How return_to=sequence resumes: "resume" continues after the failed
    #: instruction, "restart" re-runs the enclosing sequence from the top.
    return_to_sequence: str = "resume"
    resume_policy: ResumePolicy = ResumePolicy()
    record_motion_samples: bool = True

    def __post_init__(self):
        if self.return_to_sequence not in ("resume", "restart"):
            raise ValueError("return_to_sequence must be 'resume' or 'restart', got "
                             f"{self.return_to_sequence!r}")
        if not isinstance(self.resume_policy, ResumePolicy):
            raise TypeError(f"resume_policy must be a ResumePolicy, got {self.resume_policy!r}")
        if not isinstance(self.record_motion_samples, bool):
            raise TypeError("record_motion_samples must be a bool, got "
                            f"{self.record_motion_samples!r}")


# ---------------------------------------------------------------------------
# Action registry for `call` instructions


class ActionEntry(Value):
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
    import logging  # loaded here: only this action logs, and the import costs ~4 ms
    logging.getLogger("adsl").info("log action: %s", ", ".join(items) if items else "(no items)")


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


# ---------------------------------------------------------------------------
# Internal control flow


class _ErrorUnwind(Exception):
    """Carries an error's `(name, site)` out of an instruction for immediate response."""


class InvalidProgramError(ValueError):
    """The program failed validation; `diagnostics` lists every finding."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class CallFrame:
    """An open call's entry state and the `(name, site)` of each `respond_after
    current_sequence` error waiting for its end; its position is in `ctx.stack`."""

    __slots__ = ("entry_joints", "entry_bits", "deferred")

    def __init__(self, entry_joints, entry_bits):
        self.entry_joints = entry_joints
        self.entry_bits = entry_bits
        self.deferred: list[tuple[str, tuple]] = []


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
        self.reversal_occurrences: dict[str, int] = {}  # per error name
        self.saturation_markers: dict[str, tuple] = {}
        self.active_speed: SpeedLevel = DEFAULT_SPEED
        self.running: bool = False  # inside `Controller.run`
        self.in_recovery: bool = False  # resolving an error; another aborts
        self.cycles: int = 0  # control cycles so far, capped at MAX_CONTROL_CYCLES
        #: Where the run is, `(sequence, index)` per open frame, outermost first
        #: (recoveries on top), and a `CallFrame` per entry. Only the frame
        #: methods below write them; `stack` is replaced, never mutated.
        self.stack: tuple[tuple[str, int], ...] = ()
        self.frames: list[CallFrame] = []
        #: `(name, site)` of each `respond_after current_action` error queued.
        self.pending: list[tuple[str, tuple]] = []
        #: The `INSTR_END` events reverse execution may still undo, oldest
        #: first; reversal pops them as it undoes them.
        self.undo_log: list[TraceEvent] = []
        #: Trace indices of the `INSTR_END`s recorded in recovery sequences.
        self.recovery_ends: set[int] = set()

    # -- frame stack ----------------------------------------------------------

    def push(self, seq: str) -> None:
        """Open a frame at the top of `seq`, entered in the current state."""
        state = self.workcell.state
        self.frames.append(CallFrame(state.joints, state.io_bits))
        self.stack += ((seq, 0),)

    def truncate(self, depth: int) -> None:
        """Drop the frames above `depth`, with the errors waiting on them."""
        del self.frames[depth:]
        self.stack = self.stack[:depth]

    def advance(self) -> None:
        """Move the top frame on to its next instruction."""
        seq, index = self.stack[-1]
        self.stack = self.stack[:-1] + ((seq, index + 1),)

    def resume(self, stack: tuple[tuple[str, int], ...]) -> None:
        """Move the frames to `stack`: frames of calls still open stay, the
        first whose index differs moves there, and deeper ones start fresh."""
        keep = 0
        for (seq, index), (new_seq, new_index) in zip(self.stack, stack):
            if seq != new_seq:
                break
            keep += 1
            if index != new_index:
                break
        del self.frames[keep:]
        state = self.workcell.state
        self.frames += [CallFrame(state.joints, state.io_bits) for _ in stack[keep:]]
        self.stack = stack

    # -- snapshots ----------------------------------------------------------

    def emit(
        self, kind: EventKind, data: Optional[dict] = None, pre_joints=None, pre_bits=None
    ) -> TraceEvent:
        """Record an event; its post state is the current one, and its pre
        state too unless `pre_joints`/`pre_bits` are given."""
        state = self.workcell.state
        joints = state.joints
        bits = state.io_bits
        trace = self.trace
        event = TraceEvent(
            trace.count, kind, state.clock, self.stack, self.active_speed,
            joints if pre_joints is None else pre_joints, joints,
            bits if pre_bits is None else pre_bits, bits,
            {} if data is None else data,
        )
        trace.append(event)
        return event

    # -- state-change helpers -------------------------------------------------

    def advance_clock(self, seconds: float) -> None:
        state = self.workcell.state
        if not math.isfinite(state.clock + seconds):  # JSON has no text for inf
            raise RunAborted(f"clock out of range: {state.clock} + {seconds}")
        state.clock += seconds

    def speed_value(self) -> float:
        return self.workcell.config.speed_map[self.active_speed]

    def set_active_speed(self, level: SpeedLevel, why: str) -> None:
        if level is not self.active_speed:
            self.emit(EventKind.SETTING_CHANGE, data={"speed": level.value, "why": why})
            self.active_speed = level

    def move_joints_to(self, joints, speed=None) -> None:
        """Drive the joints to `joints`, six ints or floats, at `speed` m/s, or
        at the active speed when it is None. The one move of an action
        callback, and where its values enter: anything else raises RunAborted,
        as `_move` does."""
        self._move(_coordinates(joints), self.speed_value() if speed is None else speed)

    def _move(self, goal: tuple[float, ...], speed: float, guard=None) -> tuple[float, bool]:
        """Step the joints toward `goal`, six floats: the one loop that steps a
        control cycle, for a move and for a guarded attempt. `_check_move`'s
        rejects raise RunAborted. Each cycle runs, on local variables and in
        its order, the arithmetic of one `Workcell.step_motion` call, the
        reference: both leave the same joints, clock, contact and samples. In a
        free cell no cycle tests an obstacle or writes `contact`. Only a cycle
        at distance 0 snaps untested, so a goal in a solid blocks.

        Without a guard the move ends when the joints equal `goal`, and a
        blocking solid raises RunAborted. With `guard`, `(stop_if, distance)`,
        it is a guarded attempt: each cycle writes the contact that
        `read_force` reads, reads the force and adds its advance to `covered`,
        and it ends when `stop_if` holds, when `covered` reaches `distance`, or
        on a cycle that advances nothing (blocked, or at the goal with
        `covered` a rounding error short). Returns `(covered, guard_stopped)`,
        `(0.0, False)` for a move."""
        workcell = self.workcell
        state = workcell.state
        guarded = guard is not None
        sample = None
        if self.options.record_motion_samples:
            sample = self.trace.attempt_sample if guarded else self.trace.move_sample
        stack, level, bits = self.stack, self.active_speed, state.io_bits  # fixed while moving
        speed = _check_move(state.joints, goal, speed)
        covered, guard_stopped = 0.0, False
        if guarded:
            stop_if, distance = guard
            until = distance - 1e-12
            read_force, rng = workcell.read_force, self.rng
        cycles = self.cycles
        dt = workcell.config.dt
        step = speed * dt  # the product `step_motion` forms each cycle
        first_hit = workcell._first_hit if workcell.config.obstacles else None
        tx, ty, tz, o1x, o1y, o1z = goal
        joints, clock, contact = state.joints, state.clock, state.in_contact
        try:
            # `joints` is compared by value: a stepped tuple can equal `goal`.
            while (covered < until) if guarded else (joints != goal):
                if cycles >= MAX_CONTROL_CYCLES:
                    raise _cycle_cap_exceeded()
                cycles += 1
                pre_j = joints
                px, py, pz, o0x, o0y, o0z = joints
                dx, dy, dz = tx - px, ty - py, tz - pz
                dist = math.sqrt(dx * dx + dy * dy + dz * dz)
                if dist == 0.0:
                    advanced, joints, contact = 0.0, goal, False
                else:
                    advanced = dist if dist < step else step
                    if first_hit is not None:
                        hit = first_hit((px, py, pz), (dx / dist, dy / dist, dz / dist), advanced)
                        contact = hit is not None
                        if contact:  # halts at the surface, never snapping to `goal`
                            advanced = hit if hit > 0.0 else 0.0
                    if advanced >= dist - 1e-15 and not contact:
                        joints = goal
                    else:
                        # Kept as written even when o0 == o1: -0.0 + 0.0 is 0.0.
                        frac = advanced / dist
                        joints = (px + dx / dist * advanced, py + dy / dist * advanced,
                                  pz + dz / dist * advanced, o0x + (o1x - o0x) * frac,
                                  o0y + (o1y - o0y) * frac, o0z + (o1z - o0z) * frac)
                clock += dt
                if guarded:
                    state.in_contact = contact  # what `read_force` reads
                    covered += advanced
                    raw, filtered = read_force(rng)
                    if sample is not None:
                        sample(clock, stack, level, pre_j, joints, bits,
                               advanced, covered, contact, raw, filtered)
                    if stop_if is not None and evaluate_query(stop_if, covered, filtered):
                        guard_stopped = True
                        break
                    if advanced <= 1e-15:
                        break
                else:
                    if sample is not None:
                        sample(clock, stack, level, pre_j, joints, bits, advanced, contact)
                    if contact and advanced <= 1e-15:
                        raise RunAborted(
                            f"collision during move: blocked at {joints[:3]} moving to {goal[:3]}"
                        )
        finally:  # the state the last cycle left
            self.cycles = cycles
            state.joints, state.clock, state.in_contact = joints, clock, contact
        return covered, guard_stopped

    def apply_primitives(self, primitives) -> None:
        """Run an I/O primitive list.

        A level primitive opens a pending write, the next select commits it
        to that bit, and sleeps advance the clock. A select with no pending
        write commits nothing; one of a bit outside the cell raises RunAborted.
        """
        state = self.workcell.state
        pending: Optional[bool] = None
        for prim in primitives:
            if isinstance(prim, SetLow):
                pending = False
            elif isinstance(prim, SetHigh):
                pending = True
            elif isinstance(prim, SelectBit):
                if pending is not None:
                    bit, pre_b = prim.index, state.io_bits
                    if not 0 <= bit < len(pre_b):  # one bit per configured `bit_count`
                        raise RunAborted(
                            f"io bit out of range: bit {bit} outside 0..{len(pre_b) - 1}")
                    state.io_bits = pre_b[:bit] + (pending,) + pre_b[bit + 1:]
                    self.emit(
                        EventKind.IO_WRITE,
                        data={"bit": bit, "level": pending},
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
                raise RunAborted(f"unregistered action '{instr.action}'")
            entry.run(self, instr.items)
        else:
            raise RunAborted(f"cannot execute {type(instr).__name__} as a basic instruction")

    def signal_error(self, name: str) -> None:
        """Record a declared error, then raise it for an immediate response or
        queue it until its `respond_after` point: on the innermost frame for
        `current_sequence`, in `pending` for `current_action`. During
        recovery, or in a reversal outside a run, it raises `RunAborted`."""
        self.emit(EventKind.ERROR_SIGNALED, data={"error": name})
        self.error_counts[name] = self.error_counts.get(name, 0) + 1
        if self.in_recovery:
            raise RunAborted(f"error '{name}' during recovery")
        if not self.running:
            raise RunAborted(f"error '{name}' during reversal")
        spec = self.program.errors.get(name)
        if spec is None:
            raise RunAborted(f"undeclared error '{name}'")
        site = self.stack
        if spec.respond_after is RespondAfter.IMMEDIATELY:
            raise _ErrorUnwind(name, site)
        if spec.respond_after is RespondAfter.CURRENT_SEQUENCE:
            self.frames[-1].deferred.append((name, site))
        else:
            self.pending.append((name, site))


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
    ):
        if seed is not None:
            if type(seed) is not int:
                raise TypeError(f"seed must be None or an int, got {seed!r}")
            if not 0 <= seed <= MAX_RNG_SEED:
                raise ValueError(f"seed must be in 0..{MAX_RNG_SEED}, got {seed}")
        diagnostics = validate_program(program)
        if diagnostics:
            raise InvalidProgramError(diagnostics)
        options = options if options is not None else ControllerOptions()
        self.registry = registry if registry is not None else default_registry()
        workcell = Workcell(config)
        rng = random.Random(config.rng_seed if seed is None else seed)
        self.ctx = ExecutionContext(
            program, workcell, rng, ExecutionTrace(trace_sink), options, self.registry
        )
        self._failure_counts: dict[tuple, int] = {}
        self.stats_instructions = 0
        self.stats_recoveries = 0
        self._ran = False

    # -- public API ---------------------------------------------------------

    def run(self) -> RunResult:
        """Run the program from its entry sequence. A controller runs once: a
        second call raises RuntimeError and leaves the trace and state as is."""
        if self._ran:
            raise RuntimeError("a Controller runs once; build a new one to run again")
        self._ran = True
        ctx = self.ctx
        ctx.push(ctx.program.entry)
        ctx.running = True
        try:
            self._loop(0)
            completed, reason = True, None
        except RunAborted as exc:
            completed, reason = False, str(exc)
        finally:
            ctx.running = False
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

    def _loop(self, base: int) -> None:
        """Run the top frame until the stack is back down to `base` frames."""
        ctx = self.ctx
        frames = ctx.frames
        program = ctx.program
        while len(frames) > base:
            if ctx.pending and not ctx.in_recovery:
                self._resolve_error(*ctx.pending.pop(0))
                continue
            seq, index = ctx.stack[-1]
            sequence = program.sequences[seq]
            if index >= len(sequence.instructions):
                frame = frames[-1]
                # Nothing waits on a frame that ends during recovery: an
                # error signaled then aborts before it is queued.
                if frame.deferred:
                    self._resolve_error(*frame.deferred.pop(0))
                    continue
                ctx.truncate(len(frames) - 1)
                if len(frames) > base:
                    seq, index = ctx.stack[-1]
                    call_instr = program.sequences[seq].instructions[index]
                    annotated = call_instr.annotation is not None
                    if annotated:
                        # Annotated: undone (or not) as a whole; plain: through its children.
                        _drop_children(ctx.undo_log, ctx.stack)
                    text = format_instruction(call_instr)
                    self._end_instruction({"text": text}, frame.entry_joints, frame.entry_bits,
                                          logged=annotated)
                    ctx.advance()
                continue
            instr = sequence.instructions[index]
            if isinstance(instr, SeqCall):
                if len(frames) >= MAX_CALL_DEPTH:
                    raise RunAborted(f"sequence call depth exceeds {MAX_CALL_DEPTH}")
                ctx.emit(EventKind.INSTR_BEGIN, data={"text": format_instruction(instr)})
                ctx.push(instr.name)
                continue
            try:
                self._execute_leaf(instr)
            except _ErrorUnwind as unwind:
                self._resolve_error(*unwind.args)
                continue
            ctx.advance()

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
                success = self._execute_adv_move(ctx.program.adv_moves[instr.name])
            else:
                ctx.run_basic_instruction(instr)
            finished = True
        finally:
            data = {"text": text}
            if not finished:
                data["aborted"] = True
            if success is not None:
                data["outcome"] = "success" if success else "fail"
            self._end_instruction(data, pre_j, pre_b)

    def _end_instruction(self, data: dict, pre_joints, pre_bits, logged=True) -> None:
        """Record an `INSTR_END` and, when `logged`, put it on the undo log."""
        ctx = self.ctx
        event = ctx.emit(EventKind.INSTR_END, data, pre_joints, pre_bits)
        if logged:
            ctx.undo_log.append(event)
            if ctx.in_recovery:
                ctx.recovery_ends.add(event.index)
        self.stats_instructions += 1

    # -- guarded moves ----------------------------------------------------

    def _execute_adv_move(self, spec: AdvMoveSpec) -> bool:
        """Run a guarded move to its final outcome; True on success.

        Each attempt is a guarded `ExecutionContext._move` along the
        configured direction, sampling the force filter every control cycle
        and stopping early on the guard.
        Success is the conjunction of all evaluation queries. Failure runs
        the on_fail behaviors in order; a repeat behavior with budget left
        perturbs the start position and begins a new attempt, skipping the
        rest of the list. The initial and start poses are joint tuples.
        """
        ctx = self.ctx
        workcell = ctx.workcell
        rng = ctx.rng

        if spec.speed is not None:
            ctx.set_active_speed(spec.speed, f"advanced move '{spec.name}'")
        speed = ctx.speed_value()

        initial = workcell.state.joints
        start = initial
        direction = workcell.direction_vector(spec.direction, spec.frame)
        attempts = 0

        while True:
            attempts += 1
            start_cycles = ctx.cycles
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
            workcell.clear_force_filter()

            covered = 0.0
            guard_stopped = False
            if condition_ok:
                distance = spec.distance
                goal = (start[0] + direction[0] * distance, start[1] + direction[1] * distance,
                        start[2] + direction[2] * distance) + start[3:]
                covered, guard_stopped = ctx._move(goal, speed, (spec.stop_if, distance))
                filtered = workcell.filtered_force()
                failed = tuple(
                    format_query(q)
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
            if ctx.cycles == start_cycles:  # an attempt counts as one cycle at least
                if start_cycles >= MAX_CONTROL_CYCLES:
                    raise _cycle_cap_exceeded()
                ctx.cycles += 1

            behaviors = spec.on_success if success else spec.on_fail
            restart = False
            for behavior in behaviors:
                if isinstance(behavior, ReturnToInitialPosition):
                    ctx._move(initial, speed)
                elif isinstance(behavior, RepeatWithPerturbation):
                    if attempts < 1 + behavior.max_retries:
                        offset = _disc_offset(
                            rng, workcell.config.perturbation_radius, direction
                        )
                        start = (initial[0] + offset[0], initial[1] + offset[1],
                                 initial[2] + offset[2]) + initial[3:]
                        ctx._move(start, speed)
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

    # -- error signaling and resolution -----------------------------------

    def _resolve_error(self, name: str, site: tuple[tuple[str, int], ...]) -> None:
        """Recover as declared, `in_recovery`, then resume the frames in place."""
        key = (site, name)
        count = self._failure_counts.get(key, 0) + 1
        self._failure_counts[key] = count
        if count > MAX_RESUME_RETRIES:
            raise RunAborted(f"resume loop guard: error '{name}' recurred {count} times")
        ctx = self.ctx
        spec = ctx.program.errors[name]
        self.stats_recoveries += 1
        base = len(ctx.frames)
        resume_at = site
        ctx.in_recovery = True
        try:
            if spec.recovery_sequence is None:
                resume_at = reverse_engine.recover_by_reversal(name, ctx) or resume_at
            else:
                data = {"error": name, "sequence": spec.recovery_sequence}
                ctx.emit(EventKind.RECOVERY_BEGIN, data=data)
                ctx.push(spec.recovery_sequence)
                self._loop(base)
                ctx.emit(EventKind.RECOVERY_END, data=dict(data))
                if spec.return_to is ReturnTo.RESTART_PROGRAM:
                    # Every waiting error is discarded with its frame.
                    resume_at = ((ctx.program.entry, 0),)
                    ctx.pending.clear()
                    ctx.truncate(0)
                elif spec.return_to is ReturnTo.SEQUENCE:
                    seq, index = resume_at[-1]
                    index = 0 if ctx.options.return_to_sequence == "restart" else index + 1
                    resume_at = resume_at[:-1] + ((seq, index),)
        finally:  # an abort inside the recovery sequence leaves its frames
            ctx.in_recovery = False
            ctx.truncate(base)
        ctx.resume(resume_at)


# ---------------------------------------------------------------------------
# Helpers


def _cycle_cap_exceeded() -> RunAborted:
    return RunAborted(f"control cycles exceed MAX_CONTROL_CYCLES ({MAX_CONTROL_CYCLES})")


def _check_move(start: tuple[float, ...], goal: tuple[float, ...], speed) -> float:
    """Check a move once, before its first cycle, from the joints `start` to
    `goal`, six floats each: every coordinate of `goal - start` must be finite
    and `speed` a positive finite int or float, not a bool. Anything else raises
    RunAborted, as stepping it would write NaN joints. Returns the speed the
    move steps with, as a float: where a move's speed becomes one."""
    px, py, pz, pa, pb, pc = start
    tx, ty, tz, ta, tb, tc = goal
    isfinite = math.isfinite
    if not (
        isfinite(tx - px) and isfinite(ty - py) and isfinite(tz - pz)
        and isfinite(ta - pa) and isfinite(tb - pb) and isfinite(tc - pc)
        and isinstance(speed, (int, float)) and type(speed) is not bool
        and 0.0 < speed <= sys.float_info.max  # an int beyond it has no float
    ):
        raise RunAborted(f"move out of range: from {start} to {goal} at speed {speed}")
    return float(speed)


def _coordinates(values) -> tuple[float, ...]:
    """`JOINT_COUNT` ints or floats as a tuple of floats: where a callback's
    move values enter. Anything else, a bool too, raises RunAborted."""
    try:
        values = tuple(values)
        if len(values) == JOINT_COUNT:
            if {float}.issuperset(map(type, values)):
                return values  # the common case, and the cheap one
            if all([isinstance(v, (int, float)) and type(v) is not bool for v in values]):
                return tuple(map(float, values))
    except (TypeError, OverflowError):  # not iterable, or an int beyond float range
        pass
    raise RunAborted(f"move joints must be {JOINT_COUNT} ints or floats, got {values!r}")


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

