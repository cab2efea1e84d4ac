"""Span tracing for the per-layer benchmark run, installed from outside.

`install` rebinds the public functions and methods of the `adsl.*` modules
(and any module namespace holding the same objects) to timing wrappers, and
returns a function that restores the originals. Nothing under `src/` knows
about it. Each wrapper records a span (name, start, end, parent, op id) and
feeds running totals: calls, inclusive time, and self time (the span minus
the time its wrapped child spans cover). Spans are kept in memory, up to a
cap, and written out by the caller at the end; totals are kept for every
call. A wrapper records nothing while no op is open, so the benchmark's own
output checks between ops stay out of the numbers.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

import adsl.cli
import adsl.controller
import adsl.model
import adsl.parser
import adsl.printer
import adsl.reverse
import adsl.trace
import adsl.workcell
from adsl.controller import Controller, ExecutionContext
from adsl.trace import EventKind, ExecutionTrace
from adsl.workcell import Workcell

import workloads

#: Spans kept in memory for the spans file; totals count every call.
KEEP_SPANS = 50_000


class Group:
    """Totals for one kind of traced work (the workload's ops, or the witness)."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.ops = 0


class Tracer:
    def __init__(self):
        self.groups: dict[str, Group] = {}
        self.group: Group | None = None
        self.op = None
        self.spans: list[tuple] = []
        self._next_id = 0
        # One [child seconds, span id] entry per open span.
        self._stack: list[list] = []

    def open_op(self, group: str, op_id) -> None:
        self.group = self.groups.setdefault(group, Group())
        self.group.ops += 1
        self.op = op_id

    def close_op(self) -> None:
        self.op = None

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            group = tracer.group
            if tracer.op is None:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                group.calls[name] += 1
                group.total[name] += duration
                group.self_time[name] += duration - frame[0]
                if len(spans) < KEEP_SPANS:
                    spans.append((name, start, end, parent, tracer.op))
            if hook is not None:
                hook(group.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


class _TimedSink:
    """Trace sink proxy whose writes are spans; the real file stays with its owner."""

    def __init__(self, sink, write):
        self._sink = sink
        self.write = write

    def __getattr__(self, attr):
        return getattr(self._sink, attr)


# ---------------------------------------------------------------------------
# Counters fed from arguments and results at the layer boundaries


def _decls(program) -> int:
    return (
        len(program.items) + len(program.io_ops) + len(program.joint_confs)
        + len(program.sequences) + len(program.errors) + len(program.adv_moves)
    )


def _on_tokenize(counts, args, kwargs, result):
    counts["parser.tokens"] += len(result)


def _on_validate(counts, args, kwargs, result):
    counts["model.decls"] += _decls(args[0])


def _on_pretty_print(counts, args, kwargs, result):
    counts["printer.decls"] += _decls(args[0])


def _on_segment_hit(counts, args, kwargs, result):
    counts["workcell.hits"] += result is not None


def _on_emit(counts, args, kwargs, result):
    kind = result.kind
    counts["emit." + kind.value] += 1
    if kind is EventKind.ATTEMPT_END and result.data.get("outcome") == "success":
        counts["controller.attempt_successes"] += 1


def _on_run(counts, args, kwargs, result):
    counts["controller.errors"] += result.stats.errors
    counts["controller.recoveries"] += result.stats.recoveries


def _on_serialize(counts, args, kwargs, result):
    counts["trace.serialized_bytes"] += len(result) + 1  # plus the newline


def _on_reverse_execute(counts, args, kwargs, result):
    counts["reverse.steps"] += len(result.steps)


def _on_prev_entry(counts, args, kwargs, result):
    cursor = args[1]
    if result is None:
        counts["reverse.scanned"] += cursor + 1
    else:
        counts["reverse.scanned"] += cursor - result.index + 1
        counts["reverse.found"] += 1


#: (span name, owner, attribute, counter hook). Module-level functions are
#: rebound in every module namespace that holds them; methods on the class.
TARGETS = (
    ("parser.tokenize", adsl.parser, "tokenize", _on_tokenize),
    ("parser.parse_program", adsl.parser, "parse_program", None),
    ("model.validate_program", adsl.model, "validate_program", _on_validate),
    ("printer.pretty_print", adsl.printer, "pretty_print", _on_pretty_print),
    ("printer.format_instruction", adsl.printer, "format_instruction", None),
    ("workcell.step_motion", Workcell, "step_motion", None),
    ("workcell.first_hit", Workcell, "_first_hit", None),
    ("workcell.segment_hit", adsl.workcell, "_segment_hit", _on_segment_hit),
    ("workcell.read_force", Workcell, "read_force", None),
    ("controller.init", Controller, "__init__", None),
    ("controller.run", Controller, "run", _on_run),
    ("controller.emit", ExecutionContext, "emit", _on_emit),
    ("trace.serialize_event", adsl.trace, "serialize_event", _on_serialize),
    ("reverse.reverse_execute", adsl.reverse, "reverse_execute", _on_reverse_execute),
    ("reverse.prev_instruction_entry", adsl.reverse, "_prev_instruction_entry", _on_prev_entry),
    ("cli.main", adsl.cli, "main", None),
)


def install(tracer: Tracer):
    """Rebind every target to its wrapper, in the `adsl.*` modules and in the
    benchmark's `workloads` module, which imports some of them by name;
    returns a restore function."""
    undo: list[tuple] = []
    namespaces = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "adsl" or name.startswith("adsl."))
    ]
    namespaces.append(workloads)

    def rebind(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for name, owner, attr, hook in TARGETS:
        original = owner.__dict__[attr]
        wrapper = tracer.wrap(name, original, hook)
        if isinstance(owner, type):
            rebind(owner, attr, wrapper)
            continue
        for module in namespaces:
            for key, value in list(vars(module).items()):
                if value is original:
                    rebind(module, key, wrapper)

    original_init = ExecutionTrace.__dict__["__init__"]

    def init(self, sink=None):
        if sink is not None:
            write = tracer.wrap("trace.sink_write", sink.write, _on_sink_write)
            sink = _TimedSink(sink, write)
        original_init(self, sink)

    rebind(ExecutionTrace, "__init__", init)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def _on_sink_write(counts, args, kwargs, result):
    counts["trace.sink_bytes"] += len(args[0])


# ---------------------------------------------------------------------------
# Per-layer metrics


def _mean(span, scale):
    return lambda g: (g.total[span] * scale, g.calls[span])


def _ratio(num, den):
    return lambda g: (num(g), den(g))


def _calls(span):
    return lambda g: g.calls[span]


def _count(key):
    return lambda g: g.counts[key]


#: name -> (unit, per op?, g -> (numerator, denominator) or numerator).
#: Per-op values come from the workload's ops only. Every other value is a
#: ratio over the workload's calls; when the workload never calls that layer
#: it is taken from the identity-witness runs in the same traced process, so
#: each time is a measured number, and the detail line lists those metrics.
LAYER_METRICS = {
    "workcell.cycles_per_op": ("count", True, _calls("workcell.step_motion")),
    "workcell.step_motion_us": ("us", False, _mean("workcell.step_motion", 1e6)),
    "workcell.first_hit_us": ("us", False, _mean("workcell.first_hit", 1e6)),
    "workcell.segment_hit_calls_per_cycle": (
        "ratio", False, _ratio(_calls("workcell.segment_hit"), _calls("workcell.step_motion"))),
    "workcell.hit_ratio": (
        "ratio", False, _ratio(_count("workcell.hits"), _calls("workcell.segment_hit"))),
    "workcell.read_force_us": ("us", False, _mean("workcell.read_force", 1e6)),
    "controller.emit_us": ("us", False, _mean("controller.emit", 1e6)),
    "controller.events_per_op": ("count", True, _calls("controller.emit")),
    "controller.events_per_cycle": (
        "ratio", False, _ratio(_calls("controller.emit"), _calls("workcell.step_motion"))),
    "controller.init_us": ("us", False, _mean("controller.init", 1e6)),
    "controller.run_self_ms": (
        "ms", False, lambda g: (g.self_time["controller.run"] * 1e3, g.calls["controller.run"])),
    "controller.attempts_per_op": ("count", True, _count("emit.attempt_begin")),
    "controller.errors_per_op": ("count", True, _count("controller.errors")),
    "controller.recoveries_per_op": ("count", True, _count("controller.recoveries")),
    "controller.attempt_success_ratio": (
        "ratio", False, _ratio(_count("controller.attempt_successes"), _count("emit.attempt_end"))),
    "trace.serialize_us_per_event": ("us", False, _mean("trace.serialize_event", 1e6)),
    "trace.bytes_per_event": (
        "B", False, _ratio(_count("trace.serialized_bytes"), _calls("trace.serialize_event"))),
    "trace.sink_write_us": ("us", False, _mean("trace.sink_write", 1e6)),
    "trace.mb_per_op": ("MB", True, lambda g: g.counts["trace.sink_bytes"] / 1e6),
    "reverse.execute_ms_per_op": ("ms", False, _mean("reverse.reverse_execute", 1e3)),
    "reverse.steps_per_op": ("count", True, _count("reverse.steps")),
    "reverse.us_per_step": (
        "us", False, lambda g: (g.total["reverse.reverse_execute"] * 1e6, g.counts["reverse.steps"])),
    "reverse.scan_events_per_step": (
        "ratio", False, _ratio(_count("reverse.scanned"), _count("reverse.found"))),
    "printer.format_instruction_calls": ("count", True, _calls("printer.format_instruction")),
    "printer.format_instruction_us": ("us", False, _mean("printer.format_instruction", 1e6)),
    "printer.print_us_per_decl": (
        "us", False, lambda g: (g.total["printer.pretty_print"] * 1e6, g.counts["printer.decls"])),
    "parser.us_per_token": (
        "us", False, lambda g: (g.total["parser.parse_program"] * 1e6, g.counts["parser.tokens"])),
    "parser.parse_ms": ("ms", False, _mean("parser.parse_program", 1e3)),
    "model.validate_us_per_decl": (
        "us", False, lambda g: (g.total["model.validate_program"] * 1e6, g.counts["model.decls"])),
}


def layer_metrics(tracer: Tracer, detail: dict, slowdown: dict) -> dict:
    """Per-layer metrics; times are divided by each group's host slowdown (speed.py)."""
    groups = {name: tracer.groups.get(name, Group()) for name in ("op", "witness")}
    from_witness = []
    metrics = {}
    for name, (unit, per_op, fn) in LAYER_METRICS.items():
        if per_op:
            metrics[name] = (fn(groups["op"]) / max(groups["op"].ops, 1), unit)
            continue
        source = "op"
        num, den = fn(groups["op"])
        if not den:
            source = "witness"
            num, den = fn(groups["witness"])
            from_witness.append(name)
        value = num / den if den else 0.0
        if unit in ("us", "ms"):
            value /= slowdown[source]
        metrics[name] = (value, unit)
    detail["layer_metrics_from_witness"] = from_witness
    detail["layer_totals_s"] = {name: round(t, 6) for name, t in sorted(groups["op"].total.items())}
    return metrics
