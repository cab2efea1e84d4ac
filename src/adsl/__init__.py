"""Toolchain for a robot assembly DSL.

Parse textual assembly programs, validate them, run them against a
deterministic kinematic workcell simulation with user-specified error
handling and guarded moves, and reverse-execute recorded traces.
"""

from .controller import (
    ActionRegistry,
    Controller,
    ControllerOptions,
    InvalidProgramError,
    RunAborted,
    RunResult,
    default_registry,
    evaluate_query,
)
from .model import Program, validate_program
from .parser import ParseError, parse_program
from .printer import pretty_print
from .reverse import (
    PolicyMode,
    ResumePolicy,
    ReversibilityClass,
    StopReason,
    classify,
    recover_by_reversal,
    reverse_execute,
)
from .workcell import (
    Pose,
    Workcell,
    WorkcellConfig,
    load_workcell_config,
    workcell_config_from_dict,
)

__all__ = [
    "ActionRegistry",
    "Controller",
    "ControllerOptions",
    "InvalidProgramError",
    "ParseError",
    "PolicyMode",
    "Pose",
    "Program",
    "ResumePolicy",
    "ReversibilityClass",
    "RunAborted",
    "RunResult",
    "StopReason",
    "Workcell",
    "WorkcellConfig",
    "classify",
    "default_registry",
    "evaluate_query",
    "load_workcell_config",
    "parse_program",
    "pretty_print",
    "recover_by_reversal",
    "reverse_execute",
    "validate_program",
    "workcell_config_from_dict",
]

__version__ = "0.1.0"
