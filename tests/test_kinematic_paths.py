"""The default model's control cycle against the generic one.

A `Workcell` whose model is exactly `TranslationEulerModel` steps the joints
as a tuple (they are the pose's six coordinates) and calls neither `fk` nor
`ik` in a control cycle; any other model, a subclass of it included, gets
one `fk` and one `ik` call per cycle. `GenericPathModel` changes nothing but
its type, so both cycles must write the same trace bytes: for the shipped
examples on every shipped config, run forward and then fully reversed, and
for generated programs with obstacle contact and guarded-move retries.
"""

import importlib.resources
import random

import pytest

from adsl.controller import Controller, RunAborted
from adsl.parser import parse_program
from adsl.reverse import reverse_execute
from adsl.trace import EventKind
from adsl.workcell import TranslationEulerModel, load_workcell_config

from _helpers import build, of_kind, quiet_config


class GenericPathModel(TranslationEulerModel):
    """The default model under another type: its workcell takes the generic cycle."""


def run_and_reverse(program, config, seed, model):
    """The trace of a run and, when it completes, its full reversal, which
    may itself abort (moving back into the wall, say)."""
    controller = Controller(program, config, seed=seed, model=model)
    if controller.run().completed:
        try:
            reverse_execute(controller.trace, None, controller.ctx, registry=controller.registry)
        except RunAborted:
            pass
    return controller.trace


EXAMPLES = importlib.resources.files("adsl") / "examples"
PROGRAMS = sorted(p.name for p in EXAMPLES.iterdir() if p.name.endswith(".adsl"))
CONFIGS = sorted(p.name for p in EXAMPLES.iterdir() if p.name.endswith(".json"))


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_shipped_examples_trace_alike_on_both_paths(program, config):
    program = parse_program((EXAMPLES / program).read_text(encoding="utf-8"))
    config = load_workcell_config(EXAMPLES / config)
    default = run_and_reverse(program, config, 3, None).serialize()
    assert default == run_and_reverse(program, config, 3, GenericPathModel()).serialize()


#: A wall at 0.15 <= x <= 0.25 with a square hole along x at (y, z) = (0, 0.1).
WALL = {"box": {"min": [0.15, -0.5, -0.5], "max": [0.25, 0.5, 0.5]},
        "hole": {"axis": "x", "center": [0.0, 0.1], "half_extents": [0.008, 0.008]}}


def generated_program(rng):
    """Plain and guarded moves in front of `WALL`: starts scattered around the
    hole, some turned, guarded moves forward in the base or tool frame that
    stop on contact force, retry with perturbation and raise an error with a
    recovery sequence."""
    lines = ['error "missed" { recovery_sequence "back"; respond_after current_action;'
             ' return_to sequence; }']
    for k in range(3):
        x, y, z = rng.uniform(0.0, 0.12), rng.gauss(0.0, 0.01), rng.gauss(0.1, 0.01)
        turn = [round(rng.uniform(-0.2, 0.2), 4) if rng.random() < 0.4 else 0.0 for _ in range(3)]
        coords = [round(x, 4), round(y, 4), round(z, 4)] + turn
        lines.append(f"joint_configuration c{k} = {{ {', '.join(map(str, coords))} }};")
    lines.append('sequence "back" { move to c0; }')
    for k in range(2):
        frame = rng.choice(["base", "tcp"])
        stop = "stop_if forces_exceed(5); " if rng.random() < 0.7 else ""
        lines.append(
            f'advanced_move "m{k}" {{ specification {{ distance {rng.choice([0.2, 0.3])}'
            f' direction forward frame {frame}; {stop}speed {rng.choice(["fast", "normal"])}; }}'
            f' evaluation {{ distance_covered(more_than, 0.12); }}'
            f' on_fail {{ return_to_initial_position; repeat_with_perturbation({rng.randint(1, 4)});'
            ' throw_error("missed"); } }'
        )
    body = [rng.choice(["move to c0;", "move to c1;", "move to c2;", 'adv_move "m0";',
                        'adv_move "m1";']) for _ in range(rng.randint(3, 7))]
    lines.append(f'sequence "main" {{ move to c0; {" ".join(body)} }}')
    lines.append('entry "main";')
    return build("\n".join(lines))


def test_generated_programs_trace_alike_on_both_paths():
    contacts = retries = 0
    for seed in range(40):
        rng = random.Random(seed)
        program = generated_program(rng)
        config = quiet_config(obstacles=[WALL], noise_sigma=rng.choice([0.0, 0.5]))
        default = run_and_reverse(program, config, seed, None)
        generic = run_and_reverse(program, config, seed, GenericPathModel())
        assert default.serialize() == generic.serialize(), seed
        samples = of_kind(default, EventKind.MOTION_SAMPLE)
        contacts += any(e.data["contact"] for e in samples)
        retries += any(e.data["attempt"] > 1 for e in of_kind(default, EventKind.ATTEMPT_BEGIN))
    # The cases reach what they are for: contact with the wall, and retries.
    assert contacts >= 10 and retries >= 10, (contacts, retries)


def test_default_model_cycle_calls_neither_fk_nor_ik(monkeypatch):
    calls = []
    for name in ("fk", "ik"):
        original = getattr(TranslationEulerModel, name)
        monkeypatch.setattr(TranslationEulerModel, name,
                            lambda self, arg, name=name, original=original:
                            calls.append(name) or original(self, arg))
    # 0.8 m at the normal speed, 0.1 m/s, and dt 0.008 s: 1,000 cycles.
    text = ('joint_configuration far = { 0.8, 0.0, 0.1, 0.0, 0.0, 0.0 };\n'
            'sequence "s" { move to far; }')
    controller = Controller(build(text), quiet_config(), seed=0)
    assert controller.run().completed
    assert controller.ctx.cycles >= 1000
    # Per move: `fk` of the joint target, of the start and of `ik(target)`.
    assert sorted(calls) == ["fk", "fk", "fk", "ik"]
