"""Shared test utilities: program builders and trace measurements."""

from adsl.model import validate_program
from adsl.parser import parse_program
from adsl.trace import EventKind
from adsl.workcell import workcell_config_from_dict


def build(text):
    program = parse_program(text)
    diags = validate_program(program)
    assert diags == [], diags
    return program


def call_chain(depth):
    """A valid program whose sequences call each other `depth` deep."""
    text = "".join(f'sequence "s{k}" {{ seq "s{k + 1}"; }}\n' for k in range(depth))
    return text + f'sequence "s{depth}" {{ wait 0.1; }}\nentry "s0";\n'


def quiet_config(**overrides):
    raw = {"noise_sigma": 0.0, "home_joints": [0.0, 0.0, 0.1, 0.0, 0.0, 0.0]}
    raw.update(overrides)
    return workcell_config_from_dict(raw)


def max_overshoot_past_first_contact(trace):
    """Largest per-attempt advance recorded after that attempt's first contact."""
    worst = None
    past = 0.0
    seen_contact = False
    in_attempt = False
    for event in trace.events:
        if event.kind is EventKind.ATTEMPT_BEGIN:
            in_attempt = True
            seen_contact = False
            past = 0.0
        elif event.kind is EventKind.ATTEMPT_END:
            if in_attempt and seen_contact:
                worst = past if worst is None else max(worst, past)
            in_attempt = False
        elif (
            event.kind is EventKind.MOTION_SAMPLE
            and in_attempt
            and "covered" in event.data
        ):
            if seen_contact:
                past += event.data["advanced"]
            elif event.data["contact"]:
                seen_contact = True
    return worst


def random_reversible_program(rng):
    """Programs of I/O ops, waits, and small moves; first write per bit is high.

    Returns (text, instruction_count). Starting from all-low bits, keeping
    each bit's first write high makes syntactic I/O inversion an exact undo.
    """
    lines = []
    bits = [1, 2, 3]
    for b in bits:
        lines.append(f'io_operation "on{b}" {{ set_high; bit {b}; }}')
        lines.append(f'io_operation "off{b}" {{ set_low; bit {b}; }}')
    confs = []
    for i in range(3):
        x = rng.uniform(-0.02, 0.02)
        y = rng.uniform(-0.02, 0.02)
        z = 0.1 + rng.uniform(-0.02, 0.02)
        confs.append(f"c{i}")
        lines.append(
            f"joint_configuration c{i} = {{ {x:.6f}, {y:.6f}, {z:.6f}, 0.0, 0.0, 0.0 }};"
        )
    body = []
    touched = set()
    for _ in range(rng.randint(3, 8)):
        kind = rng.randint(0, 2)
        if kind == 0:
            b = rng.choice(bits)
            if b not in touched:
                body.append(f'io "on{b}";')
                touched.add(b)
            else:
                body.append(f'io "{rng.choice(["on", "off"])}{b}";')
        elif kind == 1:
            body.append(f"wait {rng.uniform(0.001, 0.01):.4f};")
        else:
            body.append(f'move to {rng.choice(confs)};')
    lines.append('sequence "main" { ' + " ".join(body) + " }")
    lines.append('entry "main";')
    return "\n".join(lines), len(body)
