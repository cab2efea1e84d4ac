"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain data (text or
dicts), so the same workload seed always yields byte-identical inputs and
the program under test only ever sees the generated files and objects.
"""

from __future__ import annotations

import collections
import copy
import json

# ---------------------------------------------------------------------------
# peg_trace: workcells between the shipped aligned and blocked scenes

#: The shipped aligned scene has the hole centred on the nominal insertion
#: ray (y = -1.0); blocked.json moves it 40 mm off. Offsets in between give
#: 1 to 4 attempts and, past 20 mm, the error -> recovery path.
PEG_MAX_OFFSET = 0.04


def peg_workcells(rng, base: dict, count: int) -> list[tuple[dict, int]]:
    """`count` (workcell dict, run seed) pairs, hole offsets stratified over
    [0, PEG_MAX_OFFSET] so every seed gets the same mix of easy, retried and
    recovered insertions."""
    out = []
    for k in range(count):
        cell = copy.deepcopy(base)
        offset = PEG_MAX_OFFSET * (k + rng.uniform(0.05, 0.95)) / count
        hole = cell["obstacles"][0]["hole"]
        hole["center"][0] = round(-1.0 + offset, 6)
        out.append((cell, rng.randrange(1 << 31)))
    return out


def stable_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, indent=1).encode("utf-8")


# ---------------------------------------------------------------------------
# reverse_roundtrip: all-reversible programs with nesting and annotations

_BITS = (1, 2, 3, 4, 5, 6)
_HOME = (0.0, 0.0, 0.1, 0.0, 0.0, 0.0)  # home_joints of free_space.json


#: Share of each leaf kind; every program of a given size gets exactly these
#: counts (shuffled), so programs of one size cost about the same.
_LEAF_MIX = (("io", 30), ("wait", 15), ("move", 27), ("call", 5), ("skip", 10), ("undo_with", 13))
#: Distance (m) from home to every other configuration. Moves only run
#: home -> c_k or c_k -> home, so each leg is this long.
_REACH = 0.02


def reversible_program(rng, n_leaf: int) -> tuple[str, int, int]:
    """An all-reversible program whose full reversal restores joints and bits.

    The generator tracks the bit levels and the current joint configuration
    in execution order, so every I/O write toggles a bit (an inverted write is
    then an exact undo), `@skip_on_reverse` only marks instructions with no
    net effect, and `@reverse_with` payloads undo their instruction exactly.
    Returns (text, leaf instructions executed, sequence calls executed).
    """
    lines = ["# generated all-reversible program"]
    for b in _BITS:
        lines.append(f'io_operation "on{b}" {{ set_high; bit {b}; }}')
        lines.append(f'io_operation "off{b}" {{ set_low; bit {b}; sleep 0.002; }}')
    for b, c in zip(_BITS, _BITS[1:]):
        # Raise b and drop c in one operation; used only when b is low and c high.
        lines.append(f'io_operation "swap{b}{c}" {{ set_high; bit {b}; set_low; bit {c}; }}')
    confs = {"home": _HOME}
    for k in range(8):
        d = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = sum(c * c for c in d) ** 0.5
        x, y, z = (_HOME[i] + _REACH * d[i] / norm for i in range(3))
        confs[f"c{k}"] = (x, y, z, rng.uniform(-0.1, 0.1), 0.0, rng.uniform(-0.1, 0.1))
    for name, joints in confs.items():
        values = ", ".join(f"{j:.6f}" for j in joints)
        lines.append(f"joint_configuration {name} = {{ {values} }};")
    others = [name for name in confs if name != "home"]

    kinds = [kind for kind, share in _LEAF_MIX for _ in range(round(n_leaf * share / 100))]
    kinds += ["io"] * (n_leaf - len(kinds))
    rng.shuffle(kinds)
    kinds = kinds[:n_leaf]
    legs = ([1, 1, 1, 2, 3] * n_leaf)[:kinds.count("move")]
    rng.shuffle(legs)
    flips = {"skip": False, "undo_with": False}

    high = {b: False for b in _BITS}
    where = ["home"]
    sequences: list[str] = []
    counts = {"leaf": 0, "calls": 0}

    def stop() -> str:
        where[0] = rng.choice(others) if where[0] == "home" else "home"
        return where[0]

    def leaf() -> str:
        kind = kinds[counts["leaf"]]
        counts["leaf"] += 1
        if kind == "io":
            swaps = [s for s in _BITS[:-1] if not high[s] and high[s + 1]]
            if swaps and rng.random() < 0.3:
                s = rng.choice(swaps)
                high[s], high[s + 1] = True, False
                return f'io "swap{s}{s + 1}";'
            b = rng.choice(_BITS)
            high[b] = not high[b]
            return f'io "{"on" if high[b] else "off"}{b}";'
        if kind == "wait":
            return f"wait {rng.randint(1, 20) / 1000:.3f};"
        if kind == "move":
            return f"move to {', '.join(stop() for _ in range(legs.pop()))};"
        if kind == "call":
            return 'call "noop"();'
        flips[kind] = not flips[kind]  # alternate the two forms of each annotation
        if kind == "skip":
            if flips[kind]:
                return f"@skip_on_reverse wait {rng.randint(1, 9) / 1000:.3f};"
            b = rng.choice(_BITS)
            # Rewriting a bit's current level changes nothing.
            return f'@skip_on_reverse io "{"on" if high[b] else "off"}{b}";'
        if flips[kind]:
            b = rng.choice(_BITS)
            high[b] = not high[b]
            undo = "off" if high[b] else "on"
            return f'@reverse_with(io "{undo}{b}") io "{"on" if high[b] else "off"}{b}";'
        prev = where[0]
        return f"@reverse_with(move to {prev}) move to {stop()};"

    def body(budget: int, depth: int) -> list[str]:
        out = []
        while budget > 0:
            if depth < 3 and budget > 6 and rng.random() < 0.08:
                size = rng.randint(3, min(15, budget - 1))
                name = f"s{len(sequences)}"
                sequences.append(name)
                inner = body(size, depth + 1)
                lines.append(f'sequence "{name}" {{\n  ' + "\n  ".join(inner) + "\n}")
                counts["calls"] += 1
                out.append(f'seq "{name}";')
                budget -= size
            else:
                out.append(leaf())
                budget -= 1
        return out

    main = body(n_leaf, 0)
    lines.append('sequence "main" {\n  ' + "\n  ".join(main) + "\n}")
    lines.append('entry "main";')
    return "\n".join(lines) + "\n", counts["leaf"], counts["calls"]


# ---------------------------------------------------------------------------
# corpus_roundtrip: programs covering every construct of docs/grammar.ebnf

_DIRECTIONS = ("forward", "backwards", "left", "right", "up", "down", "x", "y", "z")
_FRAMES = ("tcp", "toolmount", "base")
_SPEEDS = ("very_fast", "fast", "normal", "slow", "very_slow")
_RESPONDS = ("current_action", "current_sequence", "immediately")
_RETURNS = ("action", "sequence", "restart_program")
KINDS = ("item", "io_operation", "joint_configuration", "error", "advanced_move", "sequence")


class _Spread:
    """Evenly spread values in [0, 1) (a golden-ratio sequence), one sequence
    per structural choice of a corpus program: how many keyframes,
    behaviours, optional clauses. Every program of a given size then has the
    same shape and about the same parsing cost; the seed varies names,
    numbers and which declarations are referenced."""

    def __init__(self):
        self.n = 0

    def __call__(self) -> float:
        self.n += 1
        return (self.n * 0.6180339887498949) % 1.0

    def count(self, lo: int, hi: int) -> int:
        return lo + int(self() * (hi - lo + 1))


def _num(rng, lo, hi, places=3) -> str:
    value = round(rng.uniform(lo, hi), places)
    if rng.random() < 0.2:
        return str(int(value))
    return f"{value:.{rng.randint(1, places)}f}"


def _pos(rng, lo, hi) -> str:
    return str(rng.randint(1, 9)) if rng.random() < 0.2 else f"{rng.uniform(lo, hi):.3f}"


def _name(rng, kind: str, k: int) -> str:
    # Some names carry the two escapes STRING allows.
    tag = rng.choice(("", "", "", 'q\\"', "b\\\\", " sp"))
    return f"{kind}{k}{tag}"


def corpus_program(rng, n_decls: int) -> tuple[str, dict[str, int]]:
    """A valid program of about `n_decls` declarations using every construct.

    Returns (text, declarations per kind). Sequences only call earlier
    sequences (so the call graph is acyclic) and recovery sequences are
    drawn from sequences that reach no guarded move.
    """
    per = max(1, n_decls // len(KINDS))
    names: dict[str, list[str]] = {k: [] for k in KINDS}
    plain: list[str] = []  # sequences that reach no advanced move
    shape: dict[str, _Spread] = collections.defaultdict(_Spread)
    out = ["# generated corpus program"]

    decls = []
    for k in range(per):
        name = _name(rng, "item", k)
        names["item"].append(name)
        block = [f'item "{name}" {{']
        for f in range(shape["keyframes"].count(1, 3)):
            block.append(f"  keyframe kf{f} {{")
            for _ in range(shape["coords"].count(1, 3)):
                coords = ", ".join(_num(rng, -2.0, 2.0) for _ in range(3))
                block.append(f"    ({coords});")
            block.append("  }")
        block.append("}")
        decls.append("\n".join(block))

    for k in range(per):
        name = _name(rng, "io", k)
        names["io_operation"].append(name)
        prims = []
        for _ in range(shape["prims"].count(0, 3)):
            prims.append(rng.choice(("set_low;", "set_high;")))
            prims.append(f"bit {rng.randint(0, 7)};")
            if shape["prim_sleep"]() < 0.5:
                prims.append(f"sleep {_pos(rng, 0.001, 1.0)};")
        if not prims or shape["op_sleep"]() < 0.2:
            prims.append(f"sleep {_pos(rng, 0.001, 1.0)};")
        decls.append(f'io_operation "{name}" {{ ' + " ".join(prims) + " }")

    for k in range(per):
        name = f"jc_{k}"
        names["joint_configuration"].append(name)
        values = ", ".join(_num(rng, -3.2, 3.2, 4) for _ in range(6))
        decls.append(f"joint_configuration {name} = {{ {values} }};")

    for k in range(per):
        names["error"].append(_name(rng, "err", k))
        names["advanced_move"].append(_name(rng, "adv", k))

    def query() -> str:
        if shape["query"]() < 0.5:
            return f"forces_exceed({_pos(rng, 0.5, 20.0)})"
        cmp = rng.choice(("more_than", "less_than"))
        return f"distance_covered({cmp}, {_num(rng, 0.0, 0.5)})"

    def behaviors(allow_empty: bool) -> list[str]:
        picks = []
        if shape["on_return"]() < 0.6:
            picks.append("return_to_initial_position;")
        if shape["on_repeat"]() < 0.6:
            picks.append(f"repeat_with_perturbation({rng.randint(1, 5)});")
        if shape["on_throw"]() < 0.5:
            picks.append(f'throw_error("{rng.choice(names["error"])}");')
        if not picks and not allow_empty:
            picks.append("return_to_initial_position;")
        rng.shuffle(picks)
        return picks

    def core(kind: str, seq_pool: list[str]) -> str:
        if kind == "move":
            count = min(len(names["joint_configuration"]), shape["waypoints"].count(1, 3))
            return "move to " + ", ".join(rng.sample(names["joint_configuration"], count))
        if kind == "io":
            return f'io "{rng.choice(names["io_operation"])}"'
        if kind == "wait":
            return f"wait {_pos(rng, 0.001, 2.0)}"
        if kind == "call":
            count = min(len(names["item"]), shape["items"].count(0, 2))
            items = " ".join(f'"{i}"' for i in rng.sample(names["item"], count))
            return f'call "{rng.choice(("noop", "log", "grip"))}"({items})'
        if kind == "adv_move":
            return f'adv_move "{rng.choice(names["advanced_move"])}"'
        return f'seq "{rng.choice(seq_pool)}"'

    def annotation() -> str:
        roll = shape["annotation"]()
        if roll < 0.7:
            return ""
        if roll < 0.77:
            return "@nonreversible "
        if roll < 0.84:
            return "@skip_on_reverse "
        if roll < 0.91:
            return "@barrier "
        payload = ("move", "io", "wait", "call")[shape["payload"].count(0, 3)]
        return f"@reverse_with({core(payload, [])}) "

    advs = []
    for name in names["advanced_move"]:
        lines = [f'advanced_move "{name}" {{']
        if shape["condition"]() < 0.3:
            lines.append(f"  condition {query()};")
        lines.append("  specification {")
        lines.append(
            f"    distance {_pos(rng, 0.0, 0.5)} direction {rng.choice(_DIRECTIONS)}"
            f" frame {rng.choice(_FRAMES)};"
        )
        if shape["stop_if"]() < 0.7:
            lines.append(f"    stop_if {query()};")
        if shape["speed"]() < 0.7:
            lines.append(f"    speed {rng.choice(_SPEEDS)};")
        lines.append("  }")
        lines.append("  evaluation { " + " ".join(f"{query()};" for _ in range(shape["evals"].count(1, 3))) + " }")
        if shape["on_success"]() < 0.5:
            lines.append("  on_success { " + " ".join(behaviors(True)) + " }")
        lines.append("  on_fail { " + " ".join(behaviors(False)) + " }")
        lines.append("}")
        advs.append("\n".join(lines))

    seqs = []
    for k in range(per):
        name = _name(rng, "seq", k)
        is_plain = shape["plain"]() < 0.4 or not plain
        kinds = ["move", "io", "wait", "call"] + ([] if is_plain else ["adv_move"])
        pool = plain if is_plain else names["sequence"]
        if pool:
            kinds.append("seq")
        body = []
        for _ in range(shape["body"].count(1, 6)):
            kind = kinds[shape["kind"].count(0, len(kinds) - 1)]
            body.append(f"  {annotation()}{core(kind, pool)};")
        seqs.append(f'sequence "{name}" {{\n' + "\n".join(body) + "\n}")
        names["sequence"].append(name)
        if is_plain:
            plain.append(name)

    errs = []
    for name in names["error"]:
        fields = []
        if shape["recovery"]() < 0.6:
            fields.append(f'recovery_sequence "{rng.choice(plain)}";')
        if shape["respond"]() < 0.5:
            fields.append(f"respond_after {rng.choice(_RESPONDS)};")
        if shape["return_to"]() < 0.5:
            fields.append(f"return_to {rng.choice(_RETURNS)};")
        rng.shuffle(fields)
        errs.append(f'error "{name}" {{ ' + " ".join(fields) + " }")

    # Non-sequence declarations interleave freely; sequences keep their
    # order because the last one is the entry point when none is declared.
    decls.extend(advs)
    decls.extend(errs)
    rng.shuffle(decls)
    out.extend(decls)
    out.extend(seqs)
    if shape["entry"]() < 0.7:
        out.append(f'entry "{rng.choice(names["sequence"])}";')
    counts = {k: len(v) for k, v in names.items()}
    return "\n".join(out) + "\n", counts


def log_sizes(count: int, lo: int, hi: int) -> list[int]:
    """`count` sizes spaced evenly in log scale from `lo` to `hi`.

    The sizes are fixed so that every seed gets the same spread of op costs;
    the seed varies the programs' content.
    """
    return [round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count)]
