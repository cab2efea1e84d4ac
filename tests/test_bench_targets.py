"""The benchmark's span tracer against the names it wraps.

`bench/tracing.py` rebinds the `adsl` functions and methods listed in its
`TARGETS` to timing wrappers. A rename of one of them would turn the traced
benchmark run into a `KeyError`; these tests catch that in the test suite.
"""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, BENCH)  # tracing.py imports the benchmark's workloads
    try:
        spec = importlib.util.spec_from_file_location(
            "tracing", os.path.join(BENCH, "tracing.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(BENCH)
    return module


def _namespaces(tracing):
    """Every namespace `install` may rebind, with a copy of its contents."""
    owners = [m for name, m in sorted(sys.modules.items())
              if m is not None and (name == "adsl" or name.startswith("adsl."))]
    owners.append(tracing.workloads)
    owners += [owner for _, owner, _, _ in tracing.TARGETS if isinstance(owner, type)]
    owners.append(tracing.ExecutionTrace)
    return [(owner, dict(vars(owner))) for owner in dict.fromkeys(owners)]


def test_every_target_is_defined_where_it_is_wrapped(tracing):
    missing = [name for name, owner, attr, _ in tracing.TARGETS if attr not in vars(owner)]
    assert missing == []


def test_install_then_restore_leaves_every_target_as_it_was(tracing):
    before = _namespaces(tracing)
    restore = tracing.install(tracing.Tracer())
    try:
        for name, owner, attr, _ in tracing.TARGETS:
            assert vars(owner)[attr].__wrapped__ is dict(before)[owner][attr], name
    finally:
        restore()
    for owner, contents in before:
        after = vars(owner)
        assert after.keys() == contents.keys(), owner
        changed = [key for key, value in contents.items() if after[key] is not value]
        assert changed == [], owner
