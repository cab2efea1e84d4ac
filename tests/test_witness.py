"""The identity witness as a test: the trace bytes of the shipped examples.

`bench/probes.py` reruns the shipped examples on fixed configs and seeds and
hashes their traces and canonical prints; `bench/witness.json` holds the
digests recorded when the format was fixed. Any change to trace bytes fails
here, not only in the benchmark.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _probes():
    spec = importlib.util.spec_from_file_location(
        "probes", os.path.join(ROOT, "bench", "probes.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_example_traces_match_recorded_witness(tmp_path):
    probes = _probes()
    assert probes.witness(ROOT, str(tmp_path)) == probes.recorded_witness()
