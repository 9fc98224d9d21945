"""The stdout of every benchmark job, run in-process, is byte for byte the
output pinned in perfbench/expected/.  The job list is read from
perfbench/run.py, which this module imports and does not change."""

import io
import os
import sys

import pytest

from hilbcount import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

sys.path.insert(0, PERFBENCH)
_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave no bytecode under perfbench/
try:
    import run
finally:
    sys.dont_write_bytecode = _dont_write

# name -> CLI arguments; the warm `tables` phase repeats the cold one
JOBS = {name: args for phases in run.WORKLOADS.values() for phase in phases for name, args, _cached in phase}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_benchmark_output_is_pinned(name):
    buf = io.StringIO()
    assert cli.dispatch(JOBS[name].split(), out=buf) == 0
    with open(os.path.join(run.EXPECTED, name + ".out"), "rb") as fh:
        assert buf.getvalue().encode() == fh.read()
