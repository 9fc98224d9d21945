"""Checks of the benchmark itself, kept out of the package's test suite:

    python3 -m pytest perfbench
"""

import io
import json
import os
import random
import shutil
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, run.SRC)
from hilbcount import cli  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)

TINY = ("tiny-rational-q2", "count rational --q 2 --n 1 --M 1 --M-max 2", False)


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """A one-job workload whose pinned output lives in a scratch directory."""
    expected = tmp_path / "expected"
    shutil.copytree(run.EXPECTED, expected)
    buf = io.StringIO()
    assert cli.dispatch(TINY[1].split(), out=buf) == 0
    (expected / f"{TINY[0]}.out").write_bytes(buf.getvalue().encode())
    monkeypatch.setattr(run, "EXPECTED", str(expected))
    monkeypatch.setitem(run.WORKLOADS, "tiny", [[TINY]])
    return expected


def _runner(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    return run.Runner(str(work), time.monotonic() + 120)


def test_traced_tiny_job_aggregates_by_module(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "NAMED_CALLS", run.NAMED_CALLS + ("quadfield._renamed_away",))
    runner = _runner(tmp_path)
    job = run.Job(*TINY)
    prof = str(tmp_path / "tiny.prof")
    res = runner.run_job(job, profile=prof)
    assert res.ok, res.detail
    agg = layers.aggregate(prof, layers.Resolver(run.PKG))
    assert sum(agg["self_s"].values()) == pytest.approx(agg["total_s"])
    fc = agg["func_calls"]
    # methods of different classes with one name stay apart
    assert fc["fqarith.Poly.__init__"] > 0
    assert fc["fqarith.FqField.__init__"] > 0
    assert fc["fqarith.Poly.__init__"] != fc["fqarith.FqField.__init__"]
    assert agg["calls"]["ratpoints"] > 0 and agg["calls"]["quadfield"] == 0

    results, metrics = run.traced_run(runner, [[job]], random.Random(0))
    assert all(r.ok for r in results)
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: u for k, (_v, u) in metrics.items() if k != "quadfield._renamed_away.calls"} == declared
    assert metrics["quadfield._renamed_away.calls"] == (0, "count")
    assert metrics["quadfield._classify_form.calls"][0] == 0
    assert metrics["fqarith.Poly.__init__.calls"][0] == fc["fqarith.Poly.__init__"]
    assert metrics["ratpoints.gcd_calls_per_point"][0] > 0
    assert metrics["setup.import_hilbcount_s"][0] > metrics["setup.import_mpmath_s"][0] > 0


def test_altered_pinned_output_counts_as_failed(tiny, capsys):
    path = tiny / f"{TINY[0]}.out"
    path.write_bytes(path.read_bytes().replace(b"true", b"false", 1))
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_pinned_output_passes(tiny, capsys):
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_source(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "PKG", str(tmp_path / "missing"))
    assert run.main(["--workload", "quadratic", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       300 |        300 |       mpmath.libmp",
        "import time:       100 |      40000 |     mpmath",
        "import time:       900 |     150000 |   hilbcount",
        "import time:        20 |     150020 | hilbcount.cli",
    ])
    assert layers.parse_importtime(stderr) == (0.15002, 0.04)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    pct, value = run.tail_percentile([float(i) for i in range(40)])
    assert pct == 75 and 29 <= value <= 30
