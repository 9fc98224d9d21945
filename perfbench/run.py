"""End-to-end benchmark of the hilbcount CLI.

    python3 perfbench/run.py --workload {quadratic,rational,tables}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Each workload is a fixed list of CLI jobs whose stdout is
pinned byte for byte in perfbench/expected/.  Jobs run one after another,
each in a fresh interpreter, so module-level caches start cold as they do
for a user; the seed only orders the jobs within a pass.

--trace 0 repeats passes over the job list until S seconds have gone and
reports the end-to-end metrics.  --trace 1 runs one plain pass, one pass
with every job under cProfile, and `-X importtime` probes, and reports the
per-layer metrics.  The last line of stdout is one JSON object; the lines
before it give each metric with its sample count.  See perfbench/README.md.
"""

import argparse
import csv
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from layers import MODULES, Resolver, aggregate, merge, parse_importtime

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "hilbcount")
EXPECTED = os.path.join(HERE, "expected")
WORK = os.path.join(ROOT, ".perfbench_work")

# a run stops starting jobs after this and gives each job what is left
HARD_LIMIT_S = 170.0
# spawn-to-ready probes before each plain pass, beside the one every job gives
SETUP_PROBES = 3
IMPORTTIME_PROBES = 5

# Each workload is a list of phases run in order within one pass; the seed
# shuffles the jobs of a phase.  Jobs marked cached get the pass's fresh
# --cache-dir, so the second `tables` phase reads what the first wrote.
WORKLOADS = {
    "quadratic": [
        [("quadratic-q3-M1", "count quadratic --q 3 --M 1", False)],
    ],
    "rational": [
        [
            ("rational-q3-n2-M3", "count rational --q 3 --n 2 --M 3", False),
            ("rational-q9-n2-M1", "count rational --q 9 --n 2 --M 1", False),
        ],
    ],
    "tables": [
        [
            ("hilbm-q3-m45", "peyre hilbm --q 3 --m 45 --deg-cut 24", True),
            ("cm-q3-m28", "peyre cm --q 3 --m 28 --deg-cut 16", True),
            ("cycles-q16-m64", "cycles --q 16 --m-max 64", True),
            ("lemmas-q5", "verify lemmas --q 5", True),
            ("pairs-q16-M40", "count pairs --q 16 --M 1 --M-max 40", True),
            ("hilb2-q3", "peyre hilb2 --q 3", True),
            ("pn-q3-n3", "peyre pn --q 3 --n 3", True),
        ],
    ],
}
WORKLOADS["tables"].append(list(WORKLOADS["tables"][0]))  # warm pass, same jobs

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}

NAMED_CALLS = (
    "fqarith.Poly.__init__",
    "fqarith.Poly.__mul__",
    "fqarith.Poly.__sub__",
    "fqarith.Poly.__divmod__",
    "fqarith.poly_gcd",
    "fqarith.FqField.mul",
    "fqarith.FqField.digits",
    "quadfield._is_square_poly",
    "quadfield._classify_form",
    "quadfield._form_exponent",
    "genfun.QPoly.__mul__",
)


class Job:
    def __init__(self, name, args, cached):
        self.name = name
        self.args = args.split()
        self.cached = cached

    def expected(self):
        with open(os.path.join(EXPECTED, self.name + ".out"), "rb") as fh:
            return fh.read()


@dataclass
class Result:
    job: Job
    ok: bool
    setup_s: float | None
    rss_mb: float | None
    stdout: bytes
    report: dict | None
    detail: str = ""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ACL_CACHE_DIR", None)  # the CLI would otherwise cache every job
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # jobs import cached bytecode, as an installed package does
    # fixed string hashing, so traced call counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self._n = 0

    def _path(self, suffix):
        self._n += 1
        return os.path.join(self.workdir, f"{self._n}{suffix}")

    def run_job(self, job, cache_dir=None, profile=None):
        """Run one job in a fresh interpreter and check its stdout."""
        report_path = self._path(".report.json")
        cmd = [sys.executable, os.path.join(HERE, "job.py"), "--report", report_path]
        if profile:
            cmd += ["--profile", profile]
        cmd += ["--"] + job.args + (["--cache-dir", cache_dir] if job.cached else [])
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=self.workdir, capture_output=True, timeout=max(1.0, self.deadline - t0)
            )
        except subprocess.TimeoutExpired:
            return Result(job, False, None, None, b"", None, "timed out")
        want = job.expected()
        try:
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = None
        if report is None:
            detail = f"exit {proc.returncode}, no report: {proc.stderr.decode(errors='replace')[-400:]}"
            return Result(job, False, None, None, proc.stdout, None, detail)
        if os.path.realpath(report["module"]) != os.path.realpath(os.path.join(PKG, "cli.py")):
            raise SystemExit(f"perfbench: jobs imported {report['module']}, not the package under {SRC}")
        ok = proc.returncode == 0 and proc.stdout == want
        detail = "" if ok else f"exit {proc.returncode}, stdout {'matches' if proc.stdout == want else 'differs'}"
        return Result(job, ok, report["ready"] - t0, report["maxrss_kb"] / 1024, proc.stdout, report, detail)

    def run_pass(self, phases, rng, profile=False):
        """One pass over the workload: every phase in order, the jobs of a
        phase in seeded order, cached jobs sharing a fresh cache dir."""
        cache_dir = self._path(".cache")
        results, profiles = [], []
        t0 = time.monotonic()
        for phase in phases:
            jobs = list(phase)
            rng.shuffle(jobs)
            for job in jobs:
                prof = self._path(".prof") if profile else None
                results.append(self.run_job(job, cache_dir, prof))
                profiles.append(prof)
                if time.monotonic() > self.deadline:
                    return time.monotonic() - t0, results, profiles
        return time.monotonic() - t0, results, profiles

    def setup_probe(self):
        """Spawn-to-ready time of an interpreter that imports hilbcount.cli."""
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", "import time, hilbcount.cli; print(repr(time.monotonic()))"],
            env=self.env, cwd=self.workdir, capture_output=True, check=True, timeout=60,
        )
        return float(out.stdout) - t0

    def importtime_probe(self):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hilbcount.cli"],
            env=self.env, cwd=self.workdir, capture_output=True, text=True, check=True, timeout=60,
        )
        return parse_importtime(out.stderr)


def tail_percentile(samples):
    """The highest whole percentile with at least ten samples above it, or
    None when there are too few samples for one."""
    n = len(samples)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def describe(name, samples, unit):
    line = f"{name}: median {statistics.median(samples):.6g} {unit} over {len(samples)} samples"
    tail = tail_percentile(samples)
    if tail:
        line += f", p{tail[0]} {tail[1]:.6g} {unit}"
    return line


def plain_run(runner, phases, rng, seconds):
    """Passes until `seconds` have gone (at least one), each after a few
    set-up probes, so that set-up is sampled across the whole run."""
    runner.setup_probe()  # compiles the bytecode cache once; not a user's cost
    t0 = time.monotonic()
    walls, rss, setup, results = [], [], [], []
    while not walls or time.monotonic() - t0 < seconds:
        setup += [runner.setup_probe() for _ in range(SETUP_PROBES)]
        wall, res, _ = runner.run_pass(phases, rng)
        results += res
        if time.monotonic() > runner.deadline:
            break
        walls.append(wall)
        rss.append(max(r.rss_mb or 0.0 for r in res))
    setup += [r.setup_s for r in results if r.setup_s is not None]
    failed = sum(not r.ok for r in results)
    samples = {
        "wall_s": walls or [time.monotonic() - t0],
        "setup_s": setup,
        "peak_rss_mb": rss or [0.0],
        "ok_frac": [(len(results) - failed) / len(results)],
    }
    return results, samples


def _ratio(num, den):
    return num / den if den else 0.0


def traced_run(runner, phases, rng):
    """One plain pass, one pass under cProfile; per-layer metrics."""
    imports = [runner.importtime_probe() for _ in range(IMPORTTIME_PROBES)]
    plain_wall, plain_res, _ = runner.run_pass(phases, rng)
    traced_wall, traced_res, profiles = runner.run_pass(phases, rng, profile=True)
    results = plain_res + traced_res
    resolver = Resolver(PKG)
    traced = [(r, aggregate(p, resolver)) for r, p in zip(traced_res, profiles) if r.report is not None]
    agg = merge(part for _r, part in traced)
    fc = agg["func_calls"]

    # poly_gcd calls per point printed by the `count rational` jobs
    gcd_calls = points = 0
    for r, part in traced:
        if r.ok and r.job.args[:2] == ["count", "rational"]:
            gcd_calls += part["func_calls"]["fqarith.poly_gcd"]
            points += sum(int(row["observed"]) for row in csv.DictReader(io.StringIO(r.stdout.decode())))

    cache_stats = {k: 0 for k in ("load_s", "store_s", "hits", "misses", "quarantined")}
    for r, _part in traced:
        for k, v in r.report["cache"].items():
            cache_stats[k] += v

    m = {}
    for mod in MODULES:
        m[f"{mod}.self_s"] = (agg["self_s"][mod], "s")
    for mod in ("fqarith", "quadfield"):
        m[f"{mod}.calls"] = (agg["calls"][mod], "count")
    for func in NAMED_CALLS:
        m[f"{func}.calls"] = (fc[func], "count")  # 0 if the function is gone
    m["ratpoints.gcd_calls_per_point"] = (_ratio(gcd_calls, points), "ratio")
    m["quadfield.exponent_checks_per_form"] = (
        _ratio(fc["quadfield._form_exponent"], fc["quadfield._classify_form"]), "ratio")
    m["ext.fractions.self_s"] = (agg["self_s"]["ext.fractions"], "s")
    m["ext.fractions.calls"] = (agg["calls"]["ext.fractions"], "count")
    m["ext.mpmath.self_s"] = (agg["self_s"]["ext.mpmath"], "s")
    m["builtins.self_s"] = (agg["self_s"]["builtins"], "s")
    m["other.self_s"] = (agg["self_s"]["other"], "s")
    m["cache.load_s"] = (cache_stats["load_s"], "s")
    m["cache.store_s"] = (cache_stats["store_s"], "s")
    for k in ("hits", "misses", "quarantined"):
        m[f"cache.{k}"] = (cache_stats[k], "count")
    m["setup.import_hilbcount_s"] = (statistics.median(i[0] for i in imports), "s")
    m["setup.import_mpmath_s"] = (statistics.median(i[1] for i in imports), "s")
    m["trace.overhead_x"] = (_ratio(traced_wall, plain_wall), "x")
    return results, m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(PKG, "cli.py")):
        print(f"perfbench: no hilbcount source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        runner = Runner(workdir, start + HARD_LIMIT_S)
        rng = random.Random(args.seed)
        phases = [[Job(*spec) for spec in phase] for phase in WORKLOADS[args.workload]]
        if args.trace:
            results, layer = traced_run(runner, phases, rng)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            for k, (v, u) in layer.items():
                print(f"{k}: {v:.6g} {u}")
        else:
            results, samples = plain_run(runner, phases, rng, args.seconds)
            metrics = {}
            for name, vals in samples.items():
                metrics[name] = {"value": statistics.median(vals), "unit": E2E_UNITS[name]}
                print(describe(name, vals, E2E_UNITS[name]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"FAILED {r.job.name}: {r.detail}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
