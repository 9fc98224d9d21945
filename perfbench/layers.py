"""Per-layer accounting for traced jobs: cProfile stats are bucketed by the
source file of each function, and functions are named `Class.method` by
file and line, so that e.g. `Poly.__init__` and `FqField.__init__` stay
apart.  Also parses `python -X importtime` output.
"""

import ast
import importlib.util
import os
import pstats
from collections import Counter

# hilbcount modules reported as layers of their own
MODULES = ("fqarith", "ratpoints", "quadfield", "genfun", "peyre", "asympt", "cli", "cache", "records")
# every profiled function lands in exactly one of these buckets
BUCKETS = MODULES + ("ext.fractions", "ext.mpmath", "builtins", "other")


def _external_locations():
    fractions_file = os.path.realpath(importlib.util.find_spec("fractions").origin)
    mpmath_dirs = importlib.util.find_spec("mpmath").submodule_search_locations
    return fractions_file, os.path.realpath(list(mpmath_dirs)[0]) + os.sep


class Resolver:
    """Maps a cProfile key (filename, line, name) to (bucket, qualified name)."""

    def __init__(self, pkg_dir):
        self.pkg_dir = os.path.realpath(pkg_dir)
        self.fractions_file, self.mpmath_dir = _external_locations()
        self._qualnames = {}

    def _names_by_line(self, path):
        names = self._qualnames.get(path)
        if names is None:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            names = {}

            def visit(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        qual = prefix + child.name
                        if not isinstance(child, ast.ClassDef):
                            # co_firstlineno is the first decorator's line
                            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                            names[first] = names[child.lineno] = qual
                        visit(child, qual + ".")
                    else:
                        visit(child, prefix)

            visit(tree, "")
            self._qualnames[path] = names
        return names

    def resolve(self, filename, line, name):
        if filename == "~":
            return "builtins", name
        path = os.path.realpath(filename)
        if os.path.dirname(path) == self.pkg_dir:
            module = os.path.splitext(os.path.basename(path))[0]
            qual = self._names_by_line(path).get(line, f"{name}:{line}")
            return (module if module in MODULES else "other"), f"{module}.{qual}"
        if path == self.fractions_file:
            return "ext.fractions", f"fractions.{name}"
        if path.startswith(self.mpmath_dir):
            return "ext.mpmath", name
        return "other", name


def aggregate(stats_path, resolver):
    """Self seconds and call counts per bucket, and call counts per
    qualified hilbcount function, for one dumped cProfile run.  Checks that
    the bucket self times add up to the profiler's total."""
    stats = pstats.Stats(stats_path)
    self_s = dict.fromkeys(BUCKETS, 0.0)
    calls = Counter()
    func_calls = Counter()
    for (filename, line, name), (_cc, nc, tt, _ct, _callers) in stats.stats.items():
        bucket, qual = resolver.resolve(filename, line, name)
        self_s[bucket] += tt
        calls[bucket] += nc
        func_calls[qual] += nc
    total = sum(self_s.values())
    if abs(total - stats.total_tt) > 1e-6 * max(1.0, stats.total_tt):
        raise AssertionError(f"bucket self times {total} != profiler total {stats.total_tt}")
    return {"self_s": self_s, "calls": calls, "func_calls": func_calls, "total_s": stats.total_tt}


def merge(parts):
    """Sum the aggregates of several jobs."""
    out = {"self_s": dict.fromkeys(BUCKETS, 0.0), "calls": Counter(), "func_calls": Counter(), "total_s": 0.0}
    for part in parts:
        for bucket, value in part["self_s"].items():
            out["self_s"][bucket] += value
        out["calls"].update(part["calls"])
        out["func_calls"].update(part["func_calls"])
        out["total_s"] += part["total_s"]
    return out


def parse_importtime(stderr):
    """Seconds to import the top-level `hilbcount` package tree and the
    `mpmath` package (cumulative, wherever it is first imported) from the
    stderr of `python -X importtime -c "import hilbcount.cli"`."""
    hilbcount_us = mpmath_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # header line
        if name.strip() == "mpmath":
            mpmath_us = int(cumulative)
        if name.startswith(" hilbcount"):  # top level, not nested
            hilbcount_us += int(cumulative)
    return hilbcount_us / 1e6, mpmath_us / 1e6
