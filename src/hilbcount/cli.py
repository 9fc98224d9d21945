"""Command-line surface: argument parsing, result caching, and CSV/JSON
table emission.  Every setting is a flag; only the cache directory can also
come from the ACL_CACHE_DIR environment variable.

Each runner imports the compute modules of its own command when it runs, so
a command loads only what it computes with and a cache hit loads none of
them.  A table is rendered once, as CSV text: CSV output writes it as is, a
cache entry holds it, and JSON output splits it on newlines and commas, so
a CSV run and a JSON run share one entry.  The cache module loads only with
a cache dir and json only for JSON output, and no run loads hashlib: the
cache hashes with the builtin SHA-256.  A well-formed call (a command path,
then that command's flags spelled in full, each with a value) is read from
the flag and command tables and loads no argparse; anything else goes to
argparse, which alone prints help, usage and errors.

Exit codes: 0 ok, 1 internal error (one stderr line, no traceback), 2 usage
error, 3 guard violation (size error).
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import SizeError

CACHE_ENV = "ACL_CACHE_DIR"
# Max --digits: the working precision of every real cell, whose cost grows
# faster than linearly with it.
DIGITS_GUARD = 1000

# Each flag's add_argument keywords, by dest.  The flag is "--" and the dest
# with "-" for "_".  Every flag takes a value, typed by its `type` (str if
# none).
_FLAGS = {
    "q": dict(type=int, help="field size (prime power)"),
    "digits": dict(type=int, default=12, help="printed float digits"),
    "cache_dir": {},
    "format": dict(choices=("csv", "json"), default="csv"),
    "M": dict(type=int, help="height exponent (first)"),
    "M_max": dict(type=int),
    "n": dict(type=int, help="projective dimension"),
    "m_max": dict(type=int, default=8),
    "m": dict(type=int, default=2),
    "mu": {},
    "deg_cut": dict(type=int, default=8),
}
_COMMON = ("q", "digits", "cache_dir", "format")


class UsageError(Exception):
    pass


def _check_output_args(args):
    """Reject digits below 1; refuse digits past DIGITS_GUARD as a size
    error."""
    if args.digits < 1:
        raise UsageError(f"digits must be >= 1, not {args.digits}")
    if args.digits > DIGITS_GUARD:
        raise SizeError(f"digits = {args.digits} exceeds guard digits <= {DIGITS_GUARD}")


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def _m_range(args):
    _require(args, "M")
    m_max = args.M_max if args.M_max is not None else args.M
    if m_max < args.M:
        raise UsageError("--M-max must be >= --M")
    return range(args.M, m_max + 1)


def _dps(args) -> int:
    """Working decimal digits for a --digits table: ten guard digits, and
    never fewer than 50."""
    return max(args.digits + 10, 50)


def _run_count_rational(args):
    from . import ratpoints

    _require(args, "n")
    ms = _m_range(args)
    cols = ["q", "n", "M", "observed", "predicted", "match"]
    rows = []
    for M, observed in zip(ms, ratpoints.count_exact_height(args.n, args.q, ms.start, ms.stop - 1)):
        predicted = ratpoints.point_count_exact_height(args.n, args.q, M)
        rows.append([args.q, args.n, M, observed, predicted, observed == predicted])
    return cols, rows


def _run_count_pairs(args):
    from . import ratpoints

    ms = _m_range(args)
    cols = ["q", "M", "observed", "closed_form", "match"]
    rows = []
    for M, pc in zip(ms, ratpoints.count_reducible_pairs(args.q, ms.start, ms.stop - 1)):
        rows.append([args.q, M, pc.observed, pc.closed_form, pc.match])
    return cols, rows


def _run_count_quadratic(args):
    from . import quadfield

    ms = _m_range(args)
    cols = ["q", "M", "count", "stable", "main_term", "ratio"]
    # stable is constant true: the bounds are proven; pinned outputs keep it
    rows = [
        [qc.q, qc.M, qc.count, True, qc.main_term, qc.ratio]
        for qc in quadfield.enumerate_degree2(args.q, ms.start, ms.stop - 1)
    ]
    return cols, rows


def _run_cycles(args):
    from . import genfun

    cols = ["m", "sym", "hilb", "primes", "chen7", "chen8", "chen8_valid", "ratio_error"]
    rows = []
    for r in genfun.cycle_table(args.q, args.m_max):
        rows.append([r.m, r.sym, r.hilb, r.primes, r.chen7, r.chen8, r.chen8_valid, r.ratio_error])
    return cols, rows


def _run_peyre(args):
    from . import peyre

    dps = _dps(args)
    if args.subcommand == "pn":
        res = peyre.peyre_constant_pn(args.n, args.q, dps=dps)
    elif args.subcommand == "hilb2":
        res = peyre.peyre_constant_hilb2(args.q, dps=dps)
    elif args.subcommand == "hilbm":
        res = peyre.peyre_constant_hilbm(args.m, args.q, mu=args.mu, deg_cut=args.deg_cut, dps=dps)
    else:
        res = peyre.cm_constant(args.m, args.q, mu=args.mu, deg_cut=args.deg_cut, dps=dps)
    cols = ["value", "residual_bound", "exact_prefactor"]
    return cols, [[res.value, res.residual_bound, res.exact_prefactor]]


def _run_verify_lemmas(args):
    from fractions import Fraction

    from . import asympt

    dps = _dps(args)
    cols = ["lemma", "params", "M", "ratio_or_dev", "pass"]
    rows = []
    for M in (50, 100, 200, 400):
        dev = asympt.technical_lemma_check(args.q, 2, 1, 5, M, dps=dps)
        rows.append(["technical", "t=2;j=1;m=5", M, dev, dev <= 10])
    for M in (10, 100, 1000):
        ratio = asympt.technical2_check(1, M)
        rows.append(["technical2", "k=1", M, ratio, ratio == Fraction(M * M - 1, M * M)])
    ratio = asympt.technical2_check(3, 100)
    rows.append(["technical2", "k=3", 100, ratio, abs(ratio - 1) <= Fraction(2, 100)])
    for (rv, rw, M) in ((1, 1, 100), (2, 2, 100)):
        ratio = asympt.product_main_term_check(rv, rw, M)
        target = Fraction(M + 1, M) if rv == rw == 1 else Fraction(M * M - 1, M * M)
        rows.append(["product", f"rV={rv};rW={rw}", M, ratio, ratio == target])
    return cols, rows


_COUNT = ("M", "M_max")
# each constant gets only the flags it reads, so none enters a cache key unread
_CONSTANT = ("m", "mu", "deg_cut")

# (command, subcommand or None) -> (runner, flags beyond _COMMON, defaults
# the command overrides)
_COMMANDS = {
    ("count", "rational"): (_run_count_rational, _COUNT + ("n",), {}),
    ("count", "pairs"): (_run_count_pairs, _COUNT, {}),
    ("count", "quadratic"): (_run_count_quadratic, _COUNT, {}),
    ("cycles", None): (_run_cycles, ("m_max",), {}),
    ("peyre", "pn"): (_run_peyre, ("n",), {"n": 2}),
    ("peyre", "hilb2"): (_run_peyre, (), {}),
    ("peyre", "hilbm"): (_run_peyre, _CONSTANT, {}),
    ("peyre", "cm"): (_run_peyre, _CONSTANT, {}),
    ("verify", "lemmas"): (_run_verify_lemmas, (), {}),
}

_HELP = {
    "count": "exact point counts",
    "cycles": "0-cycle count table",
    "peyre": "leading constants",
    "verify": "asymptotic lemma checks",
}


def _named_command(argv):
    """The _COMMANDS key whose command path argv starts with, or None."""
    for key in _COMMANDS:
        path = [k for k in key if k]
        if list(argv[: len(path)]) == path:
            return key
    return None


def build_parser():
    """The argparse parser of every command."""
    import argparse

    parser = argparse.ArgumentParser(prog="hilbcount")
    subs = parser.add_subparsers(dest="command", required=True)
    tops, groups = {}, {}
    for key, (_run, flags, defaults) in _COMMANDS.items():
        command, sub = key
        if command not in tops:
            tops[command] = subs.add_parser(command, help=_HELP[command])
        if sub is None:
            leaf = tops[command]
        else:
            if command not in groups:
                groups[command] = tops[command].add_subparsers(dest="subcommand", required=True)
            leaf = groups[command].add_parser(sub)
        for dest in _COMMON + flags:
            leaf.add_argument("--" + dest.replace("_", "-"), **_FLAGS[dest])
        leaf.set_defaults(**defaults)
    return parser


def _parse_plain(argv):
    """The namespace argparse makes of argv, read from _COMMANDS and _FLAGS
    alone, or None if argv is not of the one plain form: a command path,
    then flags of that command spelled in full, each with its value in the
    next token or after "=".  An abbreviation, help, "--", an unknown or
    extra token, and a value that is empty, starts with "-" or is refused by
    its flag's type or choices all give None.  Values come from the flag
    defaults, then the command's defaults, then the flags."""
    key = _named_command(argv)
    if key is None:
        return None
    command, sub = key
    own, defaults = _COMMANDS[key][1:]
    dests = _COMMON + own
    values = {"command": command} if sub is None else {"command": command, "subcommand": sub}
    for dest in dests:
        values[dest] = _FLAGS[dest].get("default")
    values.update(defaults)
    spelled = {"--" + dest.replace("_", "-"): dest for dest in dests}
    tokens = iter(argv[1 if sub is None else 2 :])
    for token in tokens:
        flag, eq, value = token.partition("=")
        dest = spelled.get(flag)
        if dest is None:
            return None
        spec = _FLAGS[dest]
        if not eq:
            value = next(tokens, "")
        if not value or value[0] == "-":
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def _parse_args(argv):
    """The namespace of argv: from the tables when argv is plain, else from
    argparse, which prints any help, usage or error and raises SystemExit."""
    args = _parse_plain(argv)
    return args if args is not None else build_parser().parse_args(argv)


def _fingerprint_config(args, key) -> dict:
    """The run configuration a cache entry is keyed by, including a digest
    of the package source, so rows computed by other code are never
    served."""
    from . import cache

    skip = {"cache_dir", "format"}
    cfg = {
        "command": list(k for k in key if k),
        "source": cache.source_digest(os.path.dirname(os.path.abspath(__file__))),
    }
    for name, value in sorted(vars(args).items()):
        if name in skip or name in ("command", "subcommand"):
            continue
        cfg[name] = str(value)
    return cfg


def _emit(table, fmt, out):
    """Write the CSV text as is, or as a JSON array of row objects: every
    cell is token-safe, so the lines and commas of the text delimit them."""
    if fmt == "csv":
        out.write(table)
    else:
        import json

        columns, *rows = (line.split(",") for line in table.splitlines())
        out.write(json.dumps([dict(zip(columns, row)) for row in rows], indent=2))
        out.write("\n")


def dispatch(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = list(argv)
    try:
        try:
            args = _parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        key = (args.command, getattr(args, "subcommand", None))
        _check_output_args(args)
        cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
        table = None
        if cache_dir:
            from . import cache

            fp_config = _fingerprint_config(args, key)
            table = cache.load(cache_dir, fp_config)
        if table is None:
            from .fqarith import prime_power
            from .records import fmt_value

            _require(args, "q")
            prime_power(args.q)  # every runner reads a checked q
            columns, rows = _COMMANDS[key][0](args)
            cells = [columns] + [[fmt_value(v, args.digits) for v in row] for row in rows]
            table = "".join(",".join(line) + "\n" for line in cells)
            if cache_dir:
                cache.store(cache_dir, fp_config, table)
        _emit(table, args.format, out)
        return 0
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        import logging

        logging.getLogger(__name__).debug("internal error", exc_info=True)
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
