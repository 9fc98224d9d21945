"""Command-line surface: argument parsing, result caching, and CSV table
emission.  Every setting is a flag; only the cache directory can also
come from the ACL_CACHE_DIR environment variable.  One parser, `_parse`,
reads every argv from the command and flag tables: it builds the namespace
of a call, writes the help that -h or --help asks for, and refuses anything
else with one error line.

Each runner imports the compute modules of its own command when it runs, so
a command loads only what it computes with and a cache hit loads none of
them.  A table is rendered once, as CSV text, which a cache entry holds and
the output stream gets as is.  The cache module loads only with a cache
dir, and no run loads hashlib: the cache hashes with the builtin SHA-256.

Exit codes: 0 ok or help, 1 internal error (one stderr line, no traceback),
2 usage error, 3 guard violation (size error).
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

# Each flag's spec, by dest: its value's `type` (str if none), any `default`,
# and the `help` text.  The flag is "--" and the dest with "-" for "_", and
# every flag takes a value.
_FLAGS = {
    "q": dict(type=int, help="field size (prime power)"),
    "digits": dict(type=int, default=12, help="significant digits of real cells"),
    "cache_dir": dict(help=f"directory of cached tables (else ${CACHE_ENV})"),
    "M": dict(type=int, help="height exponent (first)"),
    "M_max": dict(type=int, help="height exponent (last; --M if not given)"),
    "n": dict(type=int, help="projective dimension"),
    "m_max": dict(type=int, default=8, help="largest m in the table"),
    "m": dict(type=int, default=2, help="number of points m of Hilb^m P^2"),
    "mu": dict(help="minimum slope mu of the effective cone (a fraction)"),
    "deg_cut": dict(type=int, default=8, help="largest place degree in the Euler product"),
}
_COMMON = ("q", "digits", "cache_dir")


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

    return list(genfun.CycleRow._fields), [list(r) for r in genfun.cycle_table(args.q, args.m_max)]


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
    return list(peyre.PeyreResult._fields), [list(res)]


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

# command path -> (runner, flags beyond _COMMON, defaults it overrides)
_COMMANDS = {
    ("count", "rational"): (_run_count_rational, _COUNT + ("n",), {}),
    ("count", "pairs"): (_run_count_pairs, _COUNT, {}),
    ("count", "quadratic"): (_run_count_quadratic, _COUNT, {}),
    ("cycles",): (_run_cycles, ("m_max",), {}),
    ("peyre", "pn"): (_run_peyre, ("n",), {"n": 2}),
    ("peyre", "hilb2"): (_run_peyre, (), {}),
    ("peyre", "hilbm"): (_run_peyre, _CONSTANT, {}),
    ("peyre", "cm"): (_run_peyre, _CONSTANT, {}),
    ("verify", "lemmas"): (_run_verify_lemmas, (), {}),
}

_HELP_FLAGS = ("-h", "--help")
_HELP = {
    "count": "exact point counts",
    "cycles": "0-cycle count table",
    "peyre": "leading constants",
    "verify": "asymptotic lemma checks",
}


def _help(words):
    """The flags of every command, then each command whose path starts
    with words and the flags of its own."""
    groups = [("flags of every command:", _COMMON, {})] + [
        (f"{' '.join(key)}: {_HELP[key[0]]}", own, defaults)
        for key, (_run, own, defaults) in _COMMANDS.items()
        if key[: len(words)] == words
    ]
    text = "usage: hilbcount COMMAND [--FLAG VALUE ...]\n"
    for title, dests, defaults in groups:
        text += f"\n{title}\n"
        for dest in dests:
            default = defaults.get(dest, _FLAGS[dest].get("default"))
            text += f"  --{dest.replace('_', '-'):<11}{_FLAGS[dest]['help']}"
            text += "\n" if default is None else f" (default {default})\n"
    return text


def _is_flag(token, flags):
    """Whether token, where a flag's value is due, is a flag and so no
    value: a "-" and at least one more character that make one of flags
    (alone or before "="), "-h" with anything joined to it, or a token that
    is neither a negative number nor holds a space.  So "--" is never a
    value, and "-2", "-1 " and "-" are."""
    if len(token) < 2 or token[0] != "-":
        return False
    if token.partition("=")[0] in flags or token[:2] == "-h":
        return True
    import re

    return not re.match(r"-\d+$|-\d*\.\d+$", token) and " " not in token


def _parse(argv):
    """The namespace of argv, or the help text it asks for.  argv is a
    command path, then flags of that command spelled in full, each with its
    value after "=" or in the next token; -h or --help where a command word
    or a flag is due asks for help.  Values come from the flag defaults, then
    the command's, then the flags, the last of a repeated flag winning.
    Anything else (an unknown or abbreviated flag, a missing value, "--" or
    an extra token, an unknown or missing command, a value that its flag's
    type refuses) raises UsageError."""
    words = ()
    for token in argv:
        if token in _HELP_FLAGS:
            return _help(words)
        if words in _COMMANDS or token[:1] == "-":
            break
        words += (token,)
        if not any(key[: len(words)] == words for key in _COMMANDS):
            raise UsageError(f"unknown command {' '.join(words)!r}; see hilbcount --help")
    if words not in _COMMANDS:
        raise UsageError(f"missing command after {' '.join(('hilbcount',) + words)!r}; see hilbcount --help")
    own, defaults = _COMMANDS[words][1:]
    values = dict(zip(("command", "subcommand"), words))
    values |= {dest: _FLAGS[dest].get("default") for dest in _COMMON + own} | defaults
    spelled = {"--" + dest.replace("_", "-"): dest for dest in _COMMON + own}
    tokens = iter(argv[len(words) :])
    for token in tokens:
        if token in _HELP_FLAGS:
            return _help(words)
        flag, eq, value = token.partition("=")
        if flag not in spelled:
            raise UsageError(f"unrecognized argument {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value, spelled.keys() | _HELP_FLAGS):
                raise UsageError(f"{flag} expects a value")
        spec = _FLAGS[spelled[flag]]
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            raise UsageError(f"{flag}: invalid {spec['type'].__name__} value {value!r}") from None
        values[spelled[flag]] = value
    return SimpleNamespace(**values)


def _fingerprint_config(args, key) -> dict:
    """The run configuration a cache entry is keyed by, including a digest
    of the package source, so rows computed by other code are never
    served."""
    from . import cache

    skip = {"cache_dir", "command", "subcommand"}
    cfg = {
        "command": list(key),
        "source": cache.source_digest(os.path.dirname(os.path.abspath(__file__))),
    }
    for name, value in sorted(vars(args).items()):
        if name not in skip:
            cfg[name] = str(value)
    return cfg


def dispatch(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = list(argv)
    try:
        args = _parse(argv)
        if isinstance(args, str):
            out.write(args)
            return 0
        key = (args.command, args.subcommand) if hasattr(args, "subcommand") else (args.command,)
        _check_output_args(args)
        # an explicit --cache-dir, "" included, overrides the variable
        cache_dir = os.environ.get(CACHE_ENV) if args.cache_dir is None else args.cache_dir
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
        out.write(table)
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
