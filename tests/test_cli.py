import contextlib
import io
import itertools
import json
import logging
import os
import shutil
import subprocess
import sys
import time

from decimal import Decimal, localcontext

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

import hilbcount
from hilbcount import cache, cli, fqarith, genfun, peyre, quadfield, ratpoints
from hilbcount.cli import dispatch
from hilbcount.errors import SizeError
from hilbcount.fqarith import FqField
from hilbcount.records import fmt_value
from oracles import build_parser


def run(argv):
    buf = io.StringIO()
    code = dispatch(argv, out=buf)
    return code, buf.getvalue()


def test_count_rational_golden_csv():
    code, out = run(["count", "rational", "--q", "2", "--n", "1", "--M", "1", "--M-max", "2"])
    assert code == 0
    assert out == (
        "q,n,M,observed,predicted,match\n"
        "2,1,1,6,6,true\n"
        "2,1,2,24,24,true\n"
    )


def test_count_rational_spot_42():
    code, out = run(["count", "rational", "--q", "2", "--n", "2", "--M", "1"])
    assert code == 0
    assert out.splitlines()[1] == "2,2,1,42,42,true"


def test_count_rational_reaches_M4():
    code, out = run(["count", "rational", "--q", "3", "--n", "2", "--M", "1", "--M-max", "4"])
    assert code == 0
    assert out == (
        "q,n,M,observed,predicted,match\n"
        "3,2,1,312,312,true\n"
        "3,2,2,8424,8424,true\n"
        "3,2,3,227448,227448,true\n"
        "3,2,4,6141096,6141096,true\n"
    )


def test_count_rational_n1_budget():
    start = time.monotonic()
    code, out = run(["count", "rational", "--q", "3", "--n", "1", "--M", "5"])
    assert time.monotonic() - start < 2
    assert code == 0
    assert out.splitlines()[1] == "3,1,5,157464,157464,true"


def test_count_pairs_golden_csv():
    code, out = run(["count", "pairs", "--q", "2", "--M", "1", "--M-max", "2"])
    assert code == 0
    assert out == (
        "q,M,observed,closed_form,match\n"
        "2,1,294,294,true\n"
        "2,2,3234,3234,true\n"
    )


def test_cycles_golden_rows():
    code, out = run(["cycles", "--q", "2", "--m-max", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,sym,hilb,primes,chen7,chen8,chen8_valid,ratio_error"
    assert lines[2].startswith("2,35,49,7,35,")
    assert lines[3].startswith("3,155,281,22,155,")


def test_peyre_digits_past_a_double():
    """Digits a double cannot hold come from the Decimal result itself; each
    printed value is checked against mpmath at 60 digits."""
    code, out = run(["peyre", "hilb2", "--q", "3", "--digits", "25"])
    assert code == 0
    assert out.splitlines()[1] == "12.29278384615837098486326,0.0,10816/729"
    with mpmath.workdps(60):
        assert mpmath.nstr(10816 / mpmath.mpf(729) / mpmath.log(3) ** 2, 25) == "12.29278384615837098486326"

    code, out = run(["peyre", "hilbm", "--q", "5", "--m", "6", "--deg-cut", "10", "--digits", "15"])
    assert code == 0
    assert out.splitlines()[1] == "81596787.0211267,426.132173254495,6103515625/72"
    poly = peyre.damped_density_poly(6)
    tail = peyre._tail_log_bound(5, poly, 10)
    with mpmath.workdps(60):
        product = mpmath.fprod(
            mpmath.mpf(base.numerator) ** count / mpmath.mpf(base.denominator) ** count
            for _, count, base in peyre.euler_product_factors(5, poly, 10)
        )
        scale = mpmath.mpf(6103515625) / 72 / mpmath.log(5) ** 2
        residual = scale * product * mpmath.expm1(mpmath.mpf(tail.numerator) / tail.denominator)
        assert mpmath.nstr(scale * product, 15) == "81596787.0211267"
        assert mpmath.nstr(residual, 15) == "426.132173254495"


@given(
    coeff=st.integers(10**59, 10**60 - 1),
    exponent=st.integers(-80, -15),  # first digit at 10^-21 .. 10^44
    negative=st.booleans(),
    digits=st.integers(1, 30),
)
@settings(max_examples=300, deadline=None)
def test_fmt_value_matches_nstr(coeff, exponent, negative, digits):
    # a decimal tie, 5 then zeros past the last digit kept, rounds half-up
    # here while nstr sees the nearest binary number on either side of it
    assume(str(coeff)[digits:] != "5".ljust(60 - digits, "0"))
    v = Decimal(f"{'-' if negative else ''}{coeff}e{exponent}")
    with mpmath.workdps(80):
        assert fmt_value(v, digits) == mpmath.nstr(mpmath.mpf(str(v)), digits)


@pytest.mark.parametrize(
    "v, digits, want",
    [
        (Decimal(0), 12, "0.0"),
        (Decimal("9.9996"), 4, "10.0"),
        (Decimal("99999.96"), 6, "100000.0"),
        (Decimal("1e44"), 12, "1.0e+44"),
        (Decimal("-2e-7"), 12, "-2.0e-7"),
        (Decimal("0.00012345"), 3, "0.000123"),
        (Decimal("0.000012345"), 3, "1.23e-5"),
    ],
)
def test_fmt_value_layout(v, digits, want):
    assert fmt_value(v, digits) == want
    with mpmath.workdps(80):
        assert mpmath.nstr(mpmath.mpf(str(v)), digits) == want


def test_fmt_value_takes_no_float():
    """Every real cell is a Decimal, so a float is refused as any other type
    without a layout is."""
    with pytest.raises(TypeError, match="cannot format <class 'float'>"):
        fmt_value(0.1, 17)


def test_fmt_value_past_the_int_str_limit():
    """Real cells of more than 4300 digits, past what int() reads from a
    string by default, are rounded and laid out as short ones are."""
    assert fmt_value(Decimal("0." + "6" * 5010), 5000) == "0." + "6" * 4999 + "7"
    assert fmt_value(Decimal("9" * 5010), 5000) == "1.0e+5010"
    with localcontext() as ctx:
        ctx.prec = 5010
        v = Decimal(-2) / 21  # -0.095238 095238 ...
    assert fmt_value(v, 4500) == "-0.0" + "952380" * 749 + "952381"


def test_verify_lemmas_all_pass():
    code, out = run(["verify", "lemmas", "--q", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lemma,params,M,ratio_or_dev,pass"
    assert len(lines) > 5
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_lemmas_digits_past_fifty():
    """--digits sets the working precision of the technical rows as it does
    for peyre: at 60 digits each deviation is mpmath's at 100, rounded."""
    code, out = run(["verify", "lemmas", "--q", "5", "--digits", "60"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines() if line.startswith("technical,")]
    assert [int(row[2]) for row in rows] == [50, 100, 200, 400]
    with mpmath.workdps(100):
        q = mpmath.mpf(5)
        for _lemma, _params, M, cell, _ok in rows:
            M = int(M)
            # t = 2, j = 1, m = 5: sum_i q^(i/2) i^3 against (2/log q + 1/2) q^(M/2) M^3
            total = mpmath.fsum(q ** (mpmath.mpf(i) / 2) * i**3 for i in range(M + 1))
            main = (2 / mpmath.log(q) + mpmath.mpf(1) / 2) * q ** (mpmath.mpf(M) / 2) * M**3
            assert cell == mpmath.nstr(abs(total / main - 1) * M, 60)


def test_usage_errors_exit_2():
    assert dispatch(["count", "rational", "--q", "2", "--n", "1"], out=io.StringIO()) == 2  # missing --M
    assert dispatch(["count", "rational", "--nope"], out=io.StringIO()) == 2
    assert dispatch(["count", "quadratic", "--q", "2", "--M", "0"], out=io.StringIO()) == 2  # M < 1
    assert dispatch(["count", "rational", "--q", "6", "--n", "1", "--M", "1"], out=io.StringIO()) == 2
    for m_max in ("0", "-1"):
        assert dispatch(["cycles", "--q", "2", "--m-max", m_max], out=io.StringIO()) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["peyre", "hilbm", "--q", "2", "--m", "3", "--mu", "1/0"], "error: mu '1/0' has a zero denominator"),
        (["peyre", "pn", "--q", "2", "--n", "-2"], "error: n >= 1 required"),
        (["peyre", "pn", "--q", "2", "--n", "0"], "error: n >= 1 required"),
        # m = 2 needs no slope, but a given one is checked as at every other m
        (["peyre", "cm", "--q", "2", "--m", "2", "--mu", "-1"], "error: mu must be positive"),
        (["peyre", "cm", "--q", "2", "--m", "2", "--mu", "1/0"], "error: mu '1/0' has a zero denominator"),
        (["peyre", "cm", "--q", "2", "--m", "3", "--mu", "-1"], "error: mu must be positive"),
        (["peyre", "cm", "--q", "2", "--m", "3", "--mu", "1/0"], "error: mu '1/0' has a zero denominator"),
        (["peyre", "hilbm", "--q", "2", "--m", "2", "--mu", "0"], "error: mu must be positive"),
        # m = 2 reads no Euler product, but a given cut is checked as at m = 3
        (["peyre", "cm", "--q", "3", "--m", "2", "--deg-cut=-5"], "error: deg_cut >= 1 required"),
        # a mu that Fraction cannot read is named in the error
        (["peyre", "hilbm", "--q", "3", "--m", "3", "--mu", ""], "error: mu '' is not a fraction"),
        (["peyre", "hilbm", "--q", "3", "--m", "3", "--mu", "abc"], "error: mu 'abc' is not a fraction"),
        (["peyre", "cm", "--q", "3", "--m", "2", "--mu", "1/2/3"], "error: mu '1/2/3' is not a fraction"),
    ],
)
def test_peyre_bad_input_exit_2(capsys, argv, message):
    code, out = run(argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == message + "\n"


def test_peyre_subcommands_take_only_their_flags():
    assert dispatch(["peyre", "hilb2", "--q", "3", "--m", "7"], out=io.StringIO()) == 2
    assert dispatch(["peyre", "pn", "--q", "3", "--deg-cut", "3"], out=io.StringIO()) == 2


def test_tail_bound_guard_states_cut_and_limit(capsys):
    code, out = run(["peyre", "hilbm", "--q", "2", "--m", "6", "--deg-cut", "1"])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == (
        "size guard: deg_cut 1 too small for the tail bound to apply (needs deg_cut >= 9)\n"
    )
    assert run(["peyre", "hilbm", "--q", "2", "--m", "6", "--deg-cut", "9"])[0] == 0
    # a cut that passed the per-place condition alone printed a residual
    # bound of 8.5e+11835 here; the log-tail bound must be <= 1/2 as well
    capsys.readouterr()
    assert run(["peyre", "hilbm", "--q", "3", "--m", "45", "--deg-cut", "8"]) == (3, "")
    assert "(needs deg_cut >= 18)" in capsys.readouterr().err


def test_internal_error_exit_1(capsys, monkeypatch, caplog):
    def boom(q, m_max):
        raise RuntimeError("boom")

    monkeypatch.setattr(genfun, "cycle_table", boom)
    caplog.set_level(logging.DEBUG, logger="hilbcount.cli")
    code, out = run(["cycles", "--q", "2", "--m-max", "3"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: internal: RuntimeError: boom\n"
    # the traceback goes to the DEBUG log only
    (rec,) = caplog.records
    assert (rec.name, rec.levelno, rec.getMessage()) == ("hilbcount.cli", logging.DEBUG, "internal error")
    assert rec.exc_info[0] is RuntimeError


def test_size_guard_exit_3(capsys):
    code, out = run(["count", "rational", "--q", "97", "--n", "5", "--M", "9"])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert f"sieve of q^(M+1) = 97^10 codes exceeds guard {ratpoints.SIEVE_GUARD}" in err


Q_ONLY = [
    ["peyre", "hilb2"],
    ["peyre", "pn"],
    ["peyre", "hilbm"],
    ["peyre", "cm", "--m", "3"],
    ["verify", "lemmas"],
    ["count", "pairs", "--M", "1", "--M-max", "2"],
    ["cycles"],
]


@pytest.mark.parametrize("q", [2**24, 3**15])
def test_q_only_commands_build_no_field(q, monkeypatch, capsys):
    """Past the modulus search guard, every command that reads q alone
    runs at odd and even q: none builds F_q."""
    def no_field(*args):
        raise AssertionError("F_q was built")

    monkeypatch.setattr(FqField, "__init__", no_field)
    for argv in Q_ONLY:
        code, out = run(argv + ["--q", str(q)])
        assert code == 0 and len(out.splitlines()) > 1, (argv, capsys.readouterr().err)
    code, out = run(["count", "quadratic", "--q", str(q), "--M", "1"])
    assert code == 0 and out.splitlines()[1].startswith(f"{q},1,")
    code, out = run(["count", "rational", "--q", str(q), "--n", "1", "--M", "0"])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == (
        f"size guard: count of P^1 at M = 0: sieve of q^(M+1) = {q}^1 codes "
        f"exceeds guard {ratpoints.SIEVE_GUARD}\n"
    )


@pytest.mark.parametrize("n", [9, 20])
def test_count_guard_admits_many_coordinates(n):
    """The count's guard reads its work, not the q^((n+1)(M+1)) tuples it
    ranges over, so P^9 and P^20 at q = 2, M = 2 are counted."""
    code, out = run(["count", "rational", "--q", "2", "--n", str(n), "--M", "2"])
    assert code == 0
    assert out.splitlines()[1].startswith(f"2,{n},2,") and out.endswith(",true\n")


def test_largest_guarded_field_size_runs():
    # 2^40 - 87, the largest 40-bit prime, is validated by trial division
    code, out = run(["peyre", "pn", "--q", "1099511627689"])
    assert code == 0 and out.startswith("value,residual_bound,exact_prefactor\n")
    # the series order guard alone bounds cycles, at every admitted q
    for q, m_max in ((17, 2), (1099511627689, 64)):
        code, out = run(["cycles", "--q", str(q), "--m-max", str(m_max)])
        assert code == 0 and len(out.splitlines()) == m_max + 1


class _NoTrialDivision(int):
    """An int that refuses to be trial-divided."""

    def __mod__(self, other):
        raise AssertionError("trial division ran before the guard")


def test_field_size_guard_before_trial_division(capsys):
    q = 2**40 + 15  # prime, 41 bits
    with pytest.raises(SizeError):
        fqarith.prime_power(_NoTrialDivision(q))
    code, out = run(["peyre", "pn", "--q", str(q)])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err == f"size guard: field size q = {q} exceeds guard of {fqarith.Q_BITS_GUARD} bits\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cycles", "--q", "17", "--m-max", "65"], "series order 65 exceeds guard order <= 64"),
        (["cycles", "--q", "5", "--m-max", "65"], "series order 65 exceeds guard order <= 64"),
        (["peyre", "hilbm", "--q", "3", "--m", "65", "--mu", "1"], "series order 65 exceeds guard order <= 64"),
    ],
)
def test_cycles_guard_names_the_bound_exceeded(argv, message, capsys):
    """The series order guard states the bound exceeded, in one wording for
    `cycles`, past q = 16 as below it, and for the Hilb^m polynomial of
    `peyre hilbm`."""
    code, out = run(argv)
    assert code == 3 and out == ""
    assert capsys.readouterr().err == f"size guard: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "rational", "--q", "3", "--n", "1", "--M", "7", "--M-max", "9"], "M = 9: fold of about"),
        pytest.param(
            ["count", "quadratic", "--q", "5", "--M", "2", "--M-max", str(quadfield.M_GUARD + 1)],
            f"form count at M = {quadfield.M_GUARD + 1}",
            id="argv1-form count at M = M_GUARD + 1",
        ),
        (["count", "rational", "--q", "3", "--n", "1", "--M", "0", "--M-max", "9"], "M = 9: fold of about"),
        (["count", "pairs", "--q", "16", "--M", "1", "--M-max", "2731"], "M = 2731: q^(3M) = 16^8193 exceeds"),
        (
            ["count", "pairs", "--q", "16", "--M", "1", "--M-max", "2730"],
            "pair count over M = 1..2730: sum of 3M bit_length(q) = 55917225 bits exceeds guard of 4194304 bits",
        ),
    ],
)
def test_range_guard_fails_before_any_row(argv, message, monkeypatch, capsys):
    """The guard of the range's largest M fires before a smaller M's row is
    computed: the rational count builds F_q, its divisor masks and its
    folds, the pair count its point counts, and the degree-2 count its form
    counts, only past their guard."""
    def no_row(*args):
        raise AssertionError("a row was computed before the guard")

    monkeypatch.setattr(FqField, "__init__", no_row)
    for name in ("divisor_masks", "_coprime_tuples", "point_count_exact_height"):
        monkeypatch.setattr(ratpoints, name, no_row)
    monkeypatch.setattr(quadfield, "_form_counts", no_row)
    start = time.monotonic()
    code, out = run(argv)
    assert time.monotonic() - start < 1
    assert code == 3 and out == ""
    assert message in capsys.readouterr().err


def _counting(monkeypatch, module, name):
    """Count the calls of module.name for the rest of the test."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_count_rational_range_sieves_once(monkeypatch):
    """A range of M sieves once, at its largest M, and folds each of the
    M_max - M + 2 prefixes of codes once."""
    sieves = _counting(monkeypatch, ratpoints, "divisor_masks")
    folds = _counting(monkeypatch, ratpoints, "_coprime_tuples")
    code, out = run(["count", "rational", "--q", "3", "--n", "2", "--M", "0", "--M-max", "3"])
    assert code == 0 and len(out.splitlines()) == 5 and out.endswith(",true\n")
    assert (len(sieves), len(folds)) == (1, 5)


def test_count_pairs_range_counts_each_height_once(monkeypatch):
    """A range of M makes each A(N), N <= M_max, once, not once per row."""
    points = _counting(monkeypatch, ratpoints, "point_count_exact_height")
    code, out = run(["count", "pairs", "--q", "16", "--M", "1", "--M-max", "40"])
    assert code == 0 and len(out.splitlines()) == 41
    assert len(points) == 41


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["count", "pairs", "--q", "3", "--M", "20000"],
            "pair count at M = 20000: q^(3M) = 3^60000 exceeds guard of 32768 bits",
        ),
        (["count", "pairs", "--q", "16", "--M", "1", "--M-max", "2731"], "M = 2731: q^(3M) = 16^8193 exceeds"),
        (
            ["peyre", "hilbm", "--q", "3", "--deg-cut", "1000000"],
            "Euler product to deg_cut 1000000: q^deg_cut = 3^1000000 exceeds guard of 512 bits",
        ),
        (["peyre", "cm", "--q", "16", "--m", "3", "--deg-cut", "128"], "deg_cut 128: q^deg_cut = 16^128 exceeds"),
        (
            ["peyre", "pn", "--q", "3", "--n", "1000000"],
            "P^n constant at n = 1000000: q^(n+1) = 3^1000001 exceeds guard of 32768 bits",
        ),
        (["peyre", "pn", "--q", "1099511627689", "--n", "819"], "n = 819: q^(n+1) = 1099511627689^820 exceeds"),
    ],
)
def test_bit_guards_refuse_before_any_work(argv, message, monkeypatch, capsys):
    """The pair count, the Euler product and the P^n constant refuse on the
    bit length of the power of q their cost grows with, before a point
    count, a place count or the P^n Schanuel constant is made, so neither a
    large q nor a large M, cut or n slips past."""
    def no_work(*args):
        raise AssertionError("work was done before the guard")

    monkeypatch.setattr(ratpoints, "point_count_exact_height", no_work)
    monkeypatch.setattr(peyre, "irreducible_count", no_work)
    if argv[1] == "pn":  # cm reads the small S(3, 1) before its guard
        monkeypatch.setattr(peyre, "schanuel_constant", no_work)
    start = time.monotonic()
    code, out = run(argv)
    assert time.monotonic() - start < 1
    assert code == 3 and out == ""
    assert message in capsys.readouterr().err


def test_bit_guards_admit_their_limit():
    """The largest M, cut and n run; one more is refused."""
    assert ratpoints.count_reducible_pairs(16, 2730, 2730)[0].match
    assert len(peyre.places_by_degree(16, 127)) == 127
    assert len(peyre.places_by_degree(3, 323)) == 323
    for n, q in ((20673, 3), (32766, 2), (818, 1099511627689)):
        assert peyre.peyre_constant_pn(n, q, dps=50).exact_prefactor == ratpoints.schanuel_constant(n, q)
    for call in (
        lambda: ratpoints.count_reducible_pairs(16, 2731, 2731),
        lambda: peyre.places_by_degree(16, 128),
        lambda: peyre.places_by_degree(3, 324),
        lambda: peyre.peyre_constant_pn(20674, 3, dps=50),
        lambda: peyre.peyre_constant_pn(32767, 2, dps=50),
        lambda: peyre.peyre_constant_pn(819, 1099511627689, dps=50),
    ):
        with pytest.raises(SizeError):
            call()


class _NoPower(int):
    """An int that refuses to be raised to a power."""

    def __pow__(self, other):
        raise AssertionError("the guarded power was built")


def test_bit_guards_build_no_power_they_refuse():
    """At a 40-bit q the pair, Euler and P^n guards refuse from the bit
    length of q alone, without building q^(3M), q^deg_cut or q^(n+1)."""
    q = _NoPower(2**40 - 87)
    with pytest.raises(SizeError):
        ratpoints.count_reducible_pairs(q, 10922, 10922)
    with pytest.raises(SizeError):
        peyre.places_by_degree(q, 14)
    with pytest.raises(SizeError):
        peyre.peyre_constant_pn(840, q, dps=50)


def test_pair_range_guard_admits_its_limit(monkeypatch):
    """At q = 16 the pair count's range guard admits 1..40, 1..600, the
    largest single row and 1..747, and refuses 1..748; an admitted range
    gets as far as its first point count."""
    class Started(Exception):
        pass

    def started(*args):
        raise Started

    monkeypatch.setattr(ratpoints, "point_count_exact_height", started)
    for M, M_max in [(1, 40), (1, 600), (2730, 2730), (1, 747)]:
        with pytest.raises(Started):
            ratpoints.count_reducible_pairs(16, M, M_max)
    with pytest.raises(SizeError, match=r"^pair count over M = 1\.\.748: .* = 4201890 bits exceeds guard of 4194304 bits$"):
        ratpoints.count_reducible_pairs(16, 1, 748)


def test_cells_past_the_int_str_limit():
    """Exact cells of more than 4300 digits, which str() refuses by
    default, are printed in full."""
    code, out = run(["count", "pairs", "--q", "16", "--M", "1200"])
    assert code == 0
    _q, _M, observed, closed_form, match = out.splitlines()[1].split(",")
    (pc,) = ratpoints.count_reducible_pairs(16, 1200, 1200)
    assert len(observed) > 4300 and match == "true"
    assert (Decimal(observed), Decimal(closed_form)) == (pc.observed, pc.closed_form)

    code, out = run(["peyre", "pn", "--q", "3", "--n", "5000"])
    assert code == 0
    numerator, denominator = out.splitlines()[1].split(",")[2].split("/")
    S = ratpoints.schanuel_constant(5000, 3)
    assert len(numerator) > 4300
    assert (Decimal(numerator), Decimal(denominator)) == (S.numerator, S.denominator)


def _src_env():
    """The environment of a child interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(hilbcount.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_python_m_hilbcount():
    proc = subprocess.run(
        [sys.executable, "-m", "hilbcount", "count", "rational", "--q", "2", "--n", "1", "--M", "1"],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == "q,n,M,observed,predicted,match\n2,1,1,6,6,true\n"


# Runs in a fresh interpreter: imports the CLI, then dispatches each named
# argv in order and records its table, what it printed to sys.stdout and
# sys.stderr (help, usage, errors), and the package modules, mpmath,
# logging, dataclasses, fractions, decimal, hashlib, _hashlib (OpenSSL),
# argparse, gettext and locale loaded so far.
_IMPORT_PROBE = r"""
import io, json, sys
from hilbcount import cli

WATCHED = (
    "mpmath", "logging", "dataclasses", "hashlib", "_hashlib", "fractions", "decimal",
    "argparse", "gettext", "locale",
)

def loaded():
    return sorted(m for m in sys.modules if m in WATCHED or m.startswith("hilbcount."))

steps = {"import": {"modules": loaded()}}
for name, argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = cli.dispatch(argv, out=out)
    finally:
        printed = [sys.stdout.getvalue(), sys.stderr.getvalue()]
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    steps[name] = {"code": code, "stdout": out.getvalue(), "printed": printed, "modules": loaded()}
print(json.dumps(steps))
"""


def _import_probe(plan, codes=None) -> dict:
    """The steps of _IMPORT_PROBE run over plan in a fresh interpreter; each
    step exits 0 but those named in codes, which exit with the code given."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(plan)],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    want = codes or {}
    assert [steps[name]["code"] for name, _argv in plan] == [want.get(name, 0) for name, _argv in plan]
    # no command builds a dataclass, so none pays for dataclasses and inspect
    assert not any("dataclasses" in step["modules"] for step in steps.values())
    # one parser reads every argv, help and errors included, from the tables
    assert not any({"argparse", "gettext", "locale"} & set(step["modules"]) for step in steps.values())
    return steps


_NO_JSON = r"""
import io, sys
from hilbcount import cache, cli
assert "json" not in sys.modules, "import"
loads, load = [], cache.load
cache.load = lambda cache_dir, config: loads.append(load(cache_dir, config)) or loads[-1]
argv = ["count", "pairs", "--q", "2", "--M", "1", "--cache-dir", sys.argv[1]]
outs = [io.StringIO(), io.StringIO()]
assert [cli.dispatch(argv, out=out) for out in outs] == [0, 0]
assert [table is None for table in loads] == [True, False], "a miss, then a hit"
assert outs[1].getvalue() == outs[0].getvalue() == "q,M,observed,closed_form,match\n2,1,294,294,true\n"
assert "json" not in sys.modules, "run"
"""


def test_each_command_imports_only_its_modules(tmp_path):
    # the probe loads json itself, so this interpreter checks that importing
    # the CLI and the cache does not, nor a CSV run with a cache dir, a miss
    # and then a hit: an entry holds the CSV text
    proc = subprocess.run(
        [sys.executable, "-c", _NO_JSON, str(tmp_path / "csv")],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    hit_argv = ["peyre", "hilb2", "--q", "3", "--cache-dir", str(tmp_path)]
    code, cold = run(hit_argv)  # fills the cache in this process
    assert code == 0
    # logging serves only the error paths, so no step here loads it
    unused = {"mpmath", "logging"} | {
        f"hilbcount.{m}" for m in ("fqarith", "ratpoints", "quadfield", "genfun", "peyre", "asympt", "records")
    }
    # the cache hashes with the builtin SHA-256, so not even a hit loads OpenSSL
    openssl = {"hashlib", "_hashlib"}
    steps = _import_probe([("hit", hit_argv)])
    assert not (unused | openssl | {"hilbcount.cache"}) & set(steps["import"]["modules"])
    assert steps["hit"]["stdout"] == cold
    assert not (unused | openssl) & set(steps["hit"]["modules"])
    assert "hilbcount.cache" in steps["hit"]["modules"]

    # without a cache dir: a second interpreter, which the hit has not touched
    plan = [
        ("rational", ["count", "rational", "--q", "2", "--n", "1", "--M", "1"]),
        ("pairs", ["count", "pairs", "--q", "2", "--M", "1"]),
        ("cycles", ["cycles", "--q", "2", "--m-max", "3"]),
        ("pn", ["peyre", "pn", "--q", "3", "--n", "3"]),
        ("hilbm", ["peyre", "hilbm", "--q", "3", "--m", "3", "--mu", "1"]),
        ("lemmas", ["verify", "lemmas", "--q", "3"]),
        ("help", ["count", "pairs", "--help"]),
        ("unknown flag", ["count", "pairs", "--q", "2", "--M", "1", "--nope", "1"]),
    ]
    steps = _import_probe(plan, codes={"help": 0, "unknown flag": 2})
    # the steps share the interpreter, so each list holds what came before too
    assert not unused & set(steps["import"]["modules"])
    assert not (openssl | {"hilbcount.cache"}) & set(steps["lemmas"]["modules"])
    # help goes to the output stream, an error to stderr as one line
    assert (steps["help"]["stdout"], steps["help"]["printed"]) == (cli._help(("count", "pairs")), ["", ""])
    assert steps["unknown flag"]["stdout"] == ""
    assert steps["unknown flag"]["printed"] == ["", "error: unrecognized argument '--nope'\n"]
    # no command loads mpmath: the constants and lemma checks are Decimals
    assert "mpmath" not in steps["lemmas"]["modules"]
    rational = set(steps["rational"]["modules"])
    assert "hilbcount.ratpoints" in rational
    assert not {"hilbcount.quadfield", "hilbcount.genfun", "hilbcount.peyre"} & rational
    # the counts are integers all the way to the table; cycles, next, is the
    # first step to load fractions
    for name in ("rational", "pairs"):
        assert not {"fractions", "decimal"} & set(steps[name]["modules"]), name
    assert "fractions" in steps["cycles"]["modules"]
    assert "hilbcount.genfun" in steps["cycles"]["modules"]
    assert "hilbcount.peyre" in steps["pn"]["modules"]
    assert "hilbcount.asympt" in steps["lemmas"]["modules"]

    # count quadratic, in an interpreter of its own, before anything has
    # loaded fractions: its main_term and ratio cells are computed in integers
    steps = _import_probe([("quadratic", ["count", "quadratic", "--q", "3", "--M", "1"])])
    quadratic = set(steps["quadratic"]["modules"])
    assert "hilbcount.quadfield" in quadratic
    assert not {"fractions", "decimal", "hilbcount.ratpoints"} & quadratic
    # nor, like every step of the shared plan, OpenSSL, the cache or mpmath
    assert not (openssl | {"hilbcount.cache", "mpmath"}) & quadratic


def test_count_quadratic_q5_exits_0():
    code, out = run(["count", "quadratic", "--q", "5", "--M", "1"])
    assert code == 0
    assert out.splitlines()[1] == "5,1,93000,true,1107072/5,625/1488"


def test_m_guard_exit_3(capsys):
    M = quadfield.M_GUARD + 1
    code, out = run(["count", "quadratic", "--q", "5", "--M", str(M)])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert f"form count at M = {M} exceeds guard M <= {quadfield.M_GUARD}" in err


def test_allow_unstable_is_gone():
    code, out = run(["count", "quadratic", "--q", "3", "--M", "1", "--allow-unstable"])
    assert code == 2 and out == ""


def _assert_unknown_flag(command, spellings, capsys):
    """Each spelling (a list of tokens) after command is refused as any
    unknown flag is: exit 2, nothing on stdout, and one error line naming
    its first token."""
    for flags in spellings:
        assert run(command + flags) == (2, "")
        assert capsys.readouterr().err == f"error: unrecognized argument {flags[0]!r}\n"


def test_config_format_is_checked(tmp_path, monkeypatch, capsys):
    """--config FILE and --config=FILE are unknown flags, so a file setting
    format = xml changes nothing, and so is --format with any value: exit 2,
    and nothing written."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "x.cfg"
    cfg.write_text("format=xml\n")
    command = ["count", "rational", "--q", "2", "--n", "1", "--M", "1", "--cache-dir", str(tmp_path / "cache")]
    _assert_unknown_flag(command, [["--config", str(cfg)], [f"--config={cfg}"]], capsys)
    # every table is CSV
    _assert_unknown_flag(command, [["--format", "csv"], ["--format=json"]], capsys)
    assert os.listdir(tmp_path) == ["x.cfg"]


def test_digits_below_1_exit_2(capsys):
    for digits in (0, -2):
        code, out = run(["peyre", "hilb2", "--q", "3", "--digits", str(digits)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: digits must be >= 1, not {digits}\n"
    code, out = run(["peyre", "hilb2", "--q", "3", "--digits", "1"])
    assert code == 0
    assert out.splitlines()[1] == "1.0e+1,0.0,10816/729"


def test_digits_guard_refuses_before_any_work(tmp_path, monkeypatch, capsys):
    """--digits past DIGITS_GUARD exits 3 with one stderr line naming the
    request and the limit, before a cache lookup or any work; the limit
    itself runs."""
    limit = cli.DIGITS_GUARD

    def no_work(*args, **kwargs):
        raise AssertionError("work was done before the guard")

    with monkeypatch.context() as patch:
        patch.setattr(peyre, "peyre_constant_hilb2", no_work)
        patch.setattr(cache, "load", no_work)
        argv = ["peyre", "hilb2", "--q", "3", "--cache-dir", str(tmp_path / "cache"), "--digits", str(limit + 1)]
        assert run(argv) == (3, "")
        err = capsys.readouterr().err
        assert err == f"size guard: digits = {limit + 1} exceeds guard digits <= {limit}\n"
    code, out = run(["peyre", "hilb2", "--q", "3", "--digits", str(limit)])
    assert code == 0
    value = peyre.peyre_constant_hilb2(3, dps=limit + 10).value
    assert out.splitlines()[1].split(",")[0] == fmt_value(value, limit)


def test_plot_outputs(tmp_path, monkeypatch, capsys):
    """--plot, with or without a value, is refused as any unknown flag is:
    exit 2 and one error line, and nothing written."""
    monkeypatch.chdir(tmp_path)
    _assert_unknown_flag(["count", "pairs", "--q", "2", "--M", "1"], [["--plot"], ["--plot=1"]], capsys)
    assert os.listdir(tmp_path) == []


def test_config_plot_is_checked(tmp_path, monkeypatch, capsys):
    """A file with plot = yes, passed as --config FILE or --config=FILE, is
    refused with the flag: exit 2, and nothing written."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "p.cfg"
    cfg.write_text("plot = yes\n")
    spellings = [["--config", str(cfg)], [f"--config={cfg}"]]
    _assert_unknown_flag(["count", "pairs", "--q", "2", "--M", "1"], spellings, capsys)
    assert os.listdir(tmp_path) == ["p.cfg"]


def test_cache_warm_equals_cold(tmp_path):
    argv = ["count", "pairs", "--q", "2", "--M", "1", "--cache-dir", str(tmp_path)]
    code1, cold = run(argv)
    assert code1 == 0
    files = [f for f in os.listdir(tmp_path) if f.endswith(".csv")]
    assert len(files) == 1
    code2, warm = run(argv)
    assert code2 == 0 and warm == cold
    # a different parameter must not hit the same entry
    run(["count", "pairs", "--q", "3", "--M", "1", "--cache-dir", str(tmp_path)])
    assert len([f for f in os.listdir(tmp_path) if f.endswith(".csv")]) == 2


def test_cache_source_change_recomputes(tmp_path, monkeypatch):
    """A cold run, then a change to the source digest, then a miss that
    recomputes the same stdout and is then a hit."""
    calls = _counting(monkeypatch, ratpoints, "count_reducible_pairs")
    argv = ["count", "pairs", "--q", "2", "--M", "1", "--cache-dir", str(tmp_path)]
    code, cold = run(argv)
    assert code == 0 and len(calls) == 1
    monkeypatch.setattr(cache, "source_digest", lambda pkg_dir: "0" * 64)
    code, out = run(argv)
    assert code == 0 and out == cold
    assert len(calls) == 2  # a miss: the entry of the other code is not served
    assert len([f for f in os.listdir(tmp_path) if f.endswith(".csv")]) == 2
    code, out = run(argv)
    assert code == 0 and out == cold and len(calls) == 2  # same code: a hit


def test_source_digest_reads_every_byte(tmp_path, monkeypatch):
    pkg = os.path.dirname(os.path.abspath(cache.__file__))
    copy = tmp_path / "hilbcount"
    shutil.copytree(pkg, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert cache.source_digest(str(copy)) == cache.source_digest(pkg)
    # __init__.py holds __version__ and cache.py the entry format, so the
    # digest alone tells their edits apart
    for name in ("genfun.py", "__init__.py", "cache.py"):
        path = copy / name
        data = path.read_bytes()
        flipped = bytearray(data)
        flipped[len(data) // 2] ^= 1
        path.write_bytes(bytes(flipped))
        assert cache.source_digest(str(copy)) != cache.source_digest(pkg), name
        path.write_bytes(data)

    def unread(pkg_dir):
        raise AssertionError("the source was read without a cache dir")

    # without a cache dir no source file is read
    monkeypatch.setattr(cache, "source_digest", unread)
    assert run(["count", "pairs", "--q", "2", "--M", "1"])[0] == 0


def test_digests_are_hashlib_sha256():
    """The builtin SHA-256 the cache uses gives hashlib's bytes, so an
    interpreter that falls back to hashlib keys and checks entries alike."""
    import hashlib

    config = {"a": 1}
    assert cache.fingerprint(config) == hashlib.sha256(b"[('a', 1)]").hexdigest()
    assert cache.fingerprint(config) == "0713fe02cba45e60d7b8cea56581c7b1db1b0a04407b5783d664c1659c67f9df"
    config = {"command": ["peyre", "hilbm"], "mu": "None", "q": "3", "source": "0" * 64}
    blob = repr(sorted(config.items())).encode("utf-8")
    assert cache.fingerprint(config) == hashlib.sha256(blob).hexdigest()

    pkg = os.path.dirname(os.path.abspath(cache.__file__))
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    assert cache.source_digest(pkg) == h.hexdigest()


def test_fingerprint_tells_free_text_apart():
    """A value may hold any text (--mu is the user's), so configs that a
    k=v join would run together have different fingerprints."""
    assert cache.fingerprint({"mu": "1,q=2", "q": "3"}) != cache.fingerprint({"mu": "1", "q": "2,q=3"})


def test_version_has_one_copy():
    """pyproject.toml reads the version from the package's __init__.py, so
    the distribution is built with the version the package reports."""
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        meta = tomllib.load(fh)
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "hilbcount.__version__"}


def test_cache_dir_is_read_only_from_argv(tmp_path, monkeypatch):
    """Only --cache-dir turns the cache on: with ACL_CACHE_DIR set to a
    directory, no --cache-dir, an empty one and an empty one after "=" all
    print the table and leave that directory empty."""
    monkeypatch.setenv("ACL_CACHE_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    argv = ["count", "pairs", "--q", "2", "--M", "1", "--M-max", "2"]
    for flag in ([], ["--cache-dir", ""], ["--cache-dir="]):
        assert run(argv + flag) == (0, _PAIRS_TABLE)
    assert os.listdir(tmp_path) == []


def test_unusable_cache_dir_is_refused_before_the_compute(tmp_path, monkeypatch, capsys):
    """A --cache-dir that is a regular file exits 2 with one error line and
    no table before the runner is called."""
    def no_run(args):
        raise AssertionError("the runner was called before the cache dir was made")

    key = ("count", "quadratic")
    monkeypatch.setitem(cli._COMMANDS, key, (no_run, *cli._COMMANDS[key][1:]))
    path = tmp_path / "F"
    path.write_text("")
    assert run(["count", "quadratic", "--q", "3", "--M", "20", "--cache-dir", str(path)]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


_PAIRS_TABLE = "q,M,observed,closed_form,match\n2,1,294,294,true\n2,2,3234,3234,true\n"


def _edit_digit(header, body):
    return header + "\n" + body.replace("2,1,294,294", "2,1,295,294")


def _drop_row(header, body):
    return header + "\n" + "".join(body.splitlines(keepends=True)[:-1])


def _truncate(header, body):
    return header + "\n" + body[: len(body) // 2]


def _replace_fingerprint(header, body):
    return "0" * 64 + header[64:] + "\n" + body


# edits to an entry of _PAIRS_TABLE, each given its header and body
_ENTRY_EDITS = [_edit_digit, _drop_row, _truncate, _replace_fingerprint]


def _edit_entry(path, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        header, _, body = fh.read().partition("\n")
    assert body == _PAIRS_TABLE
    edited = edit(header, body)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(edited)
    return header + "\n" + body


def test_cache_corrupt_quarantine(tmp_path, caplog):
    """Every edit of an entry is renamed aside with one warning, and the
    load is a miss."""
    config = {"a": "1"}
    for edit in _ENTRY_EDITS:
        caplog.clear()
        path = cache.store(str(tmp_path), config, _PAIRS_TABLE)
        assert cache.load(str(tmp_path), config) == _PAIRS_TABLE
        _edit_entry(path, edit)
        assert cache.load(str(tmp_path), config) is None, edit.__name__
        assert os.path.exists(path + ".corrupt") and not os.path.exists(path)
        (rec,) = caplog.records
        assert (rec.name, rec.levelno) == ("hilbcount.cache", logging.WARNING)
        assert rec.getMessage().startswith(f"quarantined corrupt cache file {path}.corrupt (")
    # an entry that is not UTF-8 is quarantined too
    path = cache.store(str(tmp_path), config, _PAIRS_TABLE)
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    assert cache.load(str(tmp_path), config) is None
    assert os.path.exists(path + ".corrupt") and not os.path.exists(path)


@pytest.mark.parametrize("edit", _ENTRY_EDITS, ids=lambda edit: edit.__name__.lstrip("_"))
def test_cache_malformed_payload_recomputed(tmp_path, monkeypatch, caplog, edit):
    """An edited entry is quarantined, recomputed to the cold stdout and
    stored again, and the next run is a hit."""
    calls = _counting(monkeypatch, ratpoints, "count_reducible_pairs")
    argv = ["count", "pairs", "--q", "2", "--M", "1", "--M-max", "2", "--cache-dir", str(tmp_path)]
    code, cold = run(argv)
    assert code == 0 and cold == _PAIRS_TABLE
    (name,) = os.listdir(tmp_path)
    path = os.path.join(tmp_path, name)
    entry = _edit_entry(path, edit)
    code, out = run(argv)
    assert code == 0 and out == cold and len(calls) == 2
    assert os.path.exists(path + ".corrupt")
    assert [rec.name for rec in caplog.records] == ["hilbcount.cache"]
    # the recomputed table is stored again, and served
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == entry
    assert run(argv) == (0, cold) and len(calls) == 2


def cache_roundtrip(cache_dir, config, payload):
    """Store then reload; returns the reloaded payload."""
    cache.store(cache_dir, config, payload)
    return cache.load(cache_dir, config)


def test_cache_roundtrip_helper(tmp_path):
    payload = "a\n1\n2\n"
    assert cache_roundtrip(str(tmp_path), {"k": "v"}, payload) == payload


# per command, a non-default value of each flag it has beyond the common ones
_OWN_FLAGS = {
    ("count", "rational"): {"M": "1", "M_max": "2", "n": "1"},
    ("count", "pairs"): {"M": "1", "M_max": "2"},
    ("count", "quadratic"): {"M": "1", "M_max": "1"},
    ("cycles",): {"m_max": "3"},
    ("peyre", "pn"): {"n": "3"},
    ("peyre", "hilb2"): {},
    ("peyre", "hilbm"): {"m": "3", "mu": "2", "deg_cut": "10"},
    ("peyre", "cm"): {"m": "3", "mu": "2", "deg_cut": "10"},
    ("verify", "lemmas"): {},
}


# SHA-256 of the JSON list of [argv, exit code, stdout, stderr] of dispatch
# over _help_and_error_argv(): the help that cli._help builds from the
# command and flag tables, and the one error line of each refusal.
HELP_AND_ERRORS_SHA256 = "1141da187bedcaa84c275d8fd94408fba64cb4b97c8902ad253596ed6428d9e4"


def _help_and_error_argv():
    """Help, an unknown flag, a missing value and an extra positional for
    every command, and argv that names no command."""
    argvs = [[], ["--help"], ["count", "--help"], ["peyre"], ["nope", "--q", "3"], ["--q", "3", "cycles"]]
    for key, own in _OWN_FLAGS.items():
        command = list(key)
        flagged = command + ["--q", "3"]
        for name, value in own.items():
            flagged += ["--" + name.replace("_", "-"), value]
        argvs += [command + ["--help"], flagged + ["--nope", "1"], flagged[:-1], flagged + ["extra"]]
    return argvs


def test_help_and_errors_are_pinned():
    """Help exits 0 with the help on stdout, and every other argv here exits
    2 with one error line; both byte for byte as pinned."""
    import hashlib

    outcomes = []
    for argv in _help_and_error_argv():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)
        if "--help" in argv:
            assert (code, err.getvalue()) == (0, "") and out.getvalue().startswith("usage: hilbcount "), argv
        else:
            assert (code, out.getvalue()) == (2, "") and _one_error_line(err.getvalue()), argv
        outcomes.append([argv, code, out.getvalue(), err.getvalue()])
    assert len(outcomes) == 42
    assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == HELP_AND_ERRORS_SHA256


def _one_error_line(err) -> bool:
    return err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


def _oracle(argv):
    """The namespace dict the argparse oracle makes of argv, or its exit
    code, with nothing printed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize("key", list(cli._COMMANDS), ids="-".join)
def test_plain_parse_reads_own_flags(key):
    """Each command's own flags, with every value spaced or after "=", are
    read from the tables, into the namespace the argparse oracle makes of
    them; so are negative values, which argparse takes when they look like
    negative numbers, and any value after "="."""
    assert set(_OWN_FLAGS[key]) == set(cli._COMMANDS[key][1])
    command = list(key)
    spaced = command + ["--q", "3", "--digits", "15"]
    joined = command + ["--q=3", "--digits=15"]
    for name, value in _OWN_FLAGS[key].items():
        flag = "--" + name.replace("_", "-")
        spaced += [flag, value]
        joined += [f"{flag}={value}"]
    negative = command + ["--q", "-3", "--digits=-5", "--cache-dir", "-"]
    for argv in (spaced, joined, negative):
        assert vars(cli._parse(argv)) == _oracle(argv), argv
    if "mu" in _OWN_FLAGS[key]:
        for mu in (["--mu", ""], ["--mu", "-1"], ["--mu=-1/2"], ["--mu=--q"], ["--mu", "-1/2 "], ["--mu", "--x=1 2"]):
            argv = command + ["--q", "3"] + mu
            assert vars(cli._parse(argv)) == _oracle(argv), argv
        # a next token that reads as a flag is no value: both refuse it
        for mu in (["--mu", "-1/2"], ["--mu", "--"], ["--mu", "--q=1 2"], ["--mu", "-h 1"], ["--mu", "-x"]):
            argv = command + ["--q", "3"] + mu
            with pytest.raises(cli.UsageError, match="--mu expects a value"):
                cli._parse(argv)
            assert _oracle(argv) == 2, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "pairs", "--q", "3", "--he"],
        ["count", "pairs", "--q", "3", "-h"],
        ["cycles", "--q", "3", "--help"],
        ["count", "pairs", "--conf", "x.cfg"],
        ["count", "pairs", "--q", "3", "--", "--M", "1"],
        ["count", "pairs", "--q", "-3"],
        ["count", "pairs", "--q=-3"],
        ["count", "pairs", "--mu", ""],
        ["count", "pairs", "--q="],
        ["count", "pairs", "--q", "x"],
        ["count", "pairs", "--format", "xml"],
        ["count", "pairs", "--format=xml"],
        ["count", "pairs", "--plot=1"],
        ["count", "pairs", "--q"],
        ["count", "pairs", "--q", "3", "extra"],
        ["count", "pairs", "--q", "3", "--n", "2"],
        ["peyre", "hilb2", "--q", "3", "--m", "2"],
        ["count", "--q", "3"],
        ["--q", "3", "cycles"],
        ["peyre", "hilbm", "--q", "3", "--deg", "9"],
        ["count", "pairs", "--q", "3", "--M", "1", "--M-m=2"],
    ],
)
def test_plain_parse_leaves_the_rest_to_argparse(argv, capsys):
    """An argv that is not a well-formed call is answered by the table
    parser: with -h or --help where a flag is due, exit 0 and the help of
    the command named; else exit 2, nothing on stdout and one error line,
    from the parser or, for a negative --q that it reads, from the check of
    q.  An abbreviated flag is unknown, and a flag where a command word is
    due leaves the command missing."""
    code, out = run(argv)
    err = capsys.readouterr().err
    if "-h" in argv or "--help" in argv:
        words = tuple(itertools.takewhile(lambda token: not token.startswith("-"), argv))
        assert (code, out, err) == (0, cli._help(words), "")
        assert out.startswith("usage: hilbcount COMMAND ") and f"\n{' '.join(words)}: " in out
    else:
        assert (code, out) == (2, "") and _one_error_line(err), err


def test_a_flag_where_a_command_word_is_due_leaves_it_missing(capsys):
    """A token starting with "-" ends the command path, so the error names
    the words read so far rather than the flag as a command."""
    cases = (
        (["count", "--q", "3"], "hilbcount count"),
        (["--q", "3", "cycles"], "hilbcount"),
        (["peyre", "-"], "hilbcount peyre"),
    )
    for argv, read in cases:
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == f"error: missing command after {read!r}; see hilbcount --help\n"


_SPELLINGS = ["--" + dest.replace("_", "-") for dest in cli._FLAGS]
_GOOD_VALUES = ["1", "2", "3", "12", "1/2"]
_ODD_VALUES = ["-1", "-3", "", "x", " 4", "xml", "--q", "-", "-1/2", "-x y", "--nope=1 2", "--q=1 2"]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_plain_parse_agrees_with_argparse(data):
    """The table parser accepts an argv exactly when the argparse oracle
    does, into the same namespace, and an argv that the oracle refuses exits
    2 from dispatch with one error line.  Abbreviations (refused by both),
    "--", repeated flags, negative, empty, non-int, unlisted and flag-like
    values, and other commands' flags are all drawn.  An argv with a help
    token is left aside: the oracle answers help wherever it meets one, even
    past an unknown flag that it reports only at the end."""
    paths = [list(key) for key in cli._COMMANDS] + [["count"], ["peyre", "nope"], ["nope"], []]
    path = data.draw(st.sampled_from(paths))
    dests = cli._COMMON + cli._COMMANDS[tuple(path)][1] if tuple(path) in cli._COMMANDS else cli._FLAGS
    own = st.sampled_from(["--" + dest.replace("_", "-") for dest in dests])
    exact = st.one_of(own, st.sampled_from(_SPELLINGS))
    abbreviated = exact.flatmap(lambda f: st.integers(3, len(f)).map(lambda n: f[:n]))
    odd = st.sampled_from(["-h", "--help", "--", "-q", "--nope", "extra"])
    flag = st.one_of(exact, exact, abbreviated, odd)
    value = st.sampled_from(_GOOD_VALUES + _ODD_VALUES)
    item = st.one_of(
        st.tuples(exact, st.sampled_from(_GOOD_VALUES)).map(list),
        flag.map(lambda f: [f]),
        st.tuples(flag, value).map(list),
        st.tuples(flag, value).map(lambda fv: ["=".join(fv)]),
    )
    # half the draws give the command only its own flags, so that many are read
    own_value = st.one_of(st.sampled_from(["1", "3", "12"]), value)
    own_item = st.one_of(
        st.tuples(own, own_value).map(list), st.tuples(own, own_value).map(lambda fv: ["=".join(fv)])
    )
    items = st.one_of(st.lists(own_item, max_size=4), st.lists(item, max_size=6))
    argv = path + sum(data.draw(items), [])
    if any(token.startswith(("-h", "--help")) for token in argv):
        return

    oracle = _oracle(argv)
    try:
        parsed = vars(cli._parse(argv))
    except cli.UsageError:
        parsed = 2
    assert parsed == oracle, argv
    if oracle == 2:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(argv) == (2, ""), argv
        assert _one_error_line(err.getvalue()), (argv, err.getvalue())


@pytest.mark.parametrize("key", list(cli._COMMANDS), ids="-".join)
def test_bad_field_size_is_refused_before_the_runner(key, monkeypatch, capsys):
    """q = 0, 1 or 6 exits 2 with one error line and no table, before the
    runner is called: `prime_power` in dispatch is the one check of q that
    every runner relies on."""
    def no_run(args):
        raise AssertionError("the runner was called with a bad q")

    monkeypatch.setitem(cli._COMMANDS, key, (no_run, *cli._COMMANDS[key][1:]))
    argv = list(key)
    for name, value in _OWN_FLAGS[key].items():
        argv += ["--" + name.replace("_", "-"), value]
    for q, message in (
        ("0", "q must be a prime power >= 2"),
        ("1", "q must be a prime power >= 2"),
        ("6", "6 is not a prime power"),
    ):
        assert run(argv + ["--q", q]) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key", list(cli._COMMANDS), ids="-".join)
def test_no_command_writes_outside_its_cache_dir(key, tmp_path, monkeypatch):
    """Run from an empty working directory, a command writes nothing there
    without --cache-dir, and with it only the cache directory gains files.
    Its table has one cell per column in every row, and a hit serves the
    same table without calling the runner."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = list(key) + ["--q", "3"]
    for name, value in _OWN_FLAGS[key].items():
        argv += ["--" + name.replace("_", "-"), value]
    code, out = run(argv)
    assert code == 0
    columns, *rows = (line.split(",") for line in out.splitlines())
    assert rows and all(len(row) == len(columns) for row in rows), out
    assert os.listdir(work) == []
    cached = argv + ["--cache-dir", str(tmp_path / "cache")]
    assert run(cached) == (0, out)
    assert os.listdir(work) == []
    assert sorted(os.listdir(tmp_path)) == ["cache", "work"] and os.listdir(tmp_path / "cache")
    flags, defaults = cli._COMMANDS[key][1:]
    monkeypatch.setitem(cli._COMMANDS, key, (None, flags, defaults))  # a miss would call it
    assert run(cached) == (0, out)
