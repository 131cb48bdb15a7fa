"""Tests for the command-line interface.

Everything goes through ``main(argv)`` with captured stdout/stderr.
``golden_cli.json`` pins the exit code and the sha256 of stdout of fixed
command lines, one entry per line; CI runs the same entries through the
installed ``spinchi``.  To change an output on purpose, replace its line
with the one that ``test_golden_output`` prints on the mismatch.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from spinchi import cli, euler, exactq, ggroups, profinite, qforms
from spinchi.cli import main
from spinchi.euler import chi_closed
from spinchi.exactq import FactoredInteger, PiExact, ResidualPiPowerError, zeta_even_exact


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_golden_output(capsys, entry):
    # stderr stays empty exactly when the command succeeds
    code, out, err = run(capsys, *entry["argv"])
    got = {"argv": entry["argv"], "exit": code,
           "sha256": hashlib.sha256(out.encode()).hexdigest()}
    assert got == entry, f"new entry: {json.dumps(got)}"
    assert (err == "") == (code == 0), err


def test_chi_json_record(capsys):
    code, out, _ = run(capsys, "chi", "8", "2")
    assert code == 0
    record = json.loads(out)
    assert record["m"] == 8 and record["n"] == 2
    assert record["d"] == 10 and record["dimX"] == 16
    assert record["delta"] == 0
    assert record["chi"] == "2^89 * 5^2 * 17"
    assert record["chi_rational"] == str(2 ** 89 * 25 * 17)
    assert record["sign"] == 1
    assert record["case"] == "2mod4"
    assert record["l2"]["betti_degree"] == 8
    assert record["l2"]["betti_value"] == str(2 ** 89 * 25 * 17)
    assert record["l2"]["ns_range"] is None
    assert record["l2"]["ns_value"] == "inf+"
    assert record["l2"]["torsion_sign"] == 0


def test_chi_vanishing_record(capsys):
    code, out, _ = run(capsys, "chi", "3", "3")
    assert code == 0
    record = json.loads(out)
    assert record["chi"] == "0"
    assert record["sign"] == 0
    assert record["case"] == "zero"
    assert record["l2"]["betti_degree"] is None
    assert record["l2"]["ns_range"] == [4, 4]
    assert record["l2"]["ns_value"] == 1
    assert record["l2"]["torsion_sign"] == 1


def test_chi_factored_frontier(capsys, parse_factored):
    code, out, _ = run(capsys, "chi", "48", "2", "--factored")
    assert code == 0
    sign, num, den = parse_factored(out)
    assert not den
    assert sign * math.prod(p ** e for p, e in num) == chi_closed(48, 2).value


def test_chi_pretty_is_indented_json(capsys):
    code, out, _ = run(capsys, "chi", "2", "1", "--pretty")
    assert code == 0
    assert "\n  " in out
    assert json.loads(out)["chi"] == "-2^3"


def test_profile_command(capsys):
    code, out, _ = run(capsys, "profile", "5", "5")
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"m", "n", "dimX", "delta", "l2"}
    assert record["delta"] == 1
    assert record["l2"]["ns_range"] == [12, 12]


def test_compare_equivalent_pair(capsys):
    code, out, _ = run(capsys, "compare", "8", "2", "4", "6")
    assert code == 0
    record = json.loads(out)
    assert record["locally_equivalent"] is True
    assert record["witness"] == "all p <= 100 pass"
    assert record["verdict"] == "profinitely commensurable"
    assert record["first"]["chi"] == "2^89 * 5^2 * 17"
    assert record["second"]["chi"] == "2^90 * 5^2 * 17"
    assert record["first"]["sign"] == record["second"]["sign"] == 1


def test_compare_inequivalent_pair(capsys):
    code, out, _ = run(capsys, "compare", "8", "2", "9", "1")
    assert code == 0
    record = json.loads(out)
    assert record["locally_equivalent"] is False
    assert record["witness"] == "p=3"
    assert record["verdict"] == "not locally equivalent"


def test_table_csv_row_count(capsys):
    code, out, _ = run(capsys, "table", "--csv", "--d-max", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,d,dimX,delta,chi,chi_rational,sign,case"
    assert len(lines) == 1 + sum(d - 1 for d in range(3, 11))  # 44 data rows
    assert len(lines) == 45
    row82 = next(line for line in lines if line.startswith("8,2,"))
    assert "2^89 * 5^2 * 17" in row82


def test_table_pretty_columns_are_aligned_csv_cells(capsys):
    _, csv, _ = run(capsys, "table", "--d-max", "8", "--csv")
    code, out, _ = run(capsys, "table", "--d-max", "8", "--pretty")
    assert code == 0
    header, *rows = out.rstrip("\n").split("\n")
    csv_header, *csv_rows = csv.strip().splitlines()
    fields = header.split()
    assert fields == csv_header.split(",")
    starts = []
    for f in fields:
        starts.append(header.index(f, starts[-1] + 1 if starts else 0))
    ends = [s - 2 for s in starts[1:]] + [len(header)]
    assert len(rows) == len(csv_rows)
    for line, csv_row in zip(rows, csv_rows):
        assert len(line) == len(header), line
        cells = csv_row.split(",")
        for start, end, cell in zip(starts, ends, cells):
            assert line[start:end] == cell.ljust(end - start), (line, cell)
        assert all(line[end:end + 2] == "  " for end in ends[:-1]), line
    for i, (start, end) in enumerate(zip(starts, ends)):  # widths are tight
        assert end - start == max(len(fields[i]), *(len(r.split(",")[i]) for r in csv_rows))


def test_table_json_lines(capsys):
    code, out, _ = run(capsys, "table", "--d-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 + 3
    for line in lines:
        record = json.loads(line)
        assert record["d"] in (3, 4)


def test_table_json_computes_chi_once_per_row(capsys, monkeypatch):
    # the l2 object reuses the row's EulerResult and chi_rational string:
    # one chi_closed and one decimal_str per row, and betti_value is |chi|
    calls = {"chi_closed": 0, "decimal_str": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(euler, "chi_closed")
    counted(exactq, "decimal_str")
    code, out, _ = run(capsys, "table", "--d-max", "12")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == sum(d - 1 for d in range(3, 13))
    assert calls == {"chi_closed": len(lines), "decimal_str": len(lines)}
    for line in lines:
        record = json.loads(line)
        assert record["l2"]["betti_value"] == record["chi_rational"].lstrip("-")
        assert record["l2"]["betti_degree"] == (record["dimX"] // 2 if record["delta"] == 0 else None)


def test_witt_command_is_linear_and_never_factors(capsys):
    # The Hasse invariant of b(2000,1) is one pass over its entries, and
    # the second form's first entry is A_69's 41-digit cofactor, which no
    # local computation may try to factor.
    cases = (("b(2000,1)", {"witt": 1000, "aniso_dim": 1}),
             ("62467624025782717275851531008059486003491,1,-1",
              {"witt": 1, "aniso_dim": 1}))
    for form, want in cases:
        start = time.perf_counter()
        code, out, _ = run(capsys, "witt", form, "3")
        elapsed = time.perf_counter() - start
        assert code == 0 and json.loads(out) == want, form
        assert elapsed < 2.0, (form, elapsed)


def test_chi_views_sign_and_profile_never_factor(capsys, monkeypatch):
    # Only chi's factored string factors: value, sign, case, the L2 profile,
    # both sweeps and the sign and profile commands read the ledger unfactored.
    def refuse(n):
        raise AssertionError(f"FactoredInteger.of({n}) called")

    monkeypatch.setattr(FactoredInteger, "of", refuse)
    for d in range(3, 101):
        for m in range(1, d):
            res = chi_closed(m, d - m)
            assert res.value == res.lead * res.dimension.value
            assert (res.sign == 0) == (res.case == "zero")
            assert euler.l2_profile(m, d - m).betti_value == abs(res.value)
        for m in (1, 2, d // 2, d - 2):
            for command in ("sign", "profile"):
                assert run(capsys, command, str(m), str(d - m))[0] == 0
    profinite.sweep_theorem_frank_dim(20)
    profinite.sweep_euler_not_profinite(20)


def test_profile_past_the_decimal_digit_limit(capsys):
    # chi(86, 2) has more than 4300 decimal digits.
    start = time.perf_counter()
    code, out, _ = run(capsys, "profile", "86", "2")
    assert code == 0 and time.perf_counter() - start < 5.0
    betti = json.loads(out)["l2"]["betti_value"]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = str(abs(chi_closed(86, 2).value))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > 4300 and betti == want


def _zeta_6_doubled(j):
    return zeta_even_exact(j) * (2 if j == 3 else 1)


def _zeta_6_over_3(j):
    return zeta_even_exact(j) * Fraction(1, 3 if j == 3 else 1)


def _zeta_6_with_half_pi(j):
    value = zeta_even_exact(j)
    return PiExact(value.coeff, value.half_pi_power + (j == 3))


_DISAGREEING = {  # id: (what is patched, a stub that disagrees, its suite, how verify reports it)
    "gen_bernoulli_mod4": ("spinchi.exactq.gen_bernoulli_mod4", lambda ell: Fraction(1), "exactq",
                           "FAIL exactq: L identity failed at ell=1"),
    "product_coefficient": ("spinchi.oracles.product_coefficient", lambda x, y, b: None,
                            "clifford", "FAIL clifford: dense product over "),
    "hasse_pairwise": ("spinchi.oracles.hasse_pairwise", lambda entries, v: 0, "oracles",
                       "FAIL oracles: Hasse invariant of <"),
    "witt_index_peel": ("spinchi.oracles.witt_index_peel", lambda entries, v: -1, "oracles",
                        "FAIL oracles: Witt index of <"),
    "qp_equivalent_pairwise": ("spinchi.oracles.qp_equivalent_pairwise", lambda f, g, v: None,
                               "oracles", "FAIL oracles: equivalence of <"),
    "adelic_assembly_float": ("spinchi.euler.adelic_assembly_float", lambda m, n: 0.0, "adelic",
                              "FAIL adelic: float Euler product off at (1,2): 0.0"),
    # zeta(6) first feeds the pair degree 6 at (1,6)
    "zeta_6_doubled": ("spinchi.euler.zeta_even_exact", _zeta_6_doubled, "adelic",
                       "FAIL adelic: ledger row of degree 6 at (1,6): 1/128, not 1/256"),
    "zeta_6_with_half_pi": ("spinchi.euler.zeta_even_exact", _zeta_6_with_half_pi, "adelic",
                            "internal invariant failure: degree 6 leaves pi^(1/2)\n"),
    "zeta_6_over_3": ("spinchi.euler.zeta_even_exact", _zeta_6_over_3, "adelic",
                      "internal invariant failure: degree 6 leaves 1/768, "
                      "not an integer over a power of 2\n"),
}


@pytest.mark.parametrize("target, stub, suite, report", list(_DISAGREEING.values()),
                         ids=list(_DISAGREEING))
def test_verify_reports_a_failed_check(capsys, monkeypatch, cold_ledger,
                                      target, stub, suite, report):
    # A failed check prints a FAIL line; an internal invariant failure
    # prints nothing on stdout and its message on stderr.  Both exit 3.
    monkeypatch.setattr(target, stub)
    code, out, err = run(capsys, "verify", suite)
    assert code == 3
    assert out.startswith(report) if out else err == report, (out, err)


def test_internal_invariant_failure_exits_3(capsys, monkeypatch):
    def residual(m, n):
        raise ResidualPiPowerError("pi^1 left over")
    monkeypatch.setattr(cli.euler_mod, "adelic_assembly_exact", residual)
    code, out, err = run(capsys, "verify", "adelic")
    assert code == 3
    assert out == ""
    assert err == "internal invariant failure: pi^1 left over\n"


def test_domain_errors_exit_2(capsys):
    code, _, err = run(capsys, "chi", "0", "3")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "witt", "1,0", "2")
    assert code == 2
    code, _, err = run(capsys, "witt", "b(2,1)", "15")
    assert code == 2
    code, _, err = run(capsys, "witt", "b(3)", "3")
    assert (code, err) == (2, "error: expected b(m,n) with two integers, not 'b(3)'\n")
    code, _, err = run(capsys, "witt", "b(99999999999999999999,1)", "3")
    assert code == 2
    assert "m + n <= 100000" in err
    code, _, err = run(capsys, "table", "--d-max", "2")
    assert code == 2
    code, out, err = run(capsys, "compare", "100000", "2", "100000", "2")
    assert (code, out) == (2, "")
    assert "m + n <= 100000" in err
    code, _, err = run(capsys, "compare", "8", "2", "4", "6", "--prime-bound", "50")
    assert code == 2
    assert "--prime-bound" in err


def test_closed_stdout_exits_1_without_a_traceback():
    # As in `spinchi ... | head`: the reader closes the pipe before the
    # output is written, during a print (table) or at the final flush (chi).
    # stdout is block-buffered, as in a shell pipeline, so a buffer is left
    # over for the interpreter's last flush.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    env.pop("PYTHONUNBUFFERED", None)
    # table streams its rows: at d_max = 100 it would otherwise build every row,
    # through the factoring wall at d >= 71, before printing the first
    for argv in (["table", "--d-max", "40", "--csv"], ["table", "--d-max", "100", "--csv"],
                 ["chi", "8", "2"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "spinchi.cli", *argv], env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b""), argv


def test_memo_caches_are_bounded(capsys):
    # The per-value caches of the local, adelic and closed layers never grow
    # past their maxsize, however many forms and signatures a process sees.
    assert main(["verify", "oracles"]) == 0 and main(["verify", "adelic"]) == 0
    assert main(["chi", "40", "2", "--factored"]) == 0
    capsys.readouterr()
    for cache in (qforms._key, qforms._prime_divisors, qforms._place,
                  euler._ledger_entry, euler._prefix, euler._dual_factor,
                  ggroups.vol_compact_dual, euler._odd_primes, euler._degree_log_sum,
                  euler._tangent_prefix, euler._dimension_part, euler._zigzag_factored,
                  exactq.bernoulli, exactq._zigzag_block):
        info = cache.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize, info


def test_adelic_float_cli_free_of_rounding(capsys):
    # exact values in the JSON are strings end to end: chi above 2^53,
    # where a float would round, comes back digit for digit
    code, out, _ = run(capsys, "chi", "26", "2")
    record = json.loads(out)
    value = chi_closed(26, 2).value
    assert code == 0 and abs(value) > 2 ** 53
    assert record["chi_rational"] == str(value)
    assert record["l2"]["betti_value"] == record["chi_rational"].lstrip("-")
