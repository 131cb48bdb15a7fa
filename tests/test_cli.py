"""Tests for the command-line interface.

Everything goes through ``main(argv)`` with captured stdout/stderr, so
the exit codes and the exact JSON/CSV shapes are pinned down.
"""
from __future__ import annotations

import json
import math

from spinchi.cli import main
from spinchi.euler import chi_closed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_chi_factored_flag(capsys):
    code, out, _ = run(capsys, "chi", "4", "6", "--factored")
    assert code == 0
    assert out.strip() == "2^90 * 5^2 * 17"


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


def test_sign_command(capsys):
    code, out, _ = run(capsys, "sign", "2", "1")
    assert code == 0
    assert json.loads(out) == {"m": 2, "n": 1, "sign": -1}


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


def test_table_json_lines(capsys):
    code, out, _ = run(capsys, "table", "--d-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 + 3
    for line in lines:
        record = json.loads(line)
        assert record["d"] in (3, 4)


def test_witt_command(capsys):
    code, out, _ = run(capsys, "witt", "b(4,1)", "2")
    assert code == 0
    assert json.loads(out) == {"witt": 1, "aniso_dim": 3}
    code, out, _ = run(capsys, "witt", "b(2,3)", "2")
    assert json.loads(out) == {"witt": 2, "aniso_dim": 1}
    code, out, _ = run(capsys, "witt", "1,1,-1", "oo")
    assert json.loads(out) == {"witt": 1, "aniso_dim": 1}


def test_srank_command(capsys):
    code, out, _ = run(capsys, "srank", "4", "1", "2")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "m": 4, "n": 1, "S": [2],
        "witt": {"oo": 1, "2": 1},
        "rank_S": 2, "rank_Q": 1,
        "sign": -1, "ep_vanishes": False,
    }
    code, out, _ = run(capsys, "srank", "2", "3", "2")
    record = json.loads(out)
    assert record["rank_S"] == 4 and record["sign"] == -1


def test_srank_odd_dimension(capsys):
    code, out, _ = run(capsys, "srank", "3", "3")
    assert code == 0
    record = json.loads(out)
    assert record["sign"] == 0 and record["ep_vanishes"] is True


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["PASS exactq", "PASS clifford", "PASS oracles", "PASS adelic"]


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "exactq")
    assert code == 0
    assert out.strip() == "PASS exactq"


def test_domain_errors_exit_2(capsys):
    code, _, err = run(capsys, "chi", "0", "3")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "witt", "1,0", "2")
    assert code == 2
    code, _, err = run(capsys, "witt", "b(2,1)", "15")
    assert code == 2
    code, _, err = run(capsys, "table", "--d-max", "2")
    assert code == 2


def test_argparse_errors_exit_2(capsys):
    assert run(capsys, "chi", "8")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2


def test_adelic_float_cli_free_of_rounding():
    # exact values in the JSON are strings end to end; make sure json
    # round-trips the big chi values losslessly
    record = json.loads(json.dumps({"chi_rational": str(2 ** 89 * 25 * 17)}))
    assert int(record["chi_rational"]) == 2 ** 89 * 25 * 17
