"""Arrangement files, report envelopes, and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from starconfig.arrangements import random_generic_arrangement
from starconfig.cli import parse_arrangement, parse_field_spec, run
from starconfig.errors import ParseError
from starconfig.fields import GF, QQ

FIXTURES = Path(__file__).parent / "fixtures"
HARTSHORNE = str(FIXTURES / "hartshorne.json")
COORD_PLUS_SUM = str(FIXTURES / "coordinate_plus_sum.json")


def read_report(capsys):
    return json.loads(capsys.readouterr().out)


def test_parse_field_spec_variants():
    for s in ("QQ", "qq", " Qq "):
        assert parse_field_spec(s) == QQ
    for s in ("GF(7)", "gf(7)", "Gf(7)"):
        assert parse_field_spec(s) == GF(7)
    for bad in ("GF(6)", "ZZ", "gf()", "F", "GF(\u00b2)", "rational", "gf:7", "F7", "7"):
        with pytest.raises(ParseError):
            parse_field_spec(bad)
    # reports and the random subcommand spell a field by its repr
    assert repr(GF(101)) == "GF(101)"
    assert repr(QQ) == "QQ"


def test_parse_arrangement_happy_path():
    arr = parse_arrangement(Path(HARTSHORNE).read_text())
    assert arr.n == 6 and arr.field == QQ
    assert arr.ring.names == ("x", "y", "z", "w")


def test_parse_arrangement_diagnostics():
    cases = [
        ("not json at all", "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"field": "QQ"}', '"forms"'),
        ('{"forms": [[1, 0], [1]]}', "mixed lengths"),
        ('{"forms": [[1, "a"]]}', "cannot parse coefficient"),
        ('{"forms": [[1, 0]], "field": "GF(6)"}', "not prime"),
        ('{"forms": [[1, 0]], "variables": ["x"]}', "variable names"),
        ('{"forms": [[true, 1]]}', "not a number"),
    ]
    for text, needle in cases:
        with pytest.raises(ParseError) as exc:
            parse_arrangement(text)
        assert needle in str(exc.value), (text, str(exc.value))


def test_fraction_coefficients_and_field_reduction():
    text = '{"field": "QQ", "forms": [["1/2", 1], [0, 1]]}'
    assert parse_arrangement(text).form(1) == (1, 2)
    over_gf = parse_arrangement(text, GF(7))
    assert over_gf.field == GF(7)
    # 1/2 is 4 mod 7; normalization rescales the form to (1, 2)
    assert over_gf.form(1) == (1, 2)
    with pytest.raises(ParseError, match="denominator divisible by 7"):
        parse_arrangement('{"forms": [["1/7", 1]]}', GF(7))
    # the whole file is checked before any coefficient is converted
    with pytest.raises(ParseError, match="mixed lengths"):
        parse_arrangement('{"forms": [["1/7", 1], [1]]}', GF(7))
    # and the file's own field spec is checked under an override
    with pytest.raises(ParseError, match="not prime"):
        parse_arrangement('{"field": "GF(6)", "forms": [[1, 0]]}', QQ)


def test_report_envelope_shape(capsys):
    assert run(["min-distance", HARTSHORNE]) == 0
    rep = read_report(capsys)
    assert rep["command"] == "min-distance"
    assert rep["field"] == "QQ"
    assert len(rep["input_sha256"]) == 64
    assert rep["results"]["min_distance"] == 2
    assert rep["wall_time_seconds"] >= 0


def test_reports_are_deterministic(capsys):
    run(["height", "--all-j", HARTSHORNE])
    first = read_report(capsys)
    run(["height", "--all-j", HARTSHORNE])
    second = read_report(capsys)
    first.pop("wall_time_seconds")
    second.pop("wall_time_seconds")
    assert first == second


def test_check_generic_exit_codes(capsys):
    assert run(["check-generic", "--s", "2", HARTSHORNE]) == 0
    rep = read_report(capsys)
    assert rep["results"]["is_generic"] is True
    assert run(["check-generic", "--s", "3", HARTSHORNE]) == 1
    rep = read_report(capsys)
    assert rep["results"]["witness"] == [1, 2, 3]


def test_afold_and_min_primes_and_radical(capsys):
    assert run(["afold", "--a", "4", HARTSHORNE]) == 0
    assert read_report(capsys)["results"]["generator_count"] == 15

    assert run(["min-primes", "--j", "2", HARTSHORNE]) == 0
    primes = read_report(capsys)["results"]["primes"]
    assert [p["support"] for p in primes] == [[1, 2, 3], [4, 5, 6]]

    assert run(["radical", "--j", "2", HARTSHORNE]) == 0
    rad = read_report(capsys)["results"]
    assert rad["generator_count"] == 4

    assert run(["height", "--j", "3", HARTSHORNE]) == 0
    assert read_report(capsys)["results"]["height"] == 3


def test_stci_gens_and_verify(capsys):
    assert run(["stci-gens", "--j", "1", COORD_PLUS_SUM]) == 0
    desc = read_report(capsys)["results"]
    assert set(desc) == {"j", "count", "levels", "generators"}
    assert desc["count"] == 2 and desc["levels"][0] == [[2, 3, 4]]

    assert run(["verify", "--j", "1", COORD_PLUS_SUM]) == 0
    rep = read_report(capsys)["results"]
    assert rep["status"] == "holds" and rep["stci"] is True

    assert run(["verify", "--all-j", COORD_PLUS_SUM]) == 0
    reports = read_report(capsys)["results"]["reports"]
    assert [r["j"] for r in reports] == [0, 1]

    # not generic enough: only j = 0 is attempted
    assert run(["verify", "--all-j", HARTSHORNE]) == 0
    reports = read_report(capsys)["results"]["reports"]
    assert [r["j"] for r in reports] == [0]


@pytest.mark.parametrize("mode", ["drop-summand", "swap-form"])
def test_verify_all_j_skips_j_without_the_corruption(capsys, mode):
    # j = 0 has only level 0, so these corruptions are undefined there
    assert run(["verify", "--all-j", "--corrupt", mode, COORD_PLUS_SUM]) == 1
    reports = read_report(capsys)["results"]["reports"]
    assert [r["j"] for r in reports] == [1]
    assert reports[0]["status"] == "fails"
    # only j = 0 is attempted here, so no j is left to verify
    assert run(["verify", "--all-j", "--corrupt", mode, HARTSHORNE]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "needs" in captured.err


def test_verify_corrupt_exits_one(capsys):
    for mode in ("drop-summand", "swap-form", "truncate-tail"):
        assert run(["verify", "--j", "1", "--corrupt", mode, COORD_PLUS_SUM]) == 1
        rep = read_report(capsys)["results"]
        assert rep["status"] == "fails"
        witnesses = [c["witness"] for c in rep["checks"] if c["ok"] is False]
        assert witnesses and all(witnesses)


def test_verify_budget_exits_three(capsys):
    assert run(["verify", "--j", "1", "--budget-seconds", "0", COORD_PLUS_SUM]) == 3
    assert read_report(capsys)["results"]["status"] == "inconclusive"


def test_verify_rejects_nan_and_negative_budgets(capsys):
    for budget in ("nan", "-1"):
        assert run(["verify", "--j", "1", "--budget-seconds", budget, COORD_PLUS_SUM]) == 2
        assert "--budget-seconds" in capsys.readouterr().err
    assert run(["verify", "--j", "1", "--budget-seconds", "inf", COORD_PLUS_SUM]) == 0


LATIN1 = b'{"field": "QQ", "forms": [[1, 0]], "variables": ["\xe9", "y"]}'


def test_input_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(LATIN1)
    assert run(["min-distance", str(path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_stdin_is_read_as_utf8(child_env):
    def child(data):
        cmd = [sys.executable, "-m", "starconfig", "min-distance", "-"]
        return subprocess.run(cmd, input=data, capture_output=True, env=child_env)

    bad = child(LATIN1)
    assert bad.returncode == 2 and b"stdin is not UTF-8" in bad.stderr
    assert b"Traceback" not in bad.stderr
    good = child(Path(HARTSHORNE).read_bytes())
    assert good.returncode == 0
    assert json.loads(good.stdout)["results"]["min_distance"] == 2


def test_repeated_variable_names_exit_two(tmp_path, capsys):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"field": "QQ", "forms": [[1, 0], [0, 1]], "variables": ["x", "x"]}))
    assert run(["min-distance", str(path)]) == 2
    assert "'x'" in capsys.readouterr().err


@pytest.mark.parametrize("names", [["x*y", "z"], ["", "z"], ["1", "2"]])
def test_non_identifier_variable_names_exit_two(tmp_path, capsys, names):
    # x*y times z would print as x*y*z, the same as a product of three variables
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"forms": [[1, 0], [0, 1], [1, 1]], "variables": names}))
    assert run(["afold", "--a", "2", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = next(x for x in names if not x.isidentifier())
    assert f"{bad!r} is not an identifier" in captured.err


def test_verify_mode_accepts_only_both(capsys):
    assert run(["verify", "--j", "1", "--mode", "both", COORD_PLUS_SUM]) == 0
    assert read_report(capsys)["arguments"]["mode"] == "both"
    for mode in ("groebner", "combinatorial"):
        assert run(["verify", "--j", "1", "--mode", mode, COORD_PLUS_SUM]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --mode: invalid choice: '{mode}'" in captured.err


def test_sv_partition_command(capsys):
    assert run(["sv-partition", "--j", "2", HARTSHORNE]) == 0
    rep = read_report(capsys)["results"]
    assert rep["valid"] is True and rep["level_count"] == 3
    assert len(rep["sums"]) == 3

    assert run(["sv-partition", "--all-j", "--check-only", HARTSHORNE]) == 0
    parts = read_report(capsys)["results"]["partitions"]
    assert [p["j"] for p in parts] == list(range(6))
    assert all(p["valid"] for p in parts)
    assert all("sums" not in p for p in parts)


def test_field_override(capsys):
    assert run(["--field", "GF(101)", "min-distance", HARTSHORNE]) == 0
    assert read_report(capsys)["field"] == "GF(101)"
    # flags may come after the subcommand too
    assert run(["min-distance", "--field", "GF(101)", HARTSHORNE]) == 0
    assert read_report(capsys)["field"] == "GF(101)"


def test_random_emits_plain_arrangement_file(capsys):
    for field_args, field in (([], GF(32003)), (["--field", "QQ"], QQ)):
        argv = ["random", "--k", "3", "--n", "5", "--seed", "11", *field_args]
        assert run(argv) == 0
        first = capsys.readouterr().out
        arr = parse_arrangement(first)
        assert arr.field == field and arr.n == 5 and arr.is_s_generic(3)
        # the printed file reads back as the sampled arrangement
        sampled = random_generic_arrangement(3, 5, field, seed=11)
        assert arr.forms == sampled.forms

        assert run(argv) == 0
        assert capsys.readouterr().out == first


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter has no limit on integer digits",
)
def test_integer_past_the_digit_limit_exits_two(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"forms": [[1' + "0" * sys.get_int_max_str_digits() + "]]}")
    assert run(["min-distance", str(path)]) == 2
    assert "cannot decode JSON" in capsys.readouterr().err


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"forms": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert run(["min-distance", str(path)]) == 2
    assert "cannot decode JSON" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys, tmp_path):
    assert run(["min-distance", str(tmp_path / "missing.json")]) == 2
    assert run(["--field", "GF(6)", "min-distance", HARTSHORNE]) == 2
    assert run(["height", "--j", "99", HARTSHORNE]) == 2
    assert run(["stci-gens", "--j", "1", HARTSHORNE]) == 2  # not generic enough
    assert run(["check-generic", HARTSHORNE]) == 2  # missing --s
    assert run(["no-such-command"]) == 2
    bad = tmp_path / "dup.json"
    bad.write_text('{"forms": [[1, 0], [2, 0]]}')
    assert run(["min-distance", str(bad)]) == 2
    capsys.readouterr()


def test_console_script_runs(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "starconfig", "min-distance", HARTSHORNE],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["min_distance"] == 2
