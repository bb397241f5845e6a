"""Arrangement files, report envelopes, and exit codes."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from starconfig import arrangements
from starconfig.arrangements import Arrangement, random_generic_arrangement
from starconfig.cli import _build_parser, parse_arrangement, parse_field_spec, run
from starconfig.errors import ParseError
from starconfig.fields import GF, QQ

from arrangement_helpers import count_products, refuse_flats

FIXTURES = Path(__file__).parent / "fixtures"
HARTSHORNE = str(FIXTURES / "hartshorne.json")
COORD_PLUS_SUM = str(FIXTURES / "coordinate_plus_sum.json")
# the same four forms with a zero last coefficient: rank 3 in 4 variables
COORD_PLUS_SUM_IN_FOUR = str(FIXTURES / "coordinate_plus_sum_in_four_variables.json")
# five 3-generic forms in 3 variables with fraction coefficients
FRACTIONAL = str(FIXTURES / "fractional_five_forms.json")


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


def run_both_coordinates(argv, capsys, monkeypatch):
    """(exit code, report minus wall times, stderr) of one command in
    adapted coordinates, then with the change of variables left out."""

    def outcome():
        code = run(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.out) if captured.out else None
        if report is not None:
            report.pop("wall_time_seconds")
            for rep in report["results"].get("reports", [report["results"]]):
                rep.pop("wall_time_seconds")
        return code, report, captured.err

    adapted = outcome()
    with monkeypatch.context() as m:
        m.setattr(Arrangement, "adapted", lambda self: self)
        return adapted, outcome()


def test_verify_reports_do_not_depend_on_coordinates(capsys, monkeypatch):
    adapted, plain = run_both_coordinates(["verify", "--all-j", HARTSHORNE], capsys, monkeypatch)
    assert adapted == plain and adapted[0] == 0
    adapted, plain = run_both_coordinates(["verify", "--j", "1", HARTSHORNE], capsys, monkeypatch)
    assert adapted == plain
    assert adapted[:2] == (2, None) and "forms [1, 2, 3, 4] are dependent" in adapted[2]


@pytest.mark.parametrize("path", [FRACTIONAL, COORD_PLUS_SUM_IN_FOUR])
def test_verify_adapts_its_coordinates_once(capsys, monkeypatch, path):
    """verify --j 1 takes one rref of the forms written as columns, the
    adapted coordinates, which its genericity test reuses."""
    n = len(json.loads(Path(path).read_text())["forms"])
    rref = arrangements.rref
    widths = []

    def spy(field, matrix):
        widths.append(len(matrix[0]))
        return rref(field, matrix)

    monkeypatch.setattr(arrangements, "rref", spy)
    assert run(["verify", "--j", "1", path]) == 0
    assert read_report(capsys)["results"]["holds"] is True
    assert widths.count(n) == 1


def test_verify_with_rank_below_the_variable_count(capsys, monkeypatch):
    argv = ["verify", "--all-j", COORD_PLUS_SUM_IN_FOUR]
    adapted, plain = run_both_coordinates(argv, capsys, monkeypatch)
    assert adapted == plain and adapted[0] == 0
    reports = adapted[1]["results"]["reports"]
    assert [(r["j"], r["holds"], r["height"]) for r in reports] == [(0, True, 1), (1, True, 2)]


def test_verify_with_fraction_coefficients(capsys, monkeypatch):
    """Denominators reach the kept Rabinowitsch input and the packed
    level sums; verify holds with height j + 1 at every j, in either
    coordinates."""
    argv = ["verify", "--all-j", FRACTIONAL]
    adapted, plain = run_both_coordinates(argv, capsys, monkeypatch)
    assert adapted == plain and adapted[0] == 0
    reports = adapted[1]["results"]["reports"]
    assert [(r["j"], r["holds"], r["height"]) for r in reports] == [(0, True, 1), (1, True, 2)]


def test_shared_parser_keeps_no_flag_between_runs(capsys):
    assert _build_parser() is _build_parser()
    assert run(["--field", "GF(7)", "min-distance", COORD_PLUS_SUM]) == 0
    assert read_report(capsys)["field"] == "GF(7)"
    assert run(["min-distance", COORD_PLUS_SUM]) == 0
    assert read_report(capsys)["field"] == "QQ"


def test_verify_budget_exits_three(capsys):
    assert run(["verify", "--j", "1", "--budget-seconds", "0", COORD_PLUS_SUM]) == 3
    assert read_report(capsys)["results"]["status"] == "inconclusive"


def test_verify_rejects_nan_and_negative_budgets(capsys):
    for budget in ("nan", "-1"):
        assert run(["verify", "--j", "1", "--budget-seconds", budget, COORD_PLUS_SUM]) == 2
        assert "--budget-seconds" in capsys.readouterr().err
    assert run(["verify", "--j", "1", "--budget-seconds", "inf", COORD_PLUS_SUM]) == 0


def test_seed_and_budget_belong_to_random_and_verify(capsys):
    """Only random reads --seed and only verify reads --budget-seconds;
    any other subcommand refuses them rather than ignoring them."""
    assert run(["radical", "--j", "1", "--budget-seconds", "1", HARTSHORNE]) == 2
    assert run(["min-distance", "--seed", "3", HARTSHORNE]) == 2
    assert capsys.readouterr().out == ""
    for argv in (["min-distance", HARTSHORNE], ["verify", "--j", "1", COORD_PLUS_SUM]):
        assert run(argv) == 0
        assert "seed" not in read_report(capsys)


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


DIGESTS = """
import contextlib, io, json, sys
import starconfig.cli
print(json.dumps("_hashlib" in sys.modules))
for path in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        starconfig.cli.run(["min-distance", path])
    print(json.dumps(json.loads(out.getvalue())["input_sha256"]))
"""


def test_input_digest_loads_no_openssl(child_env):
    """In a fresh interpreter, importing the command line loads no
    OpenSSL module, and each fixture's input_sha256 is hashlib's
    SHA-256 of its text."""
    fixtures = sorted(FIXTURES.glob("*.json"))
    proc = subprocess.run(
        [sys.executable, "-c", DIGESTS, *map(str, fixtures)],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, *digests = map(json.loads, proc.stdout.splitlines())
    assert loaded is False
    assert digests == [hashlib.sha256(f.read_text().encode("utf-8")).hexdigest() for f in fixtures]
    assert len(digests) == 4


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


@pytest.mark.parametrize(
    "args", [["--j", "1", COORD_PLUS_SUM], ["--all-j", HARTSHORNE], ["--all-j", FRACTIONAL]]
)
def test_sv_partition_check_only_leaves_out_only_the_sums(capsys, args):
    """--check-only drops each entry's level sums and nothing else: the
    verdict, witness, levels, level count and exit code are those of
    the run without it."""
    code = run(["sv-partition", *args])
    full = read_report(capsys)["results"]
    assert run(["sv-partition", "--check-only", *args]) == code
    checked = read_report(capsys)["results"]
    if "--all-j" in args:
        assert full.keys() == checked.keys() == {"partitions"}
        full, checked = full["partitions"], checked["partitions"]
    else:
        full, checked = [full], [checked]
    assert len(checked) == len(full)
    for entry, short in zip(full, checked):
        assert "sums" in entry and "sums" not in short
        assert short == {key: value for key, value in entry.items() if key != "sums"}


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


def wide_forms():
    """18 forms of rank 16 over GF(32003): the unit rows, all ones, and
    1..16, which are 16-generic."""
    forms = [[int(i == c) for c in range(16)] for i in range(16)]
    return forms + [[1] * 16, [c + 1 for c in range(16)]]


def test_too_many_flats_exit_two(capsys, tmp_path):
    """With the last form replaced by form 1 + form 2, the wide forms
    are not 16-generic, and would take 261,971 subsets of forms to find
    the flats; every subcommand that needs them refuses at once."""
    forms = wide_forms()[:-1] + [[1, 1] + [0] * 14]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"field": "GF(32003)", "forms": forms}))
    for args in (
        ["min-distance"],
        ["height", "--all-j"],
        ["verify", "--j", "1"],
        ["verify", "--all-j"],
    ):
        assert run(args + [str(path)]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "" and "261971 subsets" in captured.err, args
        assert "limit of 100000" in captured.err


def test_generic_input_past_the_flat_limit_answers(capsys, tmp_path):
    """Generic input needs C(18, 16) - 1 = 152 minors and no flats."""
    assert run(["random", "--k", "16", "--n", "18", "--seed", "0"]) == 0
    sampled = tmp_path / "sampled.json"
    sampled.write_text(capsys.readouterr().out)
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"field": "GF(32003)", "forms": wide_forms()}))
    for path in (sampled, wide):
        assert run(["min-distance", str(path)]) == 0
        assert read_report(capsys)["results"] == {"min_distance": 3, "n": 18, "rank": 16}


def test_genericity_off_the_rank_needs_no_flats(capsys, monkeypatch, tmp_path):
    """18 sampled forms of rank 16, whose flats would take 261,971
    subsets: any 15 of them are independent, and the first 17 are
    dependent, as any 17 are."""
    refuse_flats(monkeypatch)
    assert run(["random", "--k", "16", "--n", "18", "--seed", "0"]) == 0
    sampled = tmp_path / "sampled.json"
    sampled.write_text(capsys.readouterr().out)
    assert run(["check-generic", "--s", "15", str(sampled)]) == 0
    assert read_report(capsys)["results"] == {"s": 15, "is_generic": True, "witness": None}
    assert run(["check-generic", "--s", "17", str(sampled)]) == 1
    assert read_report(capsys)["results"]["witness"] == list(range(1, 18))
    assert run(["check-generic", "--s", "19", str(sampled)]) == 0


def test_j_zero_needs_no_flats(capsys, monkeypatch):
    """The Hartshorne forms are not 3-generic, yet at j = 0 the height
    is 1, the minimal primes are the six forms and verify holds."""
    refuse_flats(monkeypatch)
    assert run(["height", "--j", "0", HARTSHORNE]) == 0
    assert read_report(capsys)["results"] == {"j": 0, "height": 1}
    assert run(["min-primes", "--j", "0", HARTSHORNE]) == 0
    primes = read_report(capsys)["results"]["primes"]
    assert primes == [
        {"generators": [g], "height": 1, "support": [i]}
        for i, g in enumerate(["x", "y", "x + y", "z", "w", "z + w"], 1)
    ]
    assert run(["verify", "--j", "0", HARTSHORNE]) == 0
    rep = read_report(capsys)["results"]
    assert rep["status"] == "holds" and rep["height"] == 1


@pytest.mark.parametrize("field, k, n", [("GF(32003)", 4, 7), ("QQ", 3, 6)])
def test_generic_input_builds_no_flats(capsys, monkeypatch, tmp_path, field, k, n):
    """On a sampled generic arrangement the minors answer every query
    that the flats would, so no subcommand builds them."""
    refuse_flats(monkeypatch)
    assert run(["random", "--k", str(k), "--n", str(n), "--seed", "0", "--field", field]) == 0
    path = tmp_path / "generic.json"
    path.write_text(capsys.readouterr().out)
    for args in (
        ["verify", "--all-j"],
        ["stci-gens", "--j", "1"],
        ["check-generic", "--s", str(k)],
        *(["min-primes", "--j", str(j)] for j in range(n)),
        ["height", "--all-j"],
        ["min-distance"],
        ["radical", "--j", "1"],
    ):
        assert run(args + [str(path)]) == 0, args
        assert read_report(capsys)["field"] == field


def test_minors_have_their_own_limit(capsys, monkeypatch, tmp_path):
    """Seven generic forms of rank 4 take C(7, 4) - 1 = 34 minors, and
    their flats 7 + 21 + 35 = 63 subsets.  With the flats limited to 10
    subsets and the minors to 34, the minors answer alone; at 33 minors
    the queries fall back to the flats, which refuse."""
    arr = random_generic_arrangement(4, 7, GF(32003), seed=0)
    path = tmp_path / "generic.json"
    path.write_text(json.dumps({"field": "GF(32003)", "forms": [list(r) for r in arr.forms]}))
    monkeypatch.setattr(arrangements, "MAX_FLAT_SUBSETS", 10)
    monkeypatch.setattr(arrangements, "MAX_MINORS", 34)
    with monkeypatch.context() as m:
        refuse_flats(m)
        assert run(["min-distance", str(path)]) == 0
        assert read_report(capsys)["results"] == {"min_distance": 4, "n": 7, "rank": 4}
        assert run(["check-generic", "--s", "4", str(path)]) == 0
        assert read_report(capsys)["results"] == {"s": 4, "is_generic": True, "witness": None}
    monkeypatch.setattr(arrangements, "MAX_MINORS", 33)
    for args in (["min-distance"], ["check-generic", "--s", "4"]):
        assert run([*args, str(path)]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "" and "need 63 subsets" in captured.err
        assert "limit of 10" in captured.err


def test_verify_refuses_the_flats_before_expanding(capsys, monkeypatch, tmp_path):
    """Four forms of rank 3 with form 4 = form 1 + form 2 take 4 + 6 =
    10 subsets to find the flats; past a limit of 9, verify refuses at
    any j >= 1 before it expands any product.  j = 0 needs no flats."""
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps({"field": "QQ", "forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]}))
    monkeypatch.setattr(arrangements, "MAX_FLAT_SUBSETS", 9)
    calls = count_products(monkeypatch)
    for args in (["--j", "1"], ["--all-j"]):
        assert run(["verify", *args, str(path)]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "" and "need 10 subsets" in captured.err
        assert "limit of 9" in captured.err
    assert calls == []
    assert run(["verify", "--j", "0", str(path)]) == 0
    assert read_report(capsys)["results"]["status"] == "holds"


def test_product_too_large_to_expand_exits_two(capsys, monkeypatch, tmp_path):
    """Six general forms in 4 variables may have C(9, 3) = 84 terms; in
    adapted coordinates four of them are variables, which only shift
    exponents, so verify bounds C(5, 3) = 10 and still runs."""
    arr = random_generic_arrangement(4, 6, GF(32003), seed=0)
    path = tmp_path / "general.json"
    path.write_text(json.dumps({"field": "GF(32003)", "forms": [list(r) for r in arr.forms]}))
    monkeypatch.setattr(arrangements, "MAX_PRODUCT_TERMS", 84)
    assert run(["stci-gens", "--j", "0", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(arrangements, "MAX_PRODUCT_TERMS", 83)
    for args in (["stci-gens", "--j", "0"], ["sv-partition", "--j", "0"]):
        assert run([*args, str(path)]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "" and "may have 84 terms" in captured.err
        assert "limit of 83" in captured.err
    monkeypatch.setattr(arrangements, "MAX_PRODUCT_TERMS", 10)
    assert run(["verify", "--j", "0", str(path)]) == 0
    assert read_report(capsys)["results"]["status"] == "holds"


def test_console_script_runs(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "starconfig", "min-distance", HARTSHORNE],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["min_distance"] == 2


def test_closed_stdout_pipe_exits_two(child_env, tmp_path):
    """A reader that stops early, like `| head -c 10`, closes the pipe
    while the 88 KB report is still being written, more than a pipe
    buffer holds: exit 2 with a one-line error, not a traceback."""
    big = tmp_path / "big.json"
    starconfig = [sys.executable, "-m", "starconfig"]
    sampled = subprocess.run(
        starconfig + ["random", "--k", "4", "--n", "9", "--seed", "0"],
        capture_output=True,
        env=child_env,
    )
    big.write_bytes(sampled.stdout)
    proc = subprocess.Popen(
        starconfig + ["sv-partition", "--all-j", str(big)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env,
    )
    assert proc.stdout.read(10) == b'{\n  "argum'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 2
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert err == "error: stdout was closed before the report was written\n"
