"""CLI: commands, exit codes, deterministic report bytes."""

import argparse
import hashlib
import json
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blowups import blown_up_fans, star_subdivision
from oklab import cli, inequalities, okounkov, verify
from oklab.cli import CATALOG_ENV, main
from oklab.exactgeom import Polytope
from oklab.toric import NumClassSpace, testbed, testbed_names


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subcommand_parsers():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_body_p1_segment(capsys):
    code, out, _ = run(capsys, "body", "--testbed", "p1", "--class", "3")
    assert code == 0
    report = json.loads(out)
    body = report["checks"][0]["body"]
    assert body["vertices"] == [[[0, 1]], [[3, 1]]]
    assert body["exact"] is True


def test_body_p2_simplex(capsys):
    code, out, _ = run(capsys, "body", "--testbed", "p2",
                       "--class", "1,0,0", "--flag", "cone:1,2")
    assert code == 0
    body = json.loads(out)["checks"][0]["body"]
    assert body["vertices"] == [[[0, 1], [0, 1]], [[0, 1], [1, 1]], [[1, 1], [0, 1]]]


def test_body_non_big_is_config_error(capsys):
    code, _, err = run(capsys, "body", "--testbed", "p1xp1",
                       "--class", "0,0,0,0")
    assert code == 2 and "not big" in err


def test_unknown_testbed(capsys):
    code, _, err = run(capsys, "body", "--testbed", "nope", "--class", "1")
    assert code == 2 and "unknown testbed" in err


def test_bad_flag_syntax(capsys):
    code, _, err = run(capsys, "body", "--testbed", "p2", "--class", "1,0,0",
                       "--flag", "cone:one,two")
    assert code == 2


def test_mu_command(capsys):
    code, out, _ = run(capsys, "mu", "--testbed", "p1xp1",
                       "--class", "0,2,0,3", "--flag", "cone:0,2")
    assert code == 0
    assert json.loads(out)["checks"][0]["mu"] == [2, 1]


def test_intersect_command(capsys):
    code, out, _ = run(capsys, "intersect", "--testbed", "p1xp1",
                       "--classes", "0,1,0,1;0,1,0,1")
    assert code == 0
    assert json.loads(out)["checks"][0]["value"] == [2, 1]


def test_negative_leading_coefficient_needs_no_equals_sign(capsys):
    spaced = run(capsys, "mu", "--testbed", "p2", "--class", "-1,2,0",
                 "--flag", "cone:1,2")
    joined = run(capsys, "mu", "--testbed", "p2", "--class=-1,2,0",
                 "--flag", "cone:1,2")
    assert spaced == joined and spaced[0] == 0


def test_intersect_accepts_negative_leading_coefficient(capsys):
    code, out, _ = run(capsys, "intersect", "--testbed", "p2",
                       "--classes", "-1,2,0;1,0,0")
    assert code == 0
    assert json.loads(out)["checks"][0]["value"] == [1, 1]


def test_intersect_rejects_non_nef(capsys):
    code, _, err = run(capsys, "intersect", "--testbed", "f1",
                       "--classes", "0,1,0,0;0,1,0,0")
    assert code == 2


def test_mixedvol_command(capsys):
    bodies = "[[[0,0],[1,0],[0,1],[1,1]],[[0,0],[[2,1],0],[0,2],[2,2]]]"
    code, out, _ = run(capsys, "mixedvol", "--bodies", bodies)
    assert code == 0
    assert json.loads(out)["checks"][0]["value"] == [2, 1]


def test_mixedvol_budgets_no_sum_for_the_facet_route(capsys):
    # 400 x 400 vertex sums would be over the budget, but V(K, L) in the
    # plane reads L's facets and K's support function and forms no sum
    parabola = [[t, t * t] for t in range(400)]
    bodies = [[[2 * x, 2 * y] for x, y in parabola], parabola]
    code, out, _ = run(capsys, "mixedvol", "--bodies", json.dumps(bodies))
    area = Polytope.hull(parabola).volume()
    assert code == 0
    assert json.loads(out)["checks"][0]["value"] == [(2 * area).numerator, (2 * area).denominator]


def test_verify_suite_exit_zero_and_deterministic(capsys):
    args = ("verify", "--suite", "cor13", "--testbed", "p2", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for identical (config, seed)
    report = json.loads(out1)
    assert report["summary"]["failed"] == 0
    assert report["config"]["seed"] == 7


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cor13",
                       "--testbed", "p2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("key,suite,testbed,pass")
    assert all("pass" in line for line in lines[1:])
    # rationals render as num/den strings, never as decimal floats
    import re

    assert not any(re.search(r"\d\.\d", line) for line in lines)


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus"])


def test_verify_suite_choices_are_the_suite_table_and_all():
    suite = next(a for a in _subcommand_parsers()["verify"]._actions if a.dest == "suite")
    assert list(suite.choices) == [*verify.SUITES, "all"]
    assert list(verify.SUITES) == ["additivity", "slices", "replay", "prop14",
                                   "cor13", "lemma61", "cor15", "lx"]


def test_run_config_defaults_are_the_acceptance_runs():
    config, other = verify.RunConfig(), verify.RunConfig()
    assert list(config.fans) == testbed_names()
    assert all(fan is testbed(name) for name, fan in config.fans.items())
    assert (config.grid_den, config.seed) == (12, 2024)
    assert config.fans is not other.fans and config.fans == other.fans


def test_search_strict_none_on_p2(capsys):
    code, out, _ = run(capsys, "search-strict", "--testbed", "p2", "--bound", "3")
    assert code == 0
    rec = json.loads(out)["checks"][0]
    assert rec["outcome"] == "none-found-within-bounds"
    assert rec["pairs_checked"] > 0


def test_search_strict_blpq_flagged(capsys):
    code, out, _ = run(capsys, "search-strict", "--testbed", "blpq-p2",
                       "--flag", "cone:3,0", "--bound", "4")
    assert code == 0
    rec = json.loads(out)["checks"][0]
    assert rec["outcome"] in ("strict", "none-found-within-bounds")
    if rec["outcome"] == "strict":
        assert "witness" in rec


def test_report_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "mu", "--testbed", "p2", "--class", "2,0,0",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["checks"][0]["mu"] == [2, 1]


def test_catalog_dir_extends_testbeds(tmp_path, capsys):
    spec = {"name": "quadric2", "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
            "max_cones": [[0, 2], [1, 2], [1, 3], [0, 3]]}
    (tmp_path / "q.json").write_text(json.dumps(spec))
    code, out, _ = run(capsys, "body", "--testbed", "quadric2",
                       "--class", "0,1,0,2", "--catalog", str(tmp_path))
    assert code == 0
    assert json.loads(out)["checks"][0]["body"]["exact"] is True


def test_verify_auto_config_for_catalog_testbed(tmp_path, capsys):
    spec = {"name": "quadric4", "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
            "max_cones": [[0, 2], [1, 2], [1, 3], [0, 3]]}
    (tmp_path / "q.json").write_text(json.dumps(spec))
    code, out, _ = run(capsys, "verify", "--suite", "additivity",
                       "--testbed", "quadric4", "--catalog", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["total"] > 0 and report["summary"]["failed"] == 0


def test_each_call_reads_the_catalog_environment_as_it_is(tmp_path, capsys, monkeypatch):
    # the parser is built once per process, so no call may keep an earlier
    # call's $OKLAB_CATALOG
    spec = {"name": "quadric5", "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
            "max_cones": [[0, 2], [1, 2], [1, 3], [0, 3]]}
    (tmp_path / "q.json").write_text(json.dumps(spec))
    argv = ("intersect", "--testbed", "quadric5", "--classes", "1,0,1,0;1,0,1,0")
    monkeypatch.delenv(CATALOG_ENV, raising=False)
    code, _, err = run(capsys, *argv)
    assert code == 2 and "unknown testbed" in err
    monkeypatch.setenv(CATALOG_ENV, str(tmp_path))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["checks"][0]["value"] == [2, 1]
    code, _, err = run(capsys, *argv, "--catalog", "")  # an empty --catalog: none
    assert code == 2 and "unknown testbed" in err
    monkeypatch.setenv(CATALOG_ENV, str(tmp_path / "missing"))
    code, _, err = run(capsys, *argv)
    assert code == 2 and "bad catalog" in err and "missing" in err
    assert run(capsys, *argv, "--catalog", str(tmp_path))[0] == 0
    monkeypatch.delenv(CATALOG_ENV)
    code, _, err = run(capsys, *argv)
    assert code == 2 and "unknown testbed" in err


def test_main_builds_the_parser_once_per_process(capsys, monkeypatch):
    # each named command's own parser once, the full parser only for argv
    # that names no command
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    try:
        for argv in (["mu", "--testbed", "p2", "--class", "2,0,0"],
                     ["intersect", "--testbed", "p2", "--classes", "1,0,0;1,0,0"],
                     ["mixedvol", "--bodies", "[[[0],[2]]]"],
                     ["body", "--testbed", "nope", "--class", "1"]) * 3:
            run(capsys, *argv)
        assert built == ["oklab mu", "oklab intersect", "oklab mixedvol", "oklab body"]
        for argv in (["--version"], ["nope"]):
            with pytest.raises(SystemExit):
                main(argv)
    finally:
        cli.build_parser.cache_clear()
    assert built.count("oklab") == 1


def test_each_command_parser_is_its_subcommand():
    # the same help bytes, and the same namespace for the same argv
    for name, sub in _subcommand_parsers().items():
        assert cli.build_parser(name).format_help() == sub.format_help()
    assert cli.build_parser("nope") is None
    for argv in (["body", "--testbed", "p2", "--class", "1,0,0", "--flag", "cone:1,2"],
                 ["verify", "--suite", "cor13", "--seed", "7", "--format", "csv"],
                 ["search-strict", "--testbed", "p2", "--bound", "3"],
                 ["mu", "--testbed=p2", "--class=-1,2,0", "--out", "x.json"],
                 ["intersect", "--testbed", "p2", "--classes", "1,0,0;1,0,0"],
                 ["mixedvol", "--bodies", "[[[0],[2]]]"]):
        own = cli.build_parser(argv[0]).parse_args(argv[1:])
        assert vars(own) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv, code, line", [
    ([], 2, "oklab: error: the following arguments are required: command"),
    (["nope"], 2, "oklab: error: argument command: invalid choice: 'nope' (choose from "
                  "'body', 'verify', 'search-strict', 'mu', 'intersect', 'mixedvol')"),
    (["--version"], 0, None),
    (["body", "--testbed", "p2", "--bogus", "1"], 2,
     "oklab body: error: the following arguments are required: --class"),
    (["body", "--testbed", "p2", "--class", "1,0,0", "--bogus", "1"], 2,
     "oklab: error: unrecognized arguments: --bogus 1"),
    (["mu", "--class", "2,0,0"], 2,
     "oklab mu: error: the following arguments are required: --testbed"),
])
def test_main_exits_as_the_full_parser_does(capsys, argv, code, line):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    got = exc.value.code, capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert got == (exc.value.code, capsys.readouterr())
    assert got[0] == code
    errors = [text for text in got[1].err.splitlines() if ": error: " in text]
    assert errors == ([line] if line else [])


def test_json_object_divisor_and_flag_forms(capsys):
    code, out, _ = run(capsys, "body", "--testbed", "p2",
                       "--class", '{"coeffs": [1, 0, 0]}',
                       "--flag", '{"cone": [1, 2]}')
    assert code == 0
    body = json.loads(out)["checks"][0]["body"]
    assert body["flag"] == [1, 2] and body["exact"] is True


def test_integer_class_text_stays_on_integers(capsys, monkeypatch):
    # plain integers, signed or padded, in text or JSON, never reach parse_rational;
    # other rationals still do, and the divisor is the same
    fan, seen = testbed("p2"), []
    real = cli.parse_rational
    monkeypatch.setattr(cli, "parse_rational", lambda p: seen.append(p) or real(p))
    for text in ("2,0,1", " +2 ,-0, 1", '{"coeffs": [2, 0, 1]}', "4/2,0/3,1"):
        assert cli._parse_divisor(fan, text) == cli._parse_divisor(fan, "2,0,1")
    assert seen == ["4/2", "0/3"]
    for text in ("2,+-1,0", "2,x,0", "2,1_,0", "2,1.5.0,0", '{"coeffs": [true, 0, 1]}'):
        with pytest.raises(cli.ConfigError):
            cli._parse_divisor(fan, text)


# the options each command reads; argparse refuses every other one
COMMAND_OPTIONS = {
    "body": ["--catalog", "--class", "--flag", "--format", "--out", "--testbed"],
    "verify": ["--catalog", "--format", "--grid-den", "--out", "--seed", "--suite",
               "--testbed"],
    "search-strict": ["--bound", "--catalog", "--flag", "--format", "--out", "--testbed"],
    "mu": ["--catalog", "--class", "--flag", "--format", "--out", "--testbed"],
    "intersect": ["--catalog", "--classes", "--format", "--out", "--testbed"],
    "mixedvol": ["--bodies", "--format", "--out"],
}


def test_each_command_takes_only_the_options_it_reads():
    options = {name: sorted(a.option_strings[-1] for a in p._actions if a.dest != "help")
               for name, p in _subcommand_parsers().items()}
    assert options == COMMAND_OPTIONS
    assert sum(map(len, options.values())) == 33


@pytest.mark.parametrize("argv", [
    ["body", "--testbed", "p2", "--class", "1,0,0", "--grid-den", "0"],
    ["verify", "--suite", "cor13", "--testbed", "p2", "--flag", "cone:7,7"],
    ["search-strict", "--testbed", "p2", "--seed", "3"],
    ["mu", "--testbed", "p2", "--class", "2,0,0", "--grid-den", "12"],
    ["intersect", "--testbed", "p2", "--classes", "1,0,0;1,0,0", "--flag", "cone:5,5"],
    ["mixedvol", "--bodies", "[[[0]],[[1]]]", "--catalog", "/nonexistent"],
])
def test_options_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


def test_mixedvol_reads_no_catalog(tmp_path, capsys, monkeypatch):
    (tmp_path / "half.json").write_text('{"name": "half", "rays": [[1, 0]')
    monkeypatch.setenv(CATALOG_ENV, str(tmp_path))
    assert run(capsys, "body", "--testbed", "p1", "--class", "2")[0] == 2
    code, out, _ = run(capsys, "mixedvol", "--bodies", "[[[0],[2]]]")
    assert code == 0 and json.loads(out)["checks"][0]["value"] == [2, 1]


def test_config_echo_is_null_for_options_a_command_lacks(capsys):
    code, out, _ = run(capsys, "body", "--testbed", "p1", "--class", "2")
    assert code == 0
    assert json.loads(out)["config"] == {"class": "2", "flag": None, "format": "json",
                                         "grid_den": None, "seed": None, "testbed": "p1"}


@pytest.mark.parametrize("argv, what", [
    (["search-strict", "--testbed", "p1xp1", "--bound", "1000000"], "class grid"),
    (["verify", "--suite", "cor13", "--testbed", "p2", "--grid-den", "1000000"], "--grid-den"),
    (["verify", "--suite", "prop14", "--grid-den", "100000"], "--grid-den"),
    # 8000 ample classes pass the box budget; their 32 004 000 pairs do not
    (["search-strict", "--testbed", "p1xp1xp1", "--bound", "20"], "pairs"),
    # six 8-vertex cyclic polytopes in R^6: 8^6 = 262 144 vertex sums
    (["mixedvol", "--bodies", json.dumps([[[t ** e for e in range(1, 7)]
                                            for t in range(s, s + 8)]
                                           for s in range(0, 48, 8)])], "Minkowski sum"),
    # 99 999 + 1 parameters pass; the p2 replay grid (mu = 7) has 699 992
    (["verify", "--suite", "replay", "--testbed", "p2", "--grid-den", "99999"], "--grid-den"),
])
def test_enumerations_over_budget_rejected(capsys, argv, what):
    start = perf_counter()
    code, _, err = run(capsys, *argv)
    assert perf_counter() - start < 1.0  # refused before enumerating
    assert code == 2 and what in err and "budget" in err


def test_nonpositive_bounds_rejected(capsys):
    for argv in (["verify", "--suite", "cor13", "--testbed", "p1", "--grid-den", "0"],
                 ["search-strict", "--testbed", "p2", "--bound", "0"],
                 ["search-strict", "--testbed", "p2", "--bound", "-1"]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "positive" in err


@pytest.mark.parametrize("argv", [
    ["mixedvol", "--bodies", "@/nonexistent/x.json"],
    ["mixedvol", "--bodies", "[[[[1,0]]]]"],  # a zero denominator
    ["mu", "--testbed", "p2", "--class", "2,0,0", "--out", "/nonexistent/dir/r.json"],
    ["body", "--testbed", "p2", "--class", "1,0,0", "--flag", '{"cone":5}'],
    ["body", "--testbed", "p2", "--class", '{"coeffs":5}'],
    ["body", "--testbed", "p2", "--class", '{"coeffs":[null,0,0]}'],
    # floats and bools are refused, not truncated or read as binary values
    ["body", "--testbed", "p2", "--class", "1,0,0", "--flag", '{"cone":[0.7,2]}'],
    ["body", "--testbed", "p2", "--class", "1,0,0", "--flag", '{"cone":[true,2]}'],
    ["mu", "--testbed", "p1xp1", "--class", '{"coeffs":[0.1,1,0,1]}'],
    ["mu", "--testbed", "p1xp1", "--class", '{"coeffs":[[1,2.0],1,0,1]}'],
    ["mixedvol", "--bodies", "[[[0.5,0]],[[0,1]]]"],
    # classes that are not big, and a zero denominator: messages print
    # rationals as n/d text, never as Python reprs
    ["body", "--testbed", "p2", "--class", "0,0,0"],
    ["body", "--testbed", "blpq-p2", "--class", "1/2,0,-1,0,0"],
    ["body", "--testbed", "p2", "--class", "1/0,0,0"],
    # a string is not read one character per coefficient
    ["body", "--testbed", "p2", "--class", '{"coeffs": "200"}', "--flag", "cone:1,2"],
    ["mu", "--testbed", "p2", "--class", '{"coeffs": "200"}'],
    ["intersect", "--testbed", "p2", "--classes", '{"coeffs": "200"};1,0,0'],
])
def test_bad_input_exits_2_with_a_message(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:")
    assert "Fraction(" not in err


def test_failed_body_certificate_exits_3(capsys, monkeypatch):
    real = NumClassSpace.form  # the certificate's D^d
    monkeypatch.setattr(NumClassSpace, "form", lambda self, classes: real(self, classes) + 1)
    monkeypatch.setattr(okounkov, "_BODIES", {})  # a cold body memo, restored after
    for argv in (["body", "--testbed", "p2", "--class", "1,0,0"],
                 ["verify", "--suite", "lemma61"]):
        code, _, err = run(capsys, *argv)
        assert code == 3 and err.startswith("hard invariant violated")
        assert "Fraction(" not in err


QUADRIC = {"rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
           "max_cones": [[0, 2], [1, 2], [1, 3], [0, 3]]}


def test_verify_runs_catalog_fans_after_the_builtins(tmp_path, capsys, monkeypatch):
    (tmp_path / "q.json").write_text(json.dumps({"name": "quad", **QUADRIC}))
    configs = []
    monkeypatch.setattr(cli, "run_suite", lambda suite, config: configs.append(config) or [])
    code, _, _ = run(capsys, "verify", "--suite", "cor15", "--catalog", str(tmp_path))
    assert code == 0 and list(configs[0].fans) == testbed_names() + ["quad"]


def test_a_command_builds_only_the_testbed_it_names(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "testbed", lambda name: built.append(name) or testbed(name))
    monkeypatch.setattr(cli, "run_suite", lambda suite, config: [])
    for argv in (["body", "--testbed", "p2", "--class", "1,0,0"],
                 ["mu", "--testbed", "p2", "--class", "1,0,0"],
                 ["intersect", "--testbed", "p2", "--classes", "1,0,0;1,0,0"],
                 ["search-strict", "--testbed", "p2", "--bound", "1"],
                 ["verify", "--suite", "cor13", "--testbed", "p2"]):
        built.clear()
        assert run(capsys, *argv)[0] == 0 and built == ["p2"], argv
    built.clear()
    assert run(capsys, "verify", "--suite", "cor13")[0] == 0 and built == testbed_names()


def test_cor15_on_a_fan_without_nef_draws_is_a_config_error(tmp_path, capsys, monkeypatch):
    # P^2 blown up eight times at fixed points: 11 rays, and no draw from
    # [0, 4]^11 is nef, so the cor15 sweep stops at the draw budget
    rays, cones = [list(r) for r in testbed("p2").rays], list(testbed("p2").max_cones)
    for _ in range(8):
        rays, cones = star_subdivision(rays, cones, cones[0])
    (tmp_path / "bl8.json").write_text(json.dumps(
        {"name": "p2-bl8", "rays": rays, "max_cones": [list(c) for c in cones]}))
    monkeypatch.setattr(inequalities, "ENUMERATION_BUDGET", 2000)
    code, _, err = run(capsys, "verify", "--suite", "cor15", "--testbed", "p2-bl8",
                       "--catalog", str(tmp_path))
    assert code == 2 and err.startswith("error: no nef class on p2-bl8 in 2000 draws")


@pytest.mark.parametrize("files", [
    {"a.json": {"name": "p2", **QUADRIC}},
    {"a.json": {"name": "quad", **QUADRIC}, "b.json": {"name": "quad", **QUADRIC}},
])
def test_catalog_names_must_be_new_and_unique(tmp_path, capsys, files):
    for fname, spec in files.items():
        (tmp_path / fname).write_text(json.dumps(spec))
    code, _, err = run(capsys, "mu", "--testbed", "p1xp1", "--class", "0,2,0,3",
                       "--catalog", str(tmp_path))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("text", [
    # a single cone: not a complete fan
    '{"name": "half", "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}',
    '{"name": "half", "rays": [[1, 0], [0, 1]',
    '{"name": "half", "rays": [[1, 0], [0, 1]]}',
    '{"name": 5, "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],'
    ' "max_cones": [[0, 2], [1, 2], [1, 3], [0, 3]]}',
    # a non-integer ray or cone index is refused, not truncated to a line
    '{"name": "half", "rays": [[1.7], [-1]], "max_cones": [[0], [1]]}',
    '{"name": "half", "rays": [[1], [-1]], "max_cones": [[0], [1.9]]}',
    '{"name": "half", "rays": [[true], [-1]], "max_cones": [[0], [1]]}',
])
def test_bad_catalog_is_config_error(tmp_path, capsys, text):
    (tmp_path / "half.json").write_text(text)
    code, _, err = run(capsys, "body", "--testbed", "half", "--class", "1,1",
                       "--catalog", str(tmp_path))
    assert code == 2 and err.startswith("error:")


coordinate = st.integers(-2, 2)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dim=st.integers(1, 3), data=st.data())
def test_fuzzed_catalogs_never_escape_main(tmp_path, capsys, dim, data):
    rays = data.draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                              min_size=1, max_size=6))
    cones = data.draw(st.lists(st.lists(st.integers(-1, len(rays)),
                                        min_size=dim, max_size=dim),
                               min_size=1, max_size=8))
    (tmp_path / "fuzz.json").write_text(
        json.dumps({"name": "fuzz", "rays": rays, "max_cones": cones}))
    coeffs = ",".join(str(x) for x in data.draw(
        st.lists(coordinate, min_size=len(rays), max_size=len(rays))))
    code = main(["mu", "--testbed", "fuzz", "--class", coeffs,
                 "--catalog", str(tmp_path)])
    assert code in (0, 1, 2)
    code = main(["intersect", "--testbed", "fuzz", "--classes",
                 ";".join([coeffs] * dim), "--catalog", str(tmp_path)])
    capsys.readouterr()
    assert code in (0, 1, 2)


ANTICANONICAL_TOP = {"p2": 9, "p1xp1": 8, "f1": 8, "p3": 64, "p1xp1xp1": 48}


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=blown_up_fans())
def test_intersect_on_blown_up_catalog_fans(tmp_path, capsys, spec):
    name, rays, cones, pulled, _ = spec
    (tmp_path / "blowup.json").write_text(json.dumps(
        {"name": "blowup", "rays": rays, "max_cones": [list(c) for c in cones]}))
    classes = ";".join([",".join(map(str, pulled))] * len(rays[0]))
    code, out, _ = run(capsys, "intersect", "--testbed", "blowup",
                       "--classes", classes, "--catalog", str(tmp_path))
    assert code == 0
    assert json.loads(out)["checks"][0]["value"] == [ANTICANONICAL_TOP[name], 1]


def test_emit_refuses_a_value_it_cannot_encode_exactly():
    report = cli.make_report("verify", {}, [{"key": "k", "pass": True, "t": Fraction(1, 2),
                                             "what": object()}])
    for fmt in ("json", "csv"):
        with pytest.raises(TypeError, match="cannot encode object exactly"):
            cli.emit(report, fmt, None)


# sha256 of `oklab verify --suite S` (default settings, no catalog); any
# change to these bytes is a change to the report format or to a verdict
REPORT_SHA256 = {
    "additivity": "aa3e879189571cf88d481a0e33975185d52a502a0466bbb6fe1d61ce95eb447c",
    "slices": "095b24e313aa9a7a8820ebe0b1ee7bda7711486ea75dafd76cdfc4834e14b9d3",
    "replay": "e55739b8d218d3d188a8ac19b38be192fea50276d5e06e4d0c83bbc3392ebf60",
    "prop14": "aa6311d7ac82ee7563338e2cdcd54958b5aafbdc624803b10a0450267290270c",
    "cor13": "ff93efd2b1202273eecf82962ecdf5e59f43c4da3a0aa2aa2e1d817c0d38564c",
    "lemma61": "a25d245e3f6271678da5fca660186ab538b90e8db9a4fb79abeb58a96cabff3e",
    "cor15": "448e5382b0b2fa8510d75977e00151d697930cb8c23a181f649dfe2a5b4694f2",
    "lx": "d95baf50765c153e9621ce87705e5efd27e401525d1a90dea53176f60a7845f9",
}


@pytest.mark.parametrize("suite", sorted(REPORT_SHA256))
def test_verify_report_bytes_are_pinned(tmp_path, monkeypatch, suite):
    monkeypatch.delenv(CATALOG_ENV, raising=False)
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[suite]
