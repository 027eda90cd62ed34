"""CLI: commands, exit codes, deterministic report bytes."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oklab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_intersect_rejects_non_nef(capsys):
    code, _, err = run(capsys, "intersect", "--testbed", "f1",
                       "--classes", "0,1,0,0;0,1,0,0")
    assert code == 2


def test_mixedvol_command(capsys):
    bodies = "[[[0,0],[1,0],[0,1],[1,1]],[[0,0],[[2,1],0],[0,2],[2,2]]]"
    code, out, _ = run(capsys, "mixedvol", "--bodies", bodies)
    assert code == 0
    assert json.loads(out)["checks"][0]["value"] == [2, 1]


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


def test_json_object_divisor_and_flag_forms(capsys):
    code, out, _ = run(capsys, "body", "--testbed", "p2",
                       "--class", '{"coeffs": [1, 0, 0]}',
                       "--flag", '{"cone": [1, 2]}')
    assert code == 0
    body = json.loads(out)["checks"][0]["body"]
    assert body["flag"] == [1, 2] and body["exact"] is True


def test_nonpositive_bounds_rejected(capsys):
    code, _, err = run(capsys, "body", "--testbed", "p1", "--class", "2",
                       "--grid-den", "0")
    assert code == 2 and "positive" in err


QUADRIC = {"rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
           "max_cones": [[0, 2], [1, 2], [1, 3], [0, 3]]}


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
    code = main(["mu", "--testbed", "fuzz", f"--class={coeffs}",
                 "--catalog", str(tmp_path)])
    capsys.readouterr()
    assert code in (0, 1, 2)
