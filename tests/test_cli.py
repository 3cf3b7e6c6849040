import json

import pytest

from racelab import cli


def run(args):
    return cli.main([str(a) for a in args])


def test_barrier_build_and_verify(tmp_path, capsys):
    rec = tmp_path / "rec.json"
    out = tmp_path / "verify.json"
    assert run(["barrier", "build", "thm311", "--q", 7, "--tau", 1000,
                "--out", rec]) == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    payload = json.loads(rec.read_text())
    assert payload["params"]["size"] == 20
    assert payload["config"]["q"] == 7  # provenance embedded
    assert run(["barrier", "verify", "--recipe", rec, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] and rep["scan_min"] > 0
    # build prints the same positive margin that verify writes
    assert printed == f"verify: ok=True min_margin={rep['scan_min']:.6g}"


def test_barrier_build_excluded_modulus(tmp_path):
    assert run(["barrier", "build", "thm311", "--q", 8,
                "--out", tmp_path / "x.json"]) == cli.EXIT_CONFIG


def test_build_deterministic(tmp_path):
    out = tmp_path / "rec.json"
    args = ["barrier", "build", "thm43", "--q", 7, "--D", "a,a2,a3",
            "--seed", 0, "--out", out]
    assert run(args) == 0
    first = out.read_bytes()
    assert run(args) == 0
    assert out.read_bytes() == first


def test_extremal_census_via_cli(tmp_path):
    rec = tmp_path / "ext.json"
    out = tmp_path / "census.json"
    assert run(["barrier", "build", "thm43", "--q", 7, "--D", "a,a2,a3",
                "--out", rec]) == 0
    assert run(["orderings", "--recipe", rec, "--window", "period",
                "--claim", "extremal_exact", "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["strict_count"] == 4
    assert rep["verdict"]["ok"]


def test_simulate_trace_and_crossings(tmp_path):
    rec = tmp_path / "rec.json"
    assert run(["barrier", "build", "thm311", "--q", 7, "--out", rec]) == 0
    csv = tmp_path / "trace.csv"
    crossings = tmp_path / "crossings.json"
    assert run(["simulate", "--recipe", rec, "--out", csv,
                "--crossings", crossings, "--gnuplot"]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("u,a")
    assert len(lines) > 1000
    assert (tmp_path / "trace.gp").exists()
    rep = json.loads(crossings.read_text())
    assert rep["crossings"]


def test_thm51_build_and_verify(tmp_path):
    rec = tmp_path / "t51.json"
    out = tmp_path / "v51.json"
    assert run(["barrier", "build", "thm51", "--q", 5, "--tau", 500,
                "--out", rec]) == 0
    assert run(["barrier", "verify", "--recipe", rec, "--out", out]) == 0
    assert json.loads(out.read_text())["ok"]


def test_race_command(tmp_path, monkeypatch):
    csv = tmp_path / "race.csv"
    summary = tmp_path / "sum.json"
    assert run(["race", "--q", 4, "--xmax", "1e5", "--a", 1, "--b", 3,
                "--out", csv, "--summary", summary]) == 0
    rep = json.loads(summary.read_text())
    assert rep["first_lead_change"] == 26861
    monkeypatch.setenv("RACE_LAB_BUDGET", "100")
    assert run(["race", "--q", 4, "--xmax", "1e5",
                "--out", tmp_path / "r2.csv"]) == cli.EXIT_BUDGET


def test_race_no_lead_change_names_xmax(tmp_path, capsys):
    summary = tmp_path / "sum.json"
    csv = tmp_path / "race.csv"
    for xmax in (1, -5):
        assert run(["race", "--q", 4, "--xmax", xmax, "--a", 1, "--b", 3,
                    "--out", csv, "--summary", summary]) == 0
        captured = capsys.readouterr()
        assert f"first lead change (1 vs 3): none found up to x = {xmax}" \
            in captured.out
        assert captured.err == ""
        rep = json.loads(summary.read_text())
        assert rep["first_lead_change"] is None and rep["pi_max"] == 0
        # no checkpoint lies in [2, xmax]: the table has its header only
        assert csv.read_text().splitlines()[1:] == ["x,pi,pi_1,pi_3"]


def test_race_below_two_linear_checkpoints(tmp_path):
    csv = tmp_path / "race.csv"
    for xmax in (1, -5):
        assert run(["race", "--q", 4, "--xmax", xmax, "--checkpoints",
                    "linear:5", "--out", csv]) == 0
        assert csv.read_text().splitlines()[1:] == ["x,pi,pi_1,pi_3"]


def test_race_with_zero_comparison(tmp_path):
    from importlib import resources
    csv = tmp_path / "race3.csv"
    summary = tmp_path / "sum3.json"
    with resources.as_file(resources.files("racelab") / "data/chi3_zeros.txt") as p:
        assert run(["race", "--q", 3, "--xmax", "1e5", "--a", 2, "--b", 1,
                    "--zeros", p, "--out", csv, "--summary", summary]) == 0
    rep = json.loads(summary.read_text())
    assert rep["comparison"]["sign_agreement"] >= 0.9


def test_race_comparison_below_x_min_is_config_error(tmp_path, capsys):
    from importlib import resources
    summary = tmp_path / "sum.json"
    with resources.as_file(resources.files("racelab") / "data/chi3_zeros.txt") as p:
        assert run(["race", "--q", 3, "--xmax", 500, "--a", 2, "--b", 1,
                    "--zeros", p, "--out", tmp_path / "race.csv",
                    "--summary", summary]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "error: no checkpoint at or above x_min = 1000\n"
    assert not summary.exists()


def test_trig_tools(tmp_path):
    out = tmp_path / "frac.json"
    assert run(["trig", "frac-parts", "--s", "1.4142,1", "--alpha", "0.4615",
                "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["ok"]
    assert all(rep["eps"] - 1e-12 <= f <= rep["alpha"] + 1e-12
               for f in rep["fractional_parts"])
    out2 = tmp_path / "neg.json"
    assert run(["trig", "all-negative", "--t", "1,1.7320508", "--out", out2]) == 0
    assert json.loads(out2.read_text())["ok"]
    out3 = tmp_path / "dom.json"
    assert run(["trig", "dominate", "--freqs", "1", "--b", "1", "--a", "1",
                "--gamma", "0.5", "--out", out3]) == 0
    assert json.loads(out3.read_text())["certificate"]["margins"][0] > 0


def assert_config_error(argv, capsys):
    assert run(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_missing_recipe_file_is_config_error(tmp_path, capsys):
    assert_config_error(["barrier", "verify", "--recipe",
                         tmp_path / "missing.json"], capsys)


def test_zero_step_is_config_error(tmp_path, capsys):
    rec = tmp_path / "rec.json"
    assert run(["barrier", "build", "thm311", "--q", 7, "--out", rec]) == 0
    capsys.readouterr()
    assert_config_error(["simulate", "--recipe", rec, "--window", "0:1",
                         "--step", 0, "--out", tmp_path / "t.csv"], capsys)
    assert_config_error(["barrier", "verify", "--recipe", rec, "--step", 0],
                        capsys)
    assert_config_error(["orderings", "--recipe", rec, "--window", "0:1",
                         "--samples", 0], capsys)


def test_trig_missing_arguments_is_config_error(capsys):
    assert_config_error(["trig", "frac-parts"], capsys)
    assert_config_error(["trig", "all-negative"], capsys)
    assert_config_error(["trig", "dominate", "--freqs", "1"], capsys)


def test_usage_errors_are_config_errors(capsys):
    # argparse's own exit 2 would read as "verification failed"
    assert_config_error(["barrier", "build", "thm99"], capsys)
    assert_config_error(["barrier"], capsys)
    assert_config_error(["orderings", "--recipe", "r.json", "--samples", "x"],
                        capsys)
    assert_config_error(["nosuchcommand"], capsys)
    assert_config_error(["race", "--q", 4, "--xmax", 100, "--checkpoints",
                         "linear:0"], capsys)
    # the flag was advisory and read by nothing; it is gone
    assert_config_error(["--threads", "2", "trig", "dominate", "--freqs", "1",
                         "--b", "1", "--a", "1"], capsys)


def test_thm43_single_member_is_config_error(tmp_path, capsys):
    assert run(["barrier", "build", "thm43", "--q", 7, "--D", "a",
                "--out", tmp_path / "x.json"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: D needs at least two members\n"
    assert not (tmp_path / "x.json").exists()


def test_thm43_repeated_member_is_config_error(tmp_path, capsys):
    # a and a^7 are one unit mod 7 (a has order 6)
    assert run(["barrier", "build", "thm43", "--q", 7, "--D", "a,a7",
                "--out", tmp_path / "x.json"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: D names a member twice\n"
    assert not (tmp_path / "x.json").exists()


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["barrier", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out
