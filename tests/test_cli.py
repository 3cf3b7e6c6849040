import copy
import gc
import json
import math
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

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
    assert cli.BarrierRecipe.from_json(rec.read_text()).system.size == 20
    assert payload["config"]["q"] == 7  # provenance embedded
    assert run(["barrier", "verify", "--recipe", rec, "--out", out]) == 0
    rep = json.loads(out.read_text())
    # scan_min is the certified lower bound, 2 sin(pi/3)^2/c3 rounded down
    # times the even-cyclic certificate's, less its slack for float terms
    assert rep["ok"] and rep["scan_min"] == pytest.approx(0.0336156, rel=1e-5)
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


def test_inconclusive_window_claim_is_verify_failure(tmp_path, capsys):
    # a window of 0.00175 ends while new orderings still appear
    rec = tmp_path / "ext.json"
    out = tmp_path / "census.json"
    assert run(["barrier", "build", "thm43", "--q", 7, "--D", "a,a2,a3",
                "--out", rec]) == 0
    for claim in ("extremal_exact", "thm51_upper"):
        capsys.readouterr()
        assert run(["orderings", "--recipe", rec, "--window", "0:0.00175",
                    "--samples", 4096, "--claim", claim,
                    "--out", out]) == cli.EXIT_VERIFY
        assert capsys.readouterr().err == ""
        rep = json.loads(out.read_text())
        assert rep["census_kind"] == "window-lower-bound"
        assert rep["verdict"] == {
            "claim": claim, "ok": False,
            "error": "new orderings still appearing near the window edge; "
                     "extend the window"}


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


def test_simulate_csv_matches_per_cell_formatting(tmp_path, monkeypatch):
    # the README trace, with special values in a few cells: the file is
    # byte-identical to formatting each cell with f"{x:.12g}"
    rec = tmp_path / "rec.json"
    assert run(["barrier", "build", "thm311", "--q", 7, "--tau", 1000,
                "--out", rec]) == 0
    traces = []

    def recipe_trace(*args):
        members, tr = recipe_trace.inner(*args)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                    -2.2250738585072014e-308, 1e300, 0.1, 123456789012345.6]
        tr.values[0, :len(specials)] = specials
        tr.u[-1] = -0.0
        traces.append(tr)
        return members, tr

    recipe_trace.inner = cli._recipe_trace
    monkeypatch.setattr(cli, "_recipe_trace", recipe_trace)
    csv = tmp_path / "trace.csv"
    assert run(["simulate", "--recipe", rec, "--window", "period",
                "--out", csv]) == 0
    (tr,) = traces
    want = ",".join(["u"] + [f"a{m}" for m in tr.members]) + "\n" + "".join(
        f"{u:.12g}," + ",".join(f"{v:.12g}" for v in tr.values[:, i]) + "\n"
        for i, u in enumerate(tr.u))
    assert tr.values.shape == (3, 4096)
    assert csv.read_bytes() == want.encode()


def test_thm51_m_below_one_is_config_error(tmp_path, capsys):
    out = tmp_path / "t51.json"
    assert run(["barrier", "build", "thm51", "--q", 5, "--M", 0,
                "--out", out]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: M must be >= 1, got 0\n"
    assert not out.exists()


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


def test_race_checkpoint_rows_over_budget(tmp_path, capsys, monkeypatch):
    # 1999 rows x (phi(3) + 1) columns exceed a budget of 3000; 1000 do not
    csv = tmp_path / "race.csv"
    monkeypatch.setenv("RACE_LAB_BUDGET", "3000")
    for rule in ("linear:1", "geometric:1.000000000001"):
        assert run(["race", "--q", 3, "--xmax", 2000, "--checkpoints", rule,
                    "--out", csv]) == cli.EXIT_BUDGET
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: checkpoint grid of 1999 rows x 3 columns "
                       "exceeds budget 3000 (RACE_LAB_BUDGET)"]
        assert not csv.exists()
    assert run(["race", "--q", 3, "--xmax", 2000, "--checkpoints", "linear:2",
                "--out", csv]) == 0
    assert len(csv.read_text().splitlines()) == 2 + 1000


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
    rec43, rec51 = tmp_path / "rec43.json", tmp_path / "rec51.json"
    assert run(["barrier", "build", "thm43", "--q", 7, "--out", rec43]) == 0
    assert run(["barrier", "build", "thm51", "--q", 5, "--tau", 500,
                "--out", rec51]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert_config_error(["simulate", "--recipe", rec, "--window", "0:1",
                         "--step", 0, "--out", tmp_path / "t.csv"], capsys)
    assert_config_error(["orderings", "--recipe", rec, "--window", "0:1",
                         "--samples", 0], capsys)
    # every command reads --step and --samples as positive before it runs,
    # also where the value would go unread; barrier takes no --step at all
    for argv in (["barrier", "build", "thm311", "--q", 7, "--step", 0],
                 ["barrier", "verify", "--recipe", rec51, "--step", -1],
                 ["barrier", "verify", "--recipe", rec43, "--step", 1e-3],
                 ["barrier", "verify", "--recipe", rec, "--step", 1e-3],
                 ["simulate", "--recipe", rec, "--window", "0:1",
                  "--samples", 0],
                 ["simulate", "--recipe", rec, "--window", "0:1",
                  "--samples", -5],
                 ["orderings", "--recipe", rec, "--samples", "2.5"],
                 # past the floats: no step can be formed from it
                 ["orderings", "--recipe", rec, "--window", "0:1",
                  "--samples", 10**400]):
        assert_config_error([*argv, "--out", out], capsys)
        assert not out.exists()


def test_full_formula_past_double_range_is_config_error(tmp_path, capsys):
    # beta* = 0.75 keeps beta* u below 690, but e^800 overflows a double
    rec = tmp_path / "rec.json"
    assert run(["barrier", "build", "thm311", "--q", 7, "--out", rec]) == 0
    capsys.readouterr()
    csv = tmp_path / "t.csv"
    assert_config_error(["simulate", "--recipe", rec, "--window", "1:800",
                         "--mode", "full-formula", "--out", csv], capsys)
    assert not csv.exists()


def test_race_non_finite_xmax_is_config_error(tmp_path, capsys):
    for xmax in ("inf", "-inf", "nan"):
        assert_config_error(["race", "--q", 4, f"--xmax={xmax}",
                             "--out", tmp_path / "r.csv"], capsys)
    assert not (tmp_path / "r.csv").exists()


def test_thm43_non_unit_generator_is_config_error(tmp_path, capsys):
    # the powers of 2 mod 14 never reach 1
    assert_config_error(["barrier", "build", "thm43", "--q", 14,
                         "--generator", 2, "--out", tmp_path / "x.json"],
                        capsys)


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


def built_thm311(tmp_path, capsys, q=7):
    rec = tmp_path / "rec.json"
    assert run(["barrier", "build", "thm311", "--q", q, "--out", rec]) == 0
    capsys.readouterr()
    return rec


@pytest.mark.parametrize("q", [7, 15])  # one cyclic factor; Z4 x Z2
def test_tampered_thm311_recipe_is_config_error(tmp_path, capsys, q):
    payload = json.loads(built_thm311(tmp_path, capsys, q).read_text())
    gamma = payload["params"]["gamma"]
    # a zero moved off the k*gamma lattice; a zero moved to the principal
    # character, outside the lattice family
    for field, value in (("gamma", 1.5 * gamma), ("chi", 0)):
        bad = copy.deepcopy(payload)
        bad["system"]["zeros"][0][field] = value
        path = tmp_path / f"bad_{field}.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "verify.json"
        assert_config_error(["barrier", "verify", "--recipe", path,
                             "--out", out], capsys)
        assert not out.exists()


@pytest.mark.parametrize("q, params", [(7, {"a": 5, "D": [4, 6, 2]}),
                                       (15, {"b": 14, "D": [2, 8, 14]})])
def test_unit_that_does_not_name_its_character_is_config_error(
        tmp_path, capsys, q, params):
    # chi(5) = e(1/6), not e(-1/6), mod 7; chi1(14) = -1, not 1, mod 15:
    # the load check pins the characters' values at a and b
    payload = json.loads(built_thm311(tmp_path, capsys, q).read_text())
    payload["params"].update(params)
    rec, out = tmp_path / "bad.json", tmp_path / "v.json"
    rec.write_text(json.dumps(payload))
    assert_config_error(["barrier", "verify", "--recipe", rec, "--out", out],
                        capsys)
    assert not out.exists()


@pytest.mark.parametrize("label", [9999, -1])
@pytest.mark.parametrize("kind, q, field", [
    ("thm311", 7, "chi"), ("thm311", 15, "chi1"), ("thm311", 15, "chi2"),
    ("thm51", 5, "chars")])
def test_recipe_character_label_out_of_range_is_config_error(
        tmp_path, capsys, kind, q, field, label):
    rec = tmp_path / "rec.json"
    assert run(["barrier", "build", kind, "--q", q, "--out", rec]) == 0
    capsys.readouterr()
    payload = json.loads(rec.read_text())
    if field == "chars":
        payload["params"]["chars"][0] = label
    else:
        payload["params"][field] = label
    rec.write_text(json.dumps(payload))
    out = tmp_path / "verify.json"
    assert_config_error(["barrier", "verify", "--recipe", rec, "--out", out],
                        capsys)
    assert not out.exists()


def test_thm311_non_finite_gamma_is_config_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert_config_error(["barrier", "build", "thm311", "--q", 7,
                         "--gamma", "inf", "--out", out], capsys)
    assert not out.exists()


def test_thm43_non_finite_gamma_is_config_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert_config_error(["barrier", "build", "thm43", "--q", 7,
                         "--gamma", "nan", "--out", out], capsys)
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["0", "-5"])
def test_thm43_gamma_not_positive_is_config_error(tmp_path, capsys, gamma):
    # --gamma 0 built a recipe at gamma = 1000 whose config said 0.0, and
    # -5 failed in Zero ("heights must be nonnegative")
    out = tmp_path / "x.json"
    assert run(["barrier", "build", "thm43", "--q", 7, f"--gamma={gamma}",
                "--out", out]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "error: gamma must be positive"]
    assert not out.exists()


def test_thm43_power_table_past_the_budget_is_budget_error(tmp_path, capsys,
                                                           monkeypatch):
    # the solve at q = 7, K = 16 counts 6 x (16 x 16 + 12) = 1608 values,
    # the K x 4096 power table 65536: refused before it is built
    from racelab import barriers

    def refuse(v, K):
        raise AssertionError("the power table was built")

    monkeypatch.setattr(barriers, "phasor_powers", refuse)
    monkeypatch.setenv("RACE_LAB_BUDGET", "10000")
    out = tmp_path / "x.json"
    assert run(["barrier", "build", "thm43", "--q", 7,
                "--out", out]) == cli.EXIT_BUDGET
    assert capsys.readouterr().err.splitlines() == [
        "error: thm43 power table of 16 x 4096 points exceeds budget 10000 "
        "(RACE_LAB_BUDGET)"]
    assert not out.exists()


def test_simulate_non_finite_base_u_is_config_error(tmp_path, capsys):
    rec = built_thm311(tmp_path, capsys)
    csv = tmp_path / "t.csv"
    assert_config_error(["simulate", "--recipe", rec, "--base-u", "nan",
                         "--out", csv], capsys)
    assert not csv.exists()


def test_huge_base_u_censuses_the_phase_it_names(tmp_path, capsys):
    # the README's q = 7 thm311 recipe: at base_u 1e300 the u column rounds
    # to one value, but the period is sampled in the phase, from
    # v0 = fmod(lambda base_u, 2 pi), so it is the census of base_u 0 moved
    rec = tmp_path / "rec.json"
    assert run(["barrier", "build", "thm311", "--q", 7, "--tau", 1000,
                "--out", rec]) == 0
    capsys.readouterr()
    reports = []
    for base_u in ("0", "1e300"):
        out = tmp_path / f"census_{base_u}.json"
        assert run(["orderings", "--recipe", rec, "--base-u", base_u,
                    "--out", out]) == 0
        reports.append(json.loads(out.read_text()))
    for rep in reports:
        assert rep["strict_count"] == 6 and len(rep["crossings"]) == 10
    zero, huge = reports
    assert huge["orderings"] == zero["orderings"]
    assert sorted(c["pair"] for c in huge["crossings"]) \
        == sorted(c["pair"] for c in zero["crossings"])
    # a phase lambda base_u past the floats names no period
    assert_config_error(["orderings", "--recipe", rec, "--base-u", "1e306",
                         "--out", tmp_path / "c.json"], capsys)
    assert not (tmp_path / "c.json").exists()


def test_extremal_claim_holds_at_huge_base_u(tmp_path, capsys):
    # the README's thm43 recipe: one level, so base_u moves only the phase
    rec = tmp_path / "ext.json"
    assert run(["barrier", "build", "thm43", "--q", 7, "--D", "a,a2,a3",
                "--out", rec]) == 0
    out = tmp_path / "c.json"
    assert run(["orderings", "--recipe", rec, "--claim", "extremal_exact",
                "--base-u", "1e300", "--out", out]) == 0
    assert json.loads(out.read_text())["verdict"]["ok"]


def test_level_lost_to_its_frozen_weight_is_config_error(tmp_path, capsys):
    # q = 15's thm51 recipe: the beta = 0.7 level's weight e^(-0.1 base_u)
    # is 2e-9 at base_u 200, too small to move a member difference by more
    # than tie_tol, so its census would drop the level unseen
    rec = tmp_path / "t15.json"
    assert run(["barrier", "build", "thm51", "--q", 15, "--tau", 1000,
                "--out", rec]) == 0
    for base_u in ("0", "60"):
        out = tmp_path / f"c_{base_u}.json"
        assert run(["orderings", "--recipe", rec, "--claim", "thm51_upper",
                    "--base-u", base_u, "--out", out]) == 0
        assert json.loads(out.read_text())["verdict"]["ok"]
    capsys.readouterr()
    out = tmp_path / "c_200.json"
    assert run(["orderings", "--recipe", rec, "--claim", "thm51_upper",
                "--base-u", "200", "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: level beta = 0.7 ")
    assert "weight" in err[0] and "tie_tol 1e-09" in err[0]
    assert not out.exists()


def test_simulate_non_finite_window_is_config_error(tmp_path, capsys):
    rec = built_thm311(tmp_path, capsys)
    csv = tmp_path / "t.csv"
    for window in ("0:inf", "nan:1", "0:1:2"):
        assert_config_error(["simulate", "--recipe", rec, "--window", window,
                             "--out", csv], capsys)
    assert not csv.exists()


def test_window_text_is_kept_in_config(tmp_path, capsys):
    rec = built_thm311(tmp_path, capsys)
    out = tmp_path / "census.json"
    assert run(["orderings", "--recipe", rec, "--window", "0:1e0",
                "--samples", 64, "--out", out]) == 0
    assert json.loads(out.read_text())["config"]["window"] == "0:1e0"


def test_race_non_finite_sigma_is_config_error(tmp_path, capsys):
    summary = tmp_path / "sum.json"
    with resources.as_file(resources.files("racelab") / "data/chi3_zeros.txt") as p:
        assert_config_error(["race", "--q", 3, "--xmax", "1e4", "--a", 2,
                             "--b", 1, "--zeros", p, "--sigma", "nan",
                             "--out", tmp_path / "r.csv", "--summary", summary],
                            capsys)
    assert not summary.exists()


def test_race_zeros_without_pair_is_config_error(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    with resources.as_file(resources.files("racelab") / "data/chi3_zeros.txt") as p:
        for pair in ([], ["--a", 2]):
            assert_config_error(["race", "--q", 3, "--xmax", 4000,
                                 "--zeros", p, "--out", csv, *pair], capsys)
    assert not csv.exists()


def test_race_non_finite_checkpoint_step_is_config_error(tmp_path, capsys):
    for rule in ("linear:inf", "geometric:nan"):
        assert_config_error(["race", "--q", 3, "--xmax", 4000,
                             "--checkpoints", rule, "--out", tmp_path / "r.csv"],
                            capsys)


def test_trig_non_finite_list_entry_is_config_error(tmp_path, capsys):
    out = tmp_path / "t.json"
    for argv in (["frac-parts", "--s", "nan"],
                 ["all-negative", "--t", "1,nan"],
                 ["all-negative", "--t", "1", "--beta", "inf"],
                 ["dominate", "--freqs", "inf", "--b", "1", "--a", "1"],
                 ["dominate", "--freqs", "1", "--b", "1", "--c", "-inf"]):
        assert_config_error(["trig", *argv, "--out", out], capsys)
    assert not out.exists()


def test_trig_unequal_list_lengths_are_config_errors(tmp_path, capsys):
    # zip would truncate the longer list and solve a smaller problem
    out = tmp_path / "t.json"
    for argv in (["all-negative", "--t", "1,1.7320508,2.5", "--beta", "0"],
                 ["all-negative", "--t", "1", "--beta", "0,0"],
                 ["dominate", "--freqs", "1", "--b", "1,1", "--a", "1,0.5"],
                 ["dominate", "--freqs", "1,2", "--b", "1,1", "--a", "1"],
                 ["dominate", "--freqs", "1,2", "--b", "1,1", "--c", "1"],
                 ["dominate", "--freqs", "1,2", "--b", "1"]):
        assert_config_error(["trig", *argv, "--out", out], capsys)
    assert not out.exists()


def test_trig_list_text_is_kept_in_config(tmp_path):
    out = tmp_path / "neg.json"
    assert run(["trig", "all-negative", "--t", "1,1.7320508",
                "--beta", "0,0e0", "--out", out]) == 0
    assert json.loads(out.read_text())["config"]["beta"] == "0,0e0"


@pytest.mark.parametrize("command", ["simulate", "orderings"])
def test_trace_over_budget_is_budget_error(tmp_path, capsys, monkeypatch,
                                           command):
    rec = built_thm311(tmp_path, capsys)
    out = tmp_path / "t.out"
    # 1e7 / 1e-3 samples at the default step, 1/1e-320 = inf samples, and
    # 2^20 cells, so 2^20 + 1 samples, x 3 members
    argvs = {"simulate": {("--window", "0:1e7"): "1e+10",
                          ("--window", "0:1", "--step", "1e-320"): "inf"},
             "orderings": {("--window", "0:1", "--samples", 1 << 20):
                           "1.04858e+06"}}[command]
    monkeypatch.setenv("RACE_LAB_BUDGET", "3e6")
    for argv, samples in argvs.items():
        assert run([command, "--recipe", rec, *argv, "--out", out]) \
            == cli.EXIT_BUDGET
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: trace of {samples} samples x 3 members "
                       "exceeds budget 3000000 (RACE_LAB_BUDGET)"]
        assert not out.exists()


def test_lead_trail_member_off_the_trace_is_config_error(tmp_path, capsys):
    rec, out = built_thm311(tmp_path, capsys), tmp_path / "o.json"
    assert run(["orderings", "--recipe", rec, "--claim", "lead_trail",
                "--member", 99, "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: lead_trail needs a member of the trace, one of "
                   "[2, 6, 4]; got 99"], err
    assert not out.exists()


def test_thm311_overflowing_gamma_is_config_error(tmp_path, capsys):
    # 1e308 is finite, but the zeros at 2, 3, ... times it are not
    out = tmp_path / "x.json"
    assert_config_error(["barrier", "build", "thm311", "--q", 7,
                         "--gamma", "1e308", "--out", out], capsys)
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e306, float("nan")])
def test_recipe_with_non_finite_zero_is_config_error(tmp_path, capsys, scale):
    # the q = 7 recipe with its heights scaled as --gamma 1e308 scales them
    # (k * 1e308 overflows for k >= 2), or turned into NaN
    payload = json.loads(built_thm311(tmp_path, capsys).read_text())
    for z in payload["system"]["zeros"]:
        z["gamma"] *= scale
    rec = tmp_path / "bad.json"
    rec.write_text(json.dumps(payload))
    for command, name in (("simulate", "trace.csv"), ("orderings", "o.json")):
        out = tmp_path / name
        assert_config_error([command, "--recipe", rec, "--out", out], capsys)
        assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--K", 0), ("--N", 0), ("--N", -1)])
def test_thm43_nonpositive_k_or_n_is_config_error(tmp_path, capsys, flag,
                                                   value):
    out = tmp_path / "x.json"
    assert run(["barrier", "build", "thm43", "--q", 7, flag, value,
                "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {flag[2:]} must be >= 1, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--N", 10**30],  # multiplicities past 2^53
    ["--K", 2**53],  # heights k gamma, k past 2^53
    ["--gamma", "1e307", "--K", 32],  # 32 gamma overflows
], ids=["N-1e30", "K-2^53", "K-gamma-overflows"])
def test_thm43_k_or_n_past_the_floats_is_config_error(tmp_path, capsys,
                                                      flags):
    out = tmp_path / "x.json"
    assert_config_error(["barrier", "build", "thm43", "--q", 7, *flags,
                         "--out", out], capsys)
    assert not out.exists()


def test_thm43_k_past_the_budget_is_budget_error(tmp_path, capsys,
                                                 monkeypatch):
    # K sizes the solve's K x r x 16 residuals: a K of 10^9 edited into the
    # README recipe passes the default budget, and --K 2048 a budget of
    # 1e5; both are refused before anything of that size is allocated, and
    # so are r = 1008's r x r cosine and sine tables under a budget of 1e6
    from racelab.barriers import BarrierRecipe
    from racelab.budget import BudgetExceededError

    monkeypatch.delenv("RACE_LAB_BUDGET", raising=False)
    rec = tmp_path / "rec.json"
    assert run(["barrier", "build", "thm43", "--q", 7, "--D", "a,a2,a3",
                "--out", rec]) == 0
    capsys.readouterr()
    payload = json.loads(rec.read_text())
    payload["params"]["K"] = 10**9
    rec.write_text(json.dumps(payload))
    message = ("error: thm43 solve of {0} x {1} x 16 residuals and 2 x {1} x "
               "{1} tables exceeds budget {2} (RACE_LAB_BUDGET)")
    with pytest.raises(BudgetExceededError):
        BarrierRecipe.from_json(rec.read_text())
    for command in ("barrier verify", "simulate", "orderings"):
        out = tmp_path / "out"
        assert run([*command.split(), "--recipe", rec, "--out", out]) \
            == cli.EXIT_BUDGET
        assert capsys.readouterr().err.splitlines() == [
            message.format(10**9, 6, 100000000)]
        assert not out.exists()
    monkeypatch.setenv("RACE_LAB_BUDGET", "1e5")
    out = tmp_path / "x.json"
    assert run(["barrier", "build", "thm43", "--q", 7, "--K", 2048,
                "--out", out]) == cli.EXIT_BUDGET
    assert capsys.readouterr().err.splitlines() == [
        message.format(2048, 6, 100000)]
    monkeypatch.setenv("RACE_LAB_BUDGET", "1e6")
    assert run(["barrier", "build", "thm43", "--q", 1009, "--out", out]) \
        == cli.EXIT_BUDGET
    assert capsys.readouterr().err.splitlines() == [
        message.format(16, 1008, 1000000)]
    assert not out.exists()


@pytest.mark.parametrize("a,b", [(1, 2), (3, 3)])
def test_race_bad_pair_writes_no_table(tmp_path, capsys, a, b):
    csv = tmp_path / "race.csv"
    assert_config_error(["race", "--q", 4, "--xmax", "1e5", "--a", a,
                         "--b", b, "--out", csv], capsys)
    assert not csv.exists()


def run_limited(args, tmp_path, stdout=subprocess.PIPE):
    """The CLI in a child process (`python -m racelab.cli`, so through the
    process entry) whose address space is capped at 3 GiB, so a regression
    that builds a huge table fails fast instead of using up the machine's
    memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    env.pop("RACE_LAB_BUDGET", None)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "racelab.cli",
                           *map(str, args)], cwd=tmp_path, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          preexec_fn=cap)


def test_in_process_main_leaves_the_collector_alone(tmp_path):
    frozen = gc.get_freeze_count()
    assert run(["barrier", "build", "thm311", "--q", 7,
                "--out", tmp_path / "rec.json"]) == 0
    assert run(["trig", "frac-parts"]) == cli.EXIT_CONFIG
    assert gc.get_freeze_count() == frozen


def test_process_entry_writes_what_main_writes(tmp_path, capsys, monkeypatch):
    argv = ["barrier", "build", "thm311", "--q", 7, "--tau", 1000,
            "--out", "rec.json"]
    child_dir, own_dir = tmp_path / "child", tmp_path / "own"
    child_dir.mkdir()
    own_dir.mkdir()
    proc = run_limited(argv, child_dir)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    monkeypatch.chdir(own_dir)
    assert run(argv) == 0
    assert proc.stdout == capsys.readouterr().out
    assert ((child_dir / "rec.json").read_bytes()
            == (own_dir / "rec.json").read_bytes())


def test_console_script_runs_the_process_entry():
    pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
    assert 'racelab = "racelab.cli:entry"' in pyproject.read_text().splitlines()


def test_process_entry_reports_a_config_error(tmp_path):
    proc = run_limited(["trig", "frac-parts"], tmp_path)
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: frac-parts needs --s"]


def run_closed_stdout(args, tmp_path, monkeypatch, unbuffered):
    """run_limited with stdout a pipe whose reader is gone, as in
    `racelab ... | head -c1` once head has exited: a write fails with EPIPE.
    Unbuffered, the first print raises; buffered, a flush."""
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_limited(args, tmp_path, stdout=write_end)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [
    ["trig", "dominate", "--freqs", 1, "--b", 1, "--a", 1, "--gamma", 0.5],
    ["barrier", "build", "thm311", "--q", 7, "--out", "rec.json"],
    ["--help"], ["barrier", "--help"]])
def test_closed_stdout_is_exit_pipe_and_says_nothing(tmp_path, monkeypatch,
                                                     argv, unbuffered):
    # neither a configuration error nor worth a traceback
    proc = run_closed_stdout(argv, tmp_path, monkeypatch, unbuffered)
    assert proc.stderr == ""
    assert proc.returncode == cli.EXIT_PIPE == 1


def test_error_after_output_to_a_closed_stdout_is_reported(tmp_path,
                                                          monkeypatch):
    # buffered, the race table's line waits in stdout while the empty zero
    # list fails: the error is the exit, and what stdout holds is dropped
    (tmp_path / "empty.txt").write_text("")
    proc = run_closed_stdout(["race", "--q", 3, "--xmax", 1000, "--a", 2,
                              "--b", 1, "--zeros", "empty.txt"],
                             tmp_path, monkeypatch, unbuffered=False)
    assert proc.stderr.splitlines() == ["error: no zeros supplied"]
    assert proc.returncode == cli.EXIT_CONFIG


@pytest.mark.parametrize("argv", [["barrier", "build", "thm311"],
                                  ["race", "--xmax", 1000]])
def test_huge_modulus_is_budget_error(tmp_path, argv):
    # phi(1e9) = 4e8 units x 4 columns: the unit group is refused before
    # numpy is asked for its 8.9 GiB exponent table
    proc = run_limited([*argv, "--q", 10**9, "--out", "out"], tmp_path)
    assert proc.returncode == cli.EXIT_BUDGET, proc.stderr
    assert proc.stderr.splitlines() == [
        "error: unit group mod 1000000000: 400000000 units x 4 columns "
        "exceeds budget 100000000 (RACE_LAB_BUDGET)"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["barrier", "build", "thm311"],
                                  ["race", "--xmax", 1000]])
def test_unit_group_over_budget_is_budget_error(tmp_path, capsys, monkeypatch,
                                                argv):
    # phi(1009) = 1008 units x 2 columns exceed a budget of 1000; the group
    # and the character table built before, at the default budget, are
    # refused all the same
    from racelab import residues
    from racelab.primes import BudgetExceededError
    monkeypatch.delenv("RACE_LAB_BUDGET", raising=False)
    residues.unit_group(1009), residues.characters(1009)
    monkeypatch.setenv("RACE_LAB_BUDGET", "1000")
    for table in (residues.unit_group, residues.characters):
        with pytest.raises(BudgetExceededError, match="unit group mod 1009"):
            table(1009)
    out = tmp_path / "out"
    assert run([*argv, "--q", 1009, "--out", out]) == cli.EXIT_BUDGET
    assert capsys.readouterr().err.splitlines() == [
        "error: unit group mod 1009: 1008 units x 2 columns exceeds budget "
        "1000 (RACE_LAB_BUDGET)"]
    assert not out.exists()


def _set(path, value):
    def edit(payload):
        *keys, last = path
        for key in keys:
            payload = payload[key]
        payload[last] = value
    return edit


def _drop(key):
    return lambda payload: payload["params"].pop(key)


@pytest.mark.parametrize("q, edit", [
    (7, _set(["params", "designated"], [9999, 2, 3])),
    (7, _set(["params", "designated"], [-1, 2, 3])),
    (7, _set(["params", "designated"], [2.5, 2, 3])),
    (7, _set(["params", "designated"], [True, 2, 3])),
    (7, _set(["params", "designated"], [1, 2, 3])),  # no identity names G_1
    (7, _set(["params", "designated"], [])),
    (15, _set(["params", "designated"], [[1, 0], [3, 0], [0, 2]])),
    (15, _set(["params", "designated"], [1, 3, 0])),
    (17, _set(["params", "designated"], [1, 3, 4, 5])),  # n8 names 3, 4, 5
    (17, _set(["params", "designated"], [0, 3, 4, 5])),
    (7, _set(["params", "D"], [2, 3, 4])),  # a^2, a^3, a^4 are 2, 6, 4
    # s past any float, with a designated point and D that s does not move
    (7, lambda payload: payload["params"].update(s=10**400, designated=[3],
                                                 D=[6])),
    (7, _set(["params", "case"], "bogus")),
    (7, _set(["params", "n"], 10**9)),
    (7, _set(["params", "gamma"], 0)),
    (7, _set(["kind"], "thm311_bogus")),
    (7, _set(["kind"], "thm311_n8")),
    (7, _set(["kind"], ["thm311_even_cyclic"])),
    (7, _drop("s")),
    (7, _drop("gamma")),
    (15, _drop("subcase")),
    (7, _set(["params", "h"], 999)),  # n = 6 is 2^1 * 3
    (7, _set(["params", "d"], 5)),
    (7, _set(["claim"], "player-1 leads")),
    # s = 14 instead of 2 (41 - 1)/2 = 40, with the designated points and D
    # it names: |tan(2 pi 14/82)| > sqrt(3), which no certificate covers
    (83, lambda payload: payload["params"].update(
        s=14, designated=[14, 41, 68], D=[pow(2, r, 83) for r in (14, 41, 68)])),
    # two of the three designated points, with their units
    (7, lambda payload: payload["params"].update(designated=[2, 4], D=[2, 4])),
    # n = 2 = 2^1 * 1 and n = 3 = 2^0 * 3, each with its own h, d and s and
    # the points and units the closed forms at that s name
    (7, lambda payload: payload["params"].update(
        n=2, h=1, d=1, s=0, designated=[0, 1, 2], D=[1, 3, 2])),
    (7, lambda payload: payload["params"].update(
        n=3, h=3, d=0, s=1, designated=[1, 2], D=[3, 2])),
    # a = 5 and 13 with the units they name: chi(5) = e(1/6), not e(-1/6),
    # mod 7, and chi1(13) = e(1/4), not e(3/4), mod 15
    (7, lambda payload: payload["params"].update(a=5, D=[4, 6, 2])),
    (15, lambda payload: payload["params"].update(a=13, D=[13, 7, 11])),
    # beta is a float in (1/2, 1), the zeros' real part
    (7, _set(["params", "beta"], "0.75")),
    (7, _set(["params", "beta"], None)),
    (7, _set(["params", "beta"], 1)),
    (7, _set(["params", "beta"], 0.5)),
    (7, _set(["params", "beta"], 0.8)),
    (15, _drop("beta")),
    (7, _set(["params", "gamma"], "1001.0")),
], ids=["designated-9999", "designated-negative", "designated-float",
        "designated-bool", "designated-unnamed", "designated-empty",
        "z4z2-designated-out-of-range", "z4z2-designated-flat",
        "n8-designated-unnamed", "n8-designated-zero", "D-not-designated-units",
        "s-out-of-range", "case-bogus",
        "n-huge", "gamma-zero", "kind-bogus", "kind-other-case",
        "kind-not-a-name", "no-s", "no-gamma", "z4z2-no-subcase",
        "h-not-odd-part", "d-not-two-power", "claim-other", "s-other",
        "designated-subset", "h-one", "n-odd", "a-not-chi", "z4z2-a-not-chi1",
        "beta-text", "beta-null", "beta-int", "beta-half", "beta-not-the-zeros",
        "z4z2-no-beta", "gamma-text"])
def test_malformed_thm311_recipe_is_config_error(tmp_path, capsys, q, edit):
    from racelab.barriers import verify_thm311

    payload = json.loads(built_thm311(tmp_path, capsys, q).read_text())
    assert_malformed_recipe(tmp_path, capsys, payload, edit, verify_thm311)


RECIPE_COMMANDS = ("barrier verify", "simulate", "orderings")


def assert_malformed_recipe(tmp_path, capsys, payload, edit, verify=None,
                            error=None):
    """The edited recipe is refused by `from_json` (RecipeMismatchError
    unless another error is given), and by every command that loads it with
    exit 3 and one `error:` line.  The same edit made to the kind, params
    or claim of the recipe in Python makes verify, if given, raise
    RecipeMismatchError."""
    from racelab.barriers import BarrierRecipe
    from racelab.simulator import RecipeMismatchError

    recipe = BarrierRecipe.from_json(json.dumps(payload))
    edit(payload)
    rec = tmp_path / "bad.json"
    rec.write_text(json.dumps(payload))
    with pytest.raises(error or RecipeMismatchError):
        BarrierRecipe.from_json(rec.read_text())
    for command in RECIPE_COMMANDS:
        out = tmp_path / "out"
        assert_config_error([*command.split(), "--recipe", rec, "--out", out],
                            capsys)
        assert not out.exists()
    if verify is not None:
        fields = {"kind": recipe.kind, "params": recipe.params,
                  "claim": recipe.claim}
        edit(fields)
        recipe.kind, recipe.params, recipe.claim = (
            fields["kind"], fields["params"], fields["claim"])
        with pytest.raises(RecipeMismatchError):
            verify(recipe)


README_RECIPES = {
    "thm311": ["barrier", "build", "thm311", "--q", 7, "--tau", 1000],
    "thm43": ["barrier", "build", "thm43", "--q", 7, "--D", "a,a2,a3"],
    "thm51": ["barrier", "build", "thm51", "--q", 5, "--tau", 1000],
}


def _set_item(key, index, value):
    return _set(["params", key, index], value)


@pytest.mark.parametrize("kind, edit", [
    ("thm43", _set(["params", "chi"], 9999)),
    ("thm43", _set(["params", "chi"], -1)),
    ("thm43", _set(["params", "V"], [1, 2, 99])),
    ("thm43", _set(["params", "a1"], 5)),  # a is 3
    ("thm43", _set_item("D", 0, "x")),
    ("thm43", _set_item("D", 0, None)),
    ("thm43", _set(["params", "beta1"], 0.8)),  # the zeros sit at 0.75
    ("thm43", _set(["claim"], 7)),
    ("thm43", _set(["claim"], "census of D capped at 7")),  # |V| = 3 caps at 4
    ("thm43", _set(["params", "seed"], 1)),  # the corners are seed 0's
    ("thm43", _set(["params", "seed"], -1)),  # build_omega refuses it
    ("thm43", _set(["params", "corners", "1"], 1.2)),
    ("thm43", _set(["params", "corners"], {"1": 1.1210713202920448})),
    ("thm43", _drop("corners")),
    # K and N re-emit the zeros: 32 and 7 emit other ones
    ("thm43", _set(["params", "K"], 32)),
    ("thm43", _set(["params", "N"], 7)),
    ("thm43", _set(["params", "K"], 0)),
    ("thm43", _set(["params", "K"], "16")),
    ("thm43", _set(["params", "N"], 10**30)),  # multiplicities past 2^53
    ("thm43", _set(["params", "K"], 2**53)),  # heights k gamma, k past 2^53
    ("thm51", _set(["params", "gamma"], "x")),
    ("thm51", _set(["params", "gamma"], None)),
    ("thm51", _drop("gamma")),
    ("thm51", _set(["params", "chars"], [9999])),
    ("thm51", _set(["params", "orders"], [5])),  # 5 does not divide 4
    ("thm51", _set(["params", "orders"], [10**9])),
    ("thm51", _set(["params", "orders"], ["x"])),
    ("thm51", _set(["params", "M"], -3)),
    ("thm51", _set(["params", "M"], 1)),  # the system carries M = 64
    ("thm51", _drop("M")),
    ("thm51", _drop("betas")),
    ("thm51", _set(["claim"], None)),
], ids=["thm43-chi-9999", "thm43-chi-negative", "thm43-V-off-D",
        "thm43-a1-not-a", "thm43-D-text", "thm43-D-null",
        "thm43-beta1-not-the-zeros", "thm43-claim-int",
        "thm43-claim-other-cap", "thm43-seed-other", "thm43-seed-negative",
        "thm43-corner-moved", "thm43-corner-dropped", "thm43-no-corners",
        "thm43-K-16-to-32", "thm43-N-128-to-7", "thm43-K-zero",
        "thm43-K-text", "thm43-N-1e30", "thm43-K-2^53",
        "thm51-gamma-text",
        "thm51-gamma-null", "thm51-no-gamma", "thm51-chars-9999",
        "thm51-orders-5", "thm51-orders-huge", "thm51-orders-text",
        "thm51-M-negative", "thm51-M-not-the-systems", "thm51-no-M",
        "thm51-no-betas", "thm51-claim-null"])
def test_malformed_barrier_recipe_is_config_error(tmp_path, capsys, kind,
                                                  edit):
    from racelab import barriers

    rec = tmp_path / "rec.json"
    assert run([*README_RECIPES[kind], "--out", rec]) == 0
    capsys.readouterr()
    verify = {"thm43": barriers.verify_extremal,
              "thm51": barriers.check_thm51_conditions}[kind]
    assert_malformed_recipe(tmp_path, capsys, json.loads(rec.read_text()),
                            edit, verify)


def test_thm43_seed_that_cannot_separate_is_config_error(tmp_path, capsys,
                                                        monkeypatch):
    # a seed whose corners never separate the crossings is a bad recipe,
    # not a failed verification
    from racelab import barriers

    def inseparable(r, V, seed=0):
        raise barriers.OmegaConstructionError(
            "could not separate crossing points after 64 tries")

    rec = tmp_path / "rec.json"
    assert run([*README_RECIPES["thm43"], "--out", rec]) == 0
    capsys.readouterr()
    monkeypatch.setattr(barriers, "build_omega", inseparable)
    for command in RECIPE_COMMANDS:
        out = tmp_path / "out"
        assert_config_error([*command.split(), "--recipe", rec, "--out", out],
                            capsys)
        assert not out.exists()


@pytest.mark.parametrize("kind", list(README_RECIPES))
def test_non_number_height_lattice_is_config_error(tmp_path, capsys, kind):
    from racelab.zerosys import ZeroDataError

    rec = tmp_path / "rec.json"
    assert run([*README_RECIPES[kind], "--out", rec]) == 0
    capsys.readouterr()
    assert_malformed_recipe(tmp_path, capsys, json.loads(rec.read_text()),
                            _set(["system", "height_lattice"], "x"),
                            error=ZeroDataError)


def test_height_lattice_not_a_period_is_config_error(tmp_path, capsys):
    # the thm43 zeros sit at k * 1000; 2 pi / 1001 is not their period
    from racelab.zerosys import ZeroDataError

    rec = tmp_path / "rec.json"
    assert run([*README_RECIPES["thm43"], "--out", rec]) == 0
    capsys.readouterr()
    assert_malformed_recipe(tmp_path, capsys, json.loads(rec.read_text()),
                            _set(["system", "height_lattice"], 1001),
                            error=ZeroDataError)


RECIPE_VERIFIERS = {"thm311": "verify_thm311", "thm43": "verify_extremal",
                    "thm51": "check_thm51_conditions"}


@pytest.mark.parametrize("kind, gamma", [
    ("thm311", 500.5),  # the heights k 1001 are 2k (1001 / 2)
    ("thm43", 500.0),  # the heights k 1000 are 2k (1000 / 2)
    ("thm51", 1001.0000000001),  # within the level waves' height tolerance
])
def test_gamma_not_the_height_lattice_is_config_error(tmp_path, capsys, kind,
                                                      gamma):
    # one lattice per recipe: each of these gammas also fits the zeros
    from racelab import barriers

    rec = tmp_path / "rec.json"
    assert run([*README_RECIPES[kind], "--out", rec]) == 0
    capsys.readouterr()
    assert_malformed_recipe(tmp_path, capsys, json.loads(rec.read_text()),
                            _set(["params", "gamma"], gamma),
                            getattr(barriers, RECIPE_VERIFIERS[kind]))


def test_zero_height_lattice_made_in_python_is_refused():
    # from_dict refuses a zero lattice; a recipe edited in Python is refused
    # by its load check, not by a ZeroDivisionError in the decomposition
    from racelab.barriers import build_thm311, verify_thm311
    from racelab.simulator import RecipeMismatchError

    recipe = build_thm311(7)
    recipe.params["gamma"] = recipe.system.height_lattice = 0.0
    with pytest.raises(RecipeMismatchError, match="height lattice 0.0"):
        verify_thm311(recipe)


def _add_zero(payload):
    payload["system"]["zeros"].append(
        {"chi": 2, "beta": 0.95, "gamma": 3003.0, "mult": 5})


def _add_carrier_zero(payload):
    # the carrier's last zero (k = 7 on chi^h, or chi2 on Z4 x Z2) again
    # at k = 8
    zero = dict(payload["system"]["zeros"][-1], mult=1)
    zero["gamma"] = 8 * payload["params"]["gamma"]
    payload["system"]["zeros"].append(zero)


def _add_zero_above(payload):
    # the last zero again, one lattice step above the top height
    zero = dict(payload["system"]["zeros"][-1], mult=1)
    zero["gamma"] += payload["system"]["height_lattice"]
    payload["system"]["zeros"].append(zero)


def _overflowing_lattice(payload):
    # every zero at one lattice step of 3e307, so 7 steps, the template's
    # top height, overflow
    payload["params"]["gamma"] = payload["system"]["height_lattice"] = 3e307
    for zero in payload["system"]["zeros"]:
        zero["gamma"] = 3e307


ZERO_RECIPES = {**README_RECIPES, "thm311-q15": [
    "barrier", "build", "thm311", "--q", 15, "--tau", 1000]}


@pytest.mark.parametrize("name, edit", [
    ("thm51", _add_zero),  # on the lattice, but no level's zero
    ("thm311", _set(["system", "zeros", 0, "beta"], 0.95)),
    # the first zero is the weight-6 one, 3 of them at 6 gamma on chi^2
    ("thm311", _set(["system", "zeros", 0, "mult"], 4)),
    ("thm311", _set(["system", "zeros", 0, "mult"], 10**9)),
    ("thm311", _add_carrier_zero),
    # the first zero is chi1's, 1 of it at gamma
    ("thm311-q15", _set(["system", "zeros", 0, "mult"], 2)),
    ("thm311-q15", _set(["system", "zeros", 0, "mult"], 10**9)),
    ("thm311-q15", _add_carrier_zero),
    ("thm311", _overflowing_lattice),
    # the first zero is 79 of them at gamma on chi
    ("thm43", _set(["system", "zeros", 0, "mult"], 80)),
    ("thm43", _add_zero_above),
    ("thm43", lambda payload: payload["system"]["zeros"].pop()),
], ids=["thm51-extra-zero", "thm311-beta-moved", "thm311-mult-3-to-4",
        "thm311-mult-1e9", "thm311-extra-carrier-zero", "thm311-q15-mult-1-to-2",
        "thm311-q15-mult-1e9", "thm311-q15-extra-carrier-zero",
        "thm311-lattice-overflows", "thm43-mult-79-to-80",
        "thm43-extra-zero", "thm43-dropped-zero"])
def test_zero_the_params_do_not_emit_is_config_error(tmp_path, capsys, name,
                                                     edit):
    # the load check compares the zeros with the ones the params emit, so
    # an edited zero is refused before anything is verified, simulated or
    # counted
    from racelab import barriers
    from racelab.simulator import RecipeMismatchError
    from racelab.zerosys import ZeroSystem

    rec = tmp_path / "rec.json"
    assert run([*ZERO_RECIPES[name], "--out", rec]) == 0
    capsys.readouterr()
    payload = json.loads(rec.read_text())
    assert_malformed_recipe(tmp_path, capsys, copy.deepcopy(payload), edit)
    # the same system edit on a recipe in Python
    recipe = barriers.BarrierRecipe.from_json(rec.read_text())
    edit(payload)
    recipe.system = ZeroSystem.from_dict(payload["system"])
    with pytest.raises(RecipeMismatchError):
        getattr(barriers, RECIPE_VERIFIERS[name.split("-")[0]])(recipe)


@pytest.mark.parametrize("q", ["seven", 10**9, 7.0, True, 15])
@pytest.mark.parametrize("command", ["barrier verify", "simulate", "orderings"])
def test_recipe_q_not_its_systems_is_config_error(tmp_path, capsys, q,
                                                   command):
    from racelab.barriers import BarrierRecipe
    from racelab.simulator import RecipeMismatchError

    payload = json.loads(built_thm311(tmp_path, capsys).read_text())
    payload["q"] = q
    rec = tmp_path / "bad.json"
    rec.write_text(json.dumps(payload))
    with pytest.raises(RecipeMismatchError, match="is not its system's q 7"):
        BarrierRecipe.from_json(rec.read_text())
    out = tmp_path / "out"
    assert_config_error([*command.split(), "--recipe", rec, "--out", out],
                        capsys)
    assert not out.exists()


def test_dump_json_writes_records_by_their_to_dict(tmp_path):
    # tuple records would otherwise be written as JSON lists, since json
    # hands `default` only the objects it cannot serialize itself
    import numpy as np
    from racelab.orderings import OrderingTrace, Verdict, census
    from racelab.primes import ComparisonReport
    from racelab.trigpoly import SearchCertificate

    u = np.linspace(0.0, 6.0, 61)
    records = [
        SearchCertificate(u=1.0, margins=(0.5, 0.25), derivative_bound=2.0,
                          grid_step=1e-3),
        Verdict("kt_all_pairs", True, {"missing_pairs": []}),
        ComparisonReport(q=3, a=2, b=1, sigma=0.5, checkpoints=np.array([1e3]),
                         scaled_difference=np.array([0.5]),
                         predicted=np.array([0.25]), sign_agreement=1.0,
                         bias_constant=0.5),
        census(OrderingTrace(u=u, members=(1, 2),
                             values=np.vstack([np.sin(u), np.cos(u)]))),
    ]
    out = tmp_path / "payload.json"
    cli._dump_json(out, {"one": records[0], "nested": [{"r": r} for r in records]})
    written = json.loads(out.read_text())
    expected = [json.loads(json.dumps(r.to_dict(), default=cli._coerce))
                for r in records]
    assert written["one"] == expected[0]
    assert [item["r"] for item in written["nested"]] == expected
