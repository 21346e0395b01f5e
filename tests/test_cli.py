"""Command line interface: exit codes, JSON payloads, and file outputs."""

import copy
import json

import numpy as np
import pytest
from click.testing import CliRunner

from cdo_compat import opt_backend
from cdo_compat.cli import main
from cdo_compat.dpm_core import dpm_from_csv, validate_dpm
from cdo_compat.market_model import load_snapshot, snapshot_to_dict
from cdo_compat.strong_compat import h_matrix, qij_from_p
from cdo_compat.tranche_valuation import coefficients_for, expected_npv

from conftest import SNAPSHOT_PATH

HAZARD_58 = 0.009637545116761553
F_AT_MATURITY_58 = 0.04704512372552838


@pytest.fixture()
def runner():
    return CliRunner()


def _write_snapshot(tmp_path, raw, name="snap.json"):
    target = tmp_path / name
    target.write_text(json.dumps(raw))
    return str(target)


def _torn_path(snapshot, tmp_path):
    raw = snapshot_to_dict(snapshot)
    clone = copy.deepcopy(raw["tranches"][0])
    clone["quote_value"] = 50.0
    raw["tranches"].append(clone)
    return _write_snapshot(tmp_path, raw, "torn.json")


def _far_path(snapshot, tmp_path):
    # with the 12-100% tranche at 300 bp no N=50 law prices every quote
    raw = snapshot_to_dict(snapshot)
    raw["tranches"][3]["quote_value"] = 300.0
    return _write_snapshot(tmp_path, raw, "far.json")


def _banded_path(snapshot, tmp_path, crossed=False):
    raw = snapshot_to_dict(snapshot)
    widths = [(0.3, 0.3), (0.3, 0.3), (2.0, 2.0), (2.0, 2.0)]
    for tr, (down, up) in zip(raw["tranches"], widths):
        q = tr["quote_value"]
        tr["bid_value"] = q + down if crossed else q - down
        tr["ask_value"] = q - down if crossed else q + up
    return _write_snapshot(tmp_path, raw, "banded.json")


def test_calibrate_reports_the_fitted_curve(runner, tmp_path):
    out = tmp_path / "curve.json"
    res = runner.invoke(main, ["calibrate", "-i", str(SNAPSHOT_PATH), "--json",
                               "--out", str(out)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert json.loads(out.read_text()) == payload
    assert payload["hazard"] == pytest.approx(HAZARD_58, rel=1e-10)
    assert payload["implied_index_spread_bps"] == pytest.approx(58.0, abs=1e-6)
    assert payload["pv01"] > 0.0
    marginals = payload["marginals"]
    assert len(marginals) == 20
    assert marginals[-1]["default_probability"] == pytest.approx(
        F_AT_MATURITY_58, rel=1e-10)


def test_calibrate_writes_a_marginal_csv(runner, tmp_path):
    out = tmp_path / "curve.csv"
    res = runner.invoke(main, ["calibrate", "-i", str(SNAPSHOT_PATH),
                               "--out", str(out), "--format", "csv"])
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time,default_probability"
    assert len(lines) == 21


def test_verify_weak_passes_and_writes_the_certificate(runner, snapshot,
                                                      tmp_path):
    out = tmp_path / "dpm.csv"
    res = runner.invoke(main, ["verify-weak", "-i", str(SNAPSHOT_PATH),
                               "--json", "--out", str(out)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["compatible"] is True
    _, dpm = dpm_from_csv(out)
    assert validate_dpm(dpm.q).valid
    # a snapshot with no tranches has no quote row: any law is a certificate
    raw = snapshot_to_dict(snapshot)
    raw["tranches"] = []
    path = _write_snapshot(tmp_path, raw, "no_tranches.json")
    for argv in (["verify-weak"], ["verify-strong", "--resolution", "50"]):
        res = runner.invoke(main, argv[:1] + ["-i", path] + argv[1:] + ["--json"])
        assert res.exit_code == 0, argv
        assert json.loads(res.output)["compatible"] is True
        assert json.loads(res.output)["slack"] == []


def test_verdicts_report_the_slack_of_each_quote(runner, snapshot, tmp_path):
    res = runner.invoke(main, ["verify-weak", "-i", str(SNAPSHOT_PATH), "--json"])
    assert res.exit_code == 0
    slack = json.loads(res.output)["slack"]
    assert len(slack) == 4
    assert max(abs(s) for s in slack) <= opt_backend.FEASIBILITY_TOL
    # the torn snapshot's second equity quote (50%) sits far above the first
    torn = _torn_path(snapshot, tmp_path)
    argv = ["verify-strong", "-i", torn, "--resolution", "50"]
    res = runner.invoke(main, argv + ["--json"])
    assert res.exit_code == 1
    slack = json.loads(res.output)["slack"]
    assert len(slack) == 5
    assert max(abs(s) for s in slack) > opt_backend.FEASIBILITY_TOL
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert "largest slack: tranche [0,0.03] quote too high by" in res.output
    assert "pct of width" in res.output


def test_verify_weak_flags_incompatible_quotes(runner, snapshot, tmp_path):
    res = runner.invoke(main, ["verify-weak", "-i",
                               _torn_path(snapshot, tmp_path)])
    assert res.exit_code == 1
    assert "no" in res.output


def test_verify_strong_single_resolution(runner, tmp_path):
    out = tmp_path / "law.csv"
    res = runner.invoke(main, ["verify-strong", "-i", str(SNAPSHOT_PATH),
                               "--resolution", "50", "--json",
                               "--out", str(out)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["compatible"] is True
    assert payload["resolution"] == 50
    _, law = dpm_from_csv(out)
    assert law.n == 50


def test_verify_strong_iterative_walk(runner):
    res = runner.invoke(main, ["verify-strong", "-i", str(SNAPSHOT_PATH),
                               "--n-seq", "50,75", "--json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["compatible"] is True
    assert payload["final_resolution"] in (50, 75)
    assert payload["failing_tranche"] is None
    assert payload["ranges"]


def test_verify_bid_ask_weak_mode(runner, snapshot, tmp_path):
    res = runner.invoke(main, ["verify-bid-ask", "-i",
                               _banded_path(snapshot, tmp_path), "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["compatible"] is True


def test_verify_bid_ask_strong_mode(runner, snapshot, tmp_path):
    res = runner.invoke(main, ["verify-bid-ask", "-i",
                               _banded_path(snapshot, tmp_path), "--mode",
                               "strong", "--resolution", "50", "--json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["compatible"] is True
    assert payload["mode"] == "strong"


def test_verify_strong_walk_ends_without_a_traceback(runner, snapshot,
                                                     tmp_path):
    # with equity at 40% the mezzanine is accepted only at N=75; the walk
    # goes on from there, since no coarser N prices the tranches before it,
    # and ends on the senior tranche, whose quote lies outside its weak range
    raw = snapshot_to_dict(snapshot)
    raw["tranches"][0]["quote_value"] = 40.0
    res = runner.invoke(main, ["verify-strong", "-i",
                               _write_snapshot(tmp_path, raw)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.splitlines()[1].startswith(
        "tranche [0.12,1] quote 27.4400 bps lies outside [19.03")
    assert res.output.splitlines()[1].endswith(
        "no law prices the quotes at any N")


@pytest.mark.parametrize("senior_bps, rule, lines", [
    (None, "accepted", ["strongly compatible: yes", "final resolution: 50"]),
    # far above the senior tranche's weak range [27.32, 27.81] bp
    (300.0, "weak_bound",
     ["strongly compatible: no (tranche 3 out of range)",
      "tranche [0.12,1] quote 300.0000 bps lies outside [27.3198, 27.8087] "
      "bps, its range over every DPM that prices the tranches before it: no "
      "law prices the quotes at any N"]),
    # inside the weak range, above every strong range the walk computes;
    # the N=50 and N=75 upper ends differ by 0.002 bp, below eps
    (27.805, "stabilized",
     ["strongly compatible: no (tranche 3 out of range)",
      "final resolution: 75",
      "tranche [0.12,1] quote 27.8050 bps lies outside [27.3245, 27.8001] "
      "bps, its range at N=75, which stopped moving: no law up to N = 75 "
      "(not a proof for larger N)"]),
], ids=["fixture", "far", "stabilizing"])
def test_verify_strong_reports_the_rule_that_ended_the_walk(
        runner, snapshot, tmp_path, senior_bps, rule, lines):
    raw = snapshot_to_dict(snapshot)
    if senior_bps is not None:
        raw["tranches"][3]["quote_value"] = senior_bps
    argv = ["verify-strong", "-i", _write_snapshot(tmp_path, raw)]
    res = runner.invoke(main, argv + ["--json"])
    assert res.exit_code == (0 if rule == "accepted" else 1)
    payload = json.loads(res.output)
    assert payload["rule"] == rule
    assert (payload["weak_range"] is None) == (rule != "weak_bound")
    assert (payload["final_resolution"] is None) == (rule == "weak_bound")
    assert runner.invoke(main, argv).output.splitlines() == lines


def test_solver_failure_is_not_an_incompatible_verdict(runner, snapshot,
                                                       tmp_path, monkeypatch):
    monkeypatch.setattr(opt_backend, "solve_lp", lambda lp: opt_backend.SolveResult(
        opt_backend.SolveStatus.NUMERICAL_FAILURE, message="forced failure"))
    banded = _banded_path(snapshot, tmp_path)
    for argv in (["verify-weak", "-i", str(SNAPSHOT_PATH)],
                 ["verify-bid-ask", "-i", banded],
                 ["verify-bid-ask", "-i", banded, "--mode", "strong",
                  "--resolution", "50"],
                 ["verify-strong", "-i", str(SNAPSHOT_PATH),
                  "--resolution", "50"],
                 ["hedge", "-i", str(SNAPSHOT_PATH)],
                 ["simulate", "-i", str(SNAPSHOT_PATH), "--resolution", "50"]):
        res = runner.invoke(main, argv + ["--json"])
        assert res.exit_code == 2, argv
        assert json.loads(res.output)["status"] == "numerical_failure"


@pytest.mark.parametrize("torn, argv, message", [
    (True, ["hedge"], "weakly compatible: no; no hedge"),
    (True, ["simulate", "--resolution", "50"],
     "strongly compatible at N=50: no; no simulation"),
    (True, ["bounds-tranche", "--attach", "0.04", "--detach", "0.08",
            "--kind", "upfront", "--running-bps", "100"],
     "quoted tranches are not weakly compatible"),
    (False, ["bounds-names", "--names", "150", "--attach", "0.06",
             "--detach", "0.12", "--resolution", "50"],
     "no strong solution at N=50"),
])
def test_incompatible_quotes_exit_1_with_the_reason(runner, snapshot, tmp_path,
                                                    torn, argv, message):
    path = (_torn_path if torn else _far_path)(snapshot, tmp_path)
    res = runner.invoke(main, argv[:1] + ["-i", path] + argv[1:])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.splitlines()[0] == message


def test_verify_bid_ask_rejects_crossed_bands(runner, snapshot, tmp_path):
    res = runner.invoke(main, ["verify-bid-ask", "-i",
                               _banded_path(snapshot, tmp_path, crossed=True)])
    assert res.exit_code == 2
    assert "error" in res.output


def test_ranges_contain_every_quote(runner, tmp_path):
    out = tmp_path / "ranges.json"
    res = runner.invoke(main, ["ranges", "-i", str(SNAPSHOT_PATH),
                               "--n-seq", "50", "--json", "--out", str(out)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert json.loads(out.read_text()) == payload
    assert set(payload) == {"50"}
    assert len(payload["50"]) == 4
    for entry in payload["50"]:
        assert entry["inside"] is True
        assert entry["lower"] <= entry["quote"] <= entry["upper"]


def test_ranges_report_an_empty_polytope_without_a_traceback(runner, snapshot,
                                                            tmp_path):
    # with the 12-100% tranche at 300 bp, or a second equity quote at 50%,
    # no N=50 law prices the quotes other than the equity tranche, so its
    # range has no feasible region
    for path in (_far_path(snapshot, tmp_path), _torn_path(snapshot, tmp_path)):
        res = runner.invoke(main, ["ranges", "-i", path, "--n-seq", "50"])
        assert res.exit_code == 1, path
        assert isinstance(res.exception, SystemExit)
        assert res.output.strip() == ("no strong solution at N=50 prices the "
                                      "quotes other than tranche [0,0.03]")


def test_bounds_tranche_pins_the_index_spread(runner, tmp_path):
    out = tmp_path / "bounds.json"
    res = runner.invoke(main, ["bounds-tranche", "-i", str(SNAPSHOT_PATH),
                               "--attach", "0.0", "--detach", "1.0",
                               "--kind", "spread", "--json", "--out", str(out)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert json.loads(out.read_text()) == payload
    assert payload["units"] == "bps"
    assert payload["lower"] == pytest.approx(57.4946, abs=1e-3)
    assert payload["upper"] == pytest.approx(57.4946, abs=1e-3)


def test_bounds_tranche_sweeps_detachments(runner, tmp_path):
    out = tmp_path / "sweep.json"
    res = runner.invoke(main, ["bounds-tranche", "-i", str(SNAPSHOT_PATH),
                               "--attach", "0.0", "--kind", "upfront",
                               "--running-bps", "100", "--detach", "0.03,0.05",
                               "--json", "--out", str(out)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert json.loads(out.read_text()) == payload
    assert [e["tranche"] for e in payload] == ["[0,0.03]", "[0,0.05]"]
    assert payload[0]["lower"] == pytest.approx(28.438, abs=1e-3)


def test_bounds_names_recovers_the_quote_at_the_standard_size(runner,
                                                              tmp_path):
    out = tmp_path / "names.json"
    res = runner.invoke(main, ["bounds-names", "-i", str(SNAPSHOT_PATH),
                               "--names", "125", "--attach", "0.06",
                               "--detach", "0.12", "--kind", "spread",
                               "--resolution", "50", "--json", "--out", str(out)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert json.loads(out.read_text()) == payload
    assert payload["names"] == 125
    assert payload["lower"] == pytest.approx(106.32, abs=1e-2)
    assert payload["upper"] == pytest.approx(106.32, abs=1e-2)


def test_hedge_reports_deltas_that_sum_near_one(runner, tmp_path):
    out = tmp_path / "hedge.json"
    res = runner.invoke(main, ["hedge", "-i", str(SNAPSHOT_PATH), "--json",
                               "--out", str(out)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    deltas = [t["delta"] for t in payload["tranches"]]
    assert 0.9 < sum(deltas) < 1.1
    assert json.loads(out.read_text()) == payload


@pytest.mark.parametrize("shift", ["0", "nan"])
def test_hedge_rejects_a_bump_without_a_response(runner, shift):
    res = runner.invoke(main, ["hedge", "-i", str(SNAPSHOT_PATH),
                               "--shift-bps", shift])
    assert res.exit_code == 2
    assert "error: spread bump must be finite and non-zero" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("argv", [
    ["hedge", "--shift-bps", "0"],
    ["hedge", "--shift-bps", "nan"],
    ["simulate", "--resolution", "50", "--paths", "0"],
    ["simulate", "--resolution", "50", "--positions", "1,2"],
    ["simulate", "--resolution", "50", "--positions", "nan,1,1,1,1"],
])
def test_input_errors_are_reported_before_any_verdict(runner, snapshot,
                                                      tmp_path, argv):
    # on the torn snapshot a solve would end in "no hedge" / "no simulation"
    res = runner.invoke(main, argv[:1] + ["-i", _torn_path(snapshot, tmp_path)]
                        + argv[1:])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")
    assert res.stdout == ""


@pytest.mark.parametrize("far, law_argv, misprice", [
    # the fixture's N=50 law on the 12-100% tranche quoted at 300 bp
    (True, ["verify-strong", "--resolution", "50"], "1.117e-01"),
    # the weak certificate, read as a generator law at N = 125; its misprice
    # depends on the vertex, so it is recomputed from the stored law
    (False, ["verify-weak"], None),
], ids=["n50-law-on-far", "weak-certificate"])
def test_simulate_refuses_a_stored_law_that_misprices_a_quote(
        runner, snapshot, tmp_path, far, law_argv, misprice):
    law = tmp_path / "law.csv"
    res = runner.invoke(main, law_argv[:1] + ["-i", SNAPSHOT_PATH, "--out",
                                              str(law)] + law_argv[1:])
    assert res.exit_code == 0
    path = _far_path(snapshot, tmp_path) if far else SNAPSHOT_PATH
    if misprice is None:
        _, stored = dpm_from_csv(str(law))
        q = qij_from_p(stored, h_matrix(snapshot.portfolio.n, stored.n))
        worst = max(abs(expected_npv(q, c))
                    for c in coefficients_for(load_snapshot(path)))
        misprice = f"{worst:.3e}"
    res = runner.invoke(main, ["simulate", "-i", path, "--solution", str(law),
                               "--paths", "100"])
    assert res.exit_code == 2
    assert res.stderr.startswith(
        f"error: law misprices a quoted tranche by {misprice}")


def test_simulate_writes_sample_paths(runner, tmp_path):
    out = tmp_path / "paths.csv"
    res = runner.invoke(main, ["simulate", "-i", str(SNAPSHOT_PATH),
                               "--paths", "400", "--seed", "3",
                               "--resolution", "50", "--out", str(out),
                               "--json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["n_paths"] == 400
    header = out.read_text().splitlines()[0].split(",")
    assert header[0] == "path_id"
    assert header[1] == "N_T1" and header[20] == "N_T20"
    assert header[-1] == "V_portfolio"
    assert len(out.read_text().strip().splitlines()) == 401
    t = np.array(payload["t_stat"])
    assert np.all(np.abs(t) < 6.0)


def test_missing_input_file_is_a_usage_error(runner, tmp_path):
    res = runner.invoke(main, ["verify-weak", "-i",
                               str(tmp_path / "absent.json")])
    assert res.exit_code == 2


def test_malformed_snapshot_reports_an_error(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["calibrate", "-i", str(bad)])
    assert res.exit_code == 2
    assert "error" in res.output


# a non-finite value of each number that a snapshot prices with
NON_FINITE = {"index_spread_bps": "nan", "rate_pct": "nan", "recovery": "nan",
              "fixed_running_bps": "nan", "quote_value": "inf",
              "bid_value": "nan", "ask_value": "-inf"}


def _malformed_argv(case, snapshot, tmp_path):
    raw = snapshot_to_dict(snapshot)
    value, _, key = case.partition(" ")
    if key in NON_FINITE:
        if key in raw:
            raw[key] = float(value)
            return ["calibrate", "-i", _write_snapshot(tmp_path, raw)]
        for tr in raw["tranches"]:
            tr["bid_value"] = tr["ask_value"] = tr["quote_value"]
        raw["tranches"][1][key] = float(value)
        return ["verify-weak", "-i", _write_snapshot(tmp_path, raw)]
    if case == "rate_pct":
        del raw["rate_pct"]
        return ["calibrate", "-i", _write_snapshot(tmp_path, raw)]
    if case == "quote_value":
        del raw["tranches"][1]["quote_value"]
        return ["verify-weak", "-i", _write_snapshot(tmp_path, raw)]
    if case == "years":
        raw["schedule"]["years"] = 0
        return ["calibrate", "-i", _write_snapshot(tmp_path, raw)]
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    return ["hedge", "-i", str(SNAPSHOT_PATH), "--prior", str(empty)]


@pytest.mark.parametrize("case", ["rate_pct", "quote_value", "years",
                                  "empty prior"] + [
    f"{value} {key}" for key, value in NON_FINITE.items()])
def test_malformed_input_is_an_error_not_a_verdict(runner, snapshot, tmp_path,
                                                   case):
    res = runner.invoke(main, _malformed_argv(case, snapshot, tmp_path))
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error:")
    if case not in ("years", "empty prior"):
        assert case.split()[-1] in res.stderr
