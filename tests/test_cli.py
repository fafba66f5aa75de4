"""CLI contract: subcommands, flags, exit codes, report determinism."""

import json

import pytest

from phwc_lab import cli
from phwc_lab.errors import ConfigError
from phwc_lab.report import RunConfig, report_json, run_checks


def run_cli(args):
    return cli.main(args)


class TestList:
    def test_exit_and_content(self, capsys):
        assert run_cli(["list"]) == 0
        out = capsys.readouterr().out
        for sid in ("hopf-s3", "warped-hopf", "flat-holo"):
            assert sid in out


class TestRun:
    def test_flat_holo_all_checks(self, capsys, tmp_path):
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        code = run_cli(
            ["run", "--scenario", "flat-holo", "--json", str(jpath), "--csv", str(cpath)]
        )
        assert code == 0
        doc = json.loads(jpath.read_text())
        assert doc["schema"] == "phwc-lab-report/1"
        assert doc["body"]["all_verdicts_match"] is True
        assert "wall_time_seconds" in doc["meta"]
        lines = cpath.read_text().strip().splitlines()
        assert lines[0].startswith("check,residual,max,tolerance")
        assert len(lines) > 5

    def test_check_subset(self, capsys):
        code = run_cli(["run", "--scenario", "flat-holo", "--checks", "phwc,energy"])
        assert code == 0
        out = capsys.readouterr().out
        assert "phwc" in out and "tension" not in out

    def test_unknown_scenario_exit_2(self, capsys):
        assert run_cli(["run", "--scenario", "nope"]) == 2

    def test_unknown_check_exit_2(self, capsys):
        assert run_cli(["run", "--scenario", "flat-holo", "--checks", "bogus"]) == 2

    def test_bad_tol_exit_2(self, capsys):
        assert run_cli(["run", "--scenario", "flat-holo", "--tol", "phwc"]) == 2
        # a name no check reads would be recorded in the body and do nothing
        assert run_cli(["run", "--scenario", "flat-holo", "--checks", "phwc",
                        "--tol", "phwcc=1e-30"]) == 2

    def test_out_of_range_flag_exit_2(self, capsys):
        assert run_cli(["run", "--scenario", "flat-holo", "--fd-step", "1.0"]) == 2

    def test_registration_failure_exit_2(self, capsys):
        # a coarse step breaks the criticality expectation at registration
        code = run_cli(["run", "--scenario", "hopf-s3", "--checks", "phwc", "--fd-step", "1e-2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "failed registration validation" in err
        # the criticality refusal names its tolerance, not a library-only option
        assert "exceeds 0.0001" in err and "allow_noncritical" not in err

    def test_verdict_mismatch_exit_1(self, capsys):
        # impossible witness threshold turns the negative control into a mismatch
        code = run_cli(
            ["run", "--scenario", "warped-hopf", "--checks", "criticality",
             "--tol", "criticality_witness=1e6"]
        )
        assert code == 1

    def test_numerical_failure_exit_3(self, capsys, monkeypatch):
        from phwc_lab.errors import NotCritical

        def boom(cfg):
            raise NotCritical("forced")

        monkeypatch.setattr(cli, "run_checks", boom)
        assert run_cli(["run", "--scenario", "flat-holo"]) == 3

    def test_out_of_memory_exit_3(self, capsys, monkeypatch):
        def boom(cfg):
            raise MemoryError("Unable to allocate 13.1 GiB")

        monkeypatch.setattr(cli, "run_checks", boom)
        assert run_cli(["run", "--scenario", "flat-holo"]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: out of memory: Unable to allocate 13.1 GiB\n"

    def test_config_file_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": ["phwc"], "seed": 3}))
        code = run_cli(["run", "--scenario", "flat-holo", "--config", str(cfg), "--seed", "4"])
        assert code == 0

    @pytest.mark.parametrize("order", [-2, "6"])
    def test_config_bad_stability_order_exit_2(self, tmp_path, capsys, order):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": ["stability"], "stability_order": order}))
        assert run_cli(["run", "--scenario", "flat-holo", "--config", str(cfg)]) == 2

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quadrture_order": 5}))
        assert run_cli(["run", "--scenario", "flat-holo", "--config", str(cfg)]) == 2


class TestIdentities:
    def test_single_scenario(self, capsys, tmp_path):
        jpath = tmp_path / "rows.json"
        code = run_cli(["identities", "--scenario", "flat-holo", "--points", "40",
                        "--json", str(jpath)])
        assert code == 0
        rows = json.loads(jpath.read_text())
        suites = {r["suite"] for r in rows}
        assert {"pullback_metric_derivative", "pushforward_parallelism", "semiconformal_divergence", "codifferential_expansion", "vertical_codifferential"} <= suites
        assert all(r["passed"] for r in rows)


class TestDeterminism:
    def test_byte_identical_bodies(self):
        cfg = RunConfig(scenario_id="flat-holo", checks=("phwc", "energy", "criticality"))
        body1 = run_checks(cfg)
        body2 = run_checks(cfg)
        s1 = report_json({"body": body1})
        s2 = report_json({"body": body2})
        assert s1 == s2

    def test_seed_changes_sample_points_only(self):
        b1 = run_checks(RunConfig(scenario_id="flat-holo", checks=("phwc",), seed=0))
        b2 = run_checks(RunConfig(scenario_id="flat-holo", checks=("phwc",), seed=1))
        assert b1["config"]["seed"] != b2["config"]["seed"]


class TestRunConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"scenario_id": "flat-holo", "nope": 1})

    @pytest.mark.parametrize(
        "key,value",
        [("quadrature_order", 1), ("fd_step", 1.0), ("alpha", -1.0), ("p", 0.5),
         ("sample_points", 1), ("stability_fields", 0), ("stability_order", 0),
         ("stability_order", 1), ("stability_order", 2.5), ("stability_order", -2),
         ("stability_order", 65)],
    )
    def test_range_validation(self, key, value):
        with pytest.raises(ConfigError):
            RunConfig(scenario_id="flat-holo", **{key: value})


class TestToleranceOverrides:
    """Each name a run may override reaches the residual entries that read it."""

    # name -> (scenario, check, {residual entry: tolerance / override})
    CASES = {
        # warped-hopf declares its own phwc tolerance; the run's wins
        "phwc": ("warped-hopf", "phwc",
                 {"phwc_commutator_nodes": 1, "phwc_coordinates_samples": 10}),
        "semiconformal": ("flat-holo", "semiconformal", {"dilation": 1}),
        "tension": ("flat-holo", "tension", {"tension_nodes": 1}),
        "criticality": ("flat-holo", "criticality", {"criticality_nodes": 1}),
        "mean_curvature": ("flat-holo", "semiconformal", {"mean_curvature": 1}),
        "hessian_floor": ("hopf-s3", "stability",
                          {"sampled_nonnegativity": 1, "span_nonnegativity": 1}),
        "criticality_witness": ("warped-hopf", "criticality", {}),
    }

    def test_cases_cover_run_tolerances(self):
        from phwc_lab.validation import RUN_TOLERANCES

        assert sorted(self.CASES) == sorted(RUN_TOLERANCES)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_override_reaches_body(self, name):
        scenario, check, entries = self.CASES[name]
        value = 1e6 if name == "criticality_witness" else 0.125
        cfg = RunConfig(scenario_id=scenario, checks=(check,), tolerances={name: value},
                        stability_order=6, stability_fields=4)
        out = run_checks(cfg)["checks"][check]
        assert out["residuals"] and out["verdicts"]
        for entry, scale in entries.items():
            assert out["residuals"][entry]["tolerance"] == value * scale, entry
        if name == "criticality_witness":
            # the witness is a verdict threshold: no criticality residual reaches 1e6
            assert out["verdicts"]["noncritical_witness"] is False
            assert out["verdicts"]["matches_expected"] is False
