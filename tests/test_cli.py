"""CLI contract: subcommands, flags, exit codes, report determinism."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import phwc_lab

from phwc_lab import cli, scenarios
from phwc_lab.errors import ConfigError
from phwc_lab.report import RunConfig, report_json, run_checks
from phwc_lab.scenarios import scenario_ids


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

    def test_meta_records_the_memo_and_peak_memory(self, capsys, tmp_path):
        jpath = tmp_path / "report.json"
        args = ["run", "--scenario", "hopf-s3", "--checks", "criticality,equivalence"]
        assert run_cli([*args, "--json", str(jpath)]) == 0
        doc = json.loads(jpath.read_text())
        meta = doc["meta"]
        assert set(meta) == {
            "wall_time_seconds",
            "memo_hits",
            "memo_misses",
            "memo_held_bytes",
            "memo_flushes",
            "peak_rss_mib",
        }
        assert meta["memo_hits"] > 0 and meta["memo_misses"] > 0
        assert 0 < meta["memo_held_bytes"] and meta["peak_rss_mib"] > 1.0
        assert meta["memo_flushes"] == 0
        # body holds what run_checks returns, and nothing of meta
        cfg = RunConfig("hopf-s3", checks=("criticality", "equivalence"))
        assert report_json(doc["body"]) == report_json(run_checks(cfg))

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
        assert run_cli(["run", "--scenario", "flat-holo", "--order", "1"]) == 2
        assert capsys.readouterr().err == "configuration error: quadrature_order must be in [2, 64]\n"

    def test_fd_step_is_a_usage_error(self, capsys):
        # no run entry differentiates by a step, so there is no step to set
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--help"])
        assert exc.value.code == 0
        assert "--seed" in (usage := capsys.readouterr().out) and "--fd-step" not in usage
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--scenario", "flat-holo", "--fd-step", "1e-5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fd-step" in capsys.readouterr().err

    def test_registration_failure_exit_2(self, capsys, monkeypatch):
        # hopf-s3's builder hands registration a non-critical map, the warped
        # Hopf map, under hopf-s3's expectations: its criticality is refused
        def warped_as_hopf_s3(order):
            sc = scenarios._build_warped_hopf(order)
            sc.expected = scenarios._build_hopf(1, order).expected
            return sc

        monkeypatch.setattr(scenarios, "_CACHE", {})
        monkeypatch.setitem(scenarios._BUILDERS, "hopf-s3", warped_as_hopf_s3)
        code = run_cli(["run", "--scenario", "hopf-s3", "--checks", "phwc"])
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

    def test_hopf_s7_order_8_hessian_fits_in_one_gib(self):
        # registration and the check read only the torus rules, so the
        # 8^7-node full rule, whose rank profile alone needs a 784 MiB
        # array, is never built
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(phwc_lab.__file__).parents[1]))

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        out = subprocess.run(
            [sys.executable, "-m", "phwc_lab.cli", "run", "--scenario", "hopf-s7",
             "--checks", "hessian", "--order", "8"],
            env=env, preexec_fn=cap, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert "all verdicts match expectations" in out.stdout

    def test_config_file_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": ["phwc"], "seed": 3}))
        code = run_cli(["run", "--scenario", "flat-holo", "--config", str(cfg), "--seed", "4"])
        assert code == 0

    @pytest.mark.parametrize("key", ["stability_fields", "stability_order"])
    def test_config_removed_stability_key_exit_2(self, tmp_path, capsys, key):
        # the span spectrum at the default order is the one stability
        # criterion: no sample count and no order to set
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": ["stability"], key: 10}))
        assert run_cli(["run", "--scenario", "flat-holo", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"configuration error: unknown config keys: {key}\n"
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--scenario", "flat-holo", "--" + key.replace("_", "-"), "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_every_run_flag_reaches_a_config_field(self):
        # a flag that no longer sets a RunConfig field would be dangling
        run = next(a for a in cli._parser()._actions if a.dest == "command").choices["run"]
        others = {"--scenario", "--checks", "--tol", "--config", "--json", "--csv", "--help"}
        flags = [a.option_strings[-1] for a in run._actions if a.option_strings[-1] not in others]
        assert flags
        default = cli._build_config(run.parse_args(["--scenario", "flat-holo"]))
        for flag in flags:
            cfg = cli._build_config(run.parse_args(["--scenario", "flat-holo", flag, "5"]))
            assert cfg != default, flag

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quadrture_order": 5}))
        assert run_cli(["run", "--scenario", "flat-holo", "--config", str(cfg)]) == 2

    def test_empty_check_flag_exit_2(self, capsys):
        assert run_cli(["run", "--scenario", "flat-holo", "--checks", ","]) == 2
        captured = capsys.readouterr()
        assert captured.err == "configuration error: no checks selected\n"
        assert "all verdicts match" not in captured.out

    def test_empty_check_list_in_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": []}))
        assert run_cli(["run", "--scenario", "hopf-s3", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "configuration error: no checks selected\n"

    def test_negative_seed_exit_2(self, capsys):
        assert run_cli(["run", "--scenario", "flat-holo", "--checks", "phwc", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "configuration error: seed must be >= 0\n"

    @pytest.mark.parametrize(
        "config, flags, key",
        [
            ({"fd_step": "1e-5"}, [], "fd_step"),  # an unknown key, whatever its value
            ({"sample_points": 10.5}, [], "sample_points"),
            ({}, ["--tol", "phwc=abc"], "phwc"),
            ({"tolerances": {"phwc": "x"}}, [], "phwc"),
        ],
        ids=["str-fd-step", "float-sample-points", "flag-tol", "config-tol"],
    )
    def test_wrong_type_exit_2_naming_the_key(self, tmp_path, capsys, config, flags, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": ["phwc"], **config}))
        code = run_cli(["run", "--scenario", "flat-holo", "--config", str(cfg), *flags])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: ") and key in err[0]

    @pytest.mark.parametrize(
        "text, flags, key",
        [
            ("[1, 2]", [], "JSON object"),
            ('{"checks": 5}', [], "checks"),
            ('{"checks": ["phwc"], "alpha": NaN}', [], "alpha"),
            ('{"checks": ["phwc"], "tolerances": "x"}', ["--tol", "phwc=1e-8"], "tolerances"),
        ],
        ids=["not-an-object", "checks-not-a-list", "nan-alpha", "tolerances-not-a-mapping"],
    )
    def test_malformed_config_file_exit_2(self, tmp_path, capsys, text, flags, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run_cli(["run", "--scenario", "flat-holo", "--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and key in err[0]


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

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_no_points_exit_2(self, capsys, points):
        code = run_cli(["identities", "--scenario", "flat-holo", "--points", points])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: identities need at least 1 point, got {points}\n"

    def test_negative_seed_exit_2(self, capsys):
        assert run_cli(["identities", "--scenario", "flat-holo", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "configuration error: seed must be >= 0, got -1\n"


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
        [("quadrature_order", 1), ("seed", -1), ("alpha", -1.0), ("p", 0.5),
         ("sample_points", 1)],
    )
    def test_range_validation(self, key, value):
        with pytest.raises(ConfigError):
            RunConfig(scenario_id="flat-holo", **{key: value})


    @pytest.mark.parametrize("value", [True, "7", 7.0])
    def test_integer_fields_refuse_other_types(self, value):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            RunConfig(scenario_id="flat-holo", seed=value)

    def test_every_numeric_field_refuses_a_string(self):
        # a field added later is type-checked, or this names it
        from dataclasses import fields

        non_numeric = {"scenario_id", "checks", "tolerances"}
        for name in {f.name for f in fields(RunConfig)} - non_numeric:
            with pytest.raises(ConfigError, match=f"^{name} must be "):
                RunConfig(scenario_id="flat-holo", **{name: "1"})

    def test_effective_records_every_field(self):
        from dataclasses import fields

        from phwc_lab.scenarios import build_scenario

        names = {f.name for f in fields(RunConfig)}
        for sid in scenario_ids():
            sc = build_scenario(sid, validate=False)
            assert set(RunConfig(scenario_id=sid).effective(sc)) == names, sid

    def test_effective_stability_order(self):
        # stable-sampled: the stability verdicts record the order the span
        # Hessian runs at, as a plain int; the config has no such field
        body = run_checks(RunConfig(scenario_id="hopf-s3", checks=("stability",)))
        order = body["checks"]["stability"]["verdicts"]["stability_order"]
        assert order == 12 and type(order) is int
        assert "stability_order" not in body["config"]


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
        "hessian_floor": ("hopf-s3", "stability", {"span_nonnegativity": 1}),
        "criticality_witness": ("warped-hopf", "criticality", {}),
    }

    def test_cases_cover_run_tolerances(self):
        from phwc_lab.validation import RUN_TOLERANCES

        assert sorted(self.CASES) == sorted(RUN_TOLERANCES)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_override_reaches_body(self, name):
        scenario, check, entries = self.CASES[name]
        value = 1e6 if name == "criticality_witness" else 0.125
        cfg = RunConfig(scenario_id=scenario, checks=(check,), tolerances={name: value})
        out = run_checks(cfg)["checks"][check]
        assert out["residuals"] and out["verdicts"]
        for entry, scale in entries.items():
            assert out["residuals"][entry]["tolerance"] == value * scale, entry
        if name == "criticality_witness":
            # the witness is a verdict threshold: no criticality residual reaches 1e6
            assert out["verdicts"]["noncritical_witness"] is False
            assert out["verdicts"]["matches_expected"] is False
