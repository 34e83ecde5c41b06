import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sgmlab.cli import TEMPLATES, gen_config, main


def _base_run_config(**overrides):
    cfg = {
        "problem": {"quadratic": {"hessian_diag": [1.0, 1.0],
                                  "theta_star": [0.0, 0.0]}},
        "domain": {"ball": {"center": [0.0, 0.0], "radius": 2.0}},
        "noise": {"gaussian": {"sigma2": 1.0}},
        "variant": "sg",
        "step": {"polynomial": {"gamma": 1.0, "alpha": 1.0}},
        "momentum": {"zero": {}},
        "theta0": [1.0, 0.0],
        "horizon": 50,
        "replicates": 4,
        "master_seed": 1,
    }
    cfg.update(overrides)
    return cfg


def _multistage_config(**overrides):
    cfg = _base_run_config(stages=[{"a": 0.2, "n": 50}, {"a": 0.1, "n": 100}])
    for key in ("variant", "step", "horizon"):
        cfg.pop(key)
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestRun:
    def test_minimal_run_writes_three_files(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        for name in ("summary.csv", "summary.json", "config.resolved.json"):
            assert (out / name).exists()
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header == "checkpoint,mse_mean,mse_sem"

    def test_unknown_key_fails_closed(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config(learning_rate=0.1))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bad_step_exponent_exits_2(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config(
            step={"polynomial": {"gamma": 1.0, "alpha": 1.5}}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_oversized_constant_step_gated(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config(step={"constant": {"a": 2.0}}))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "summary.csv").exists()
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--force-schedule"]) == 0

    def test_overwrite_protection(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config())
        out = str(tmp_path / "o")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        assert main(["run", "--config", cfg, "--out", out]) == 2
        assert main(["run", "--config", cfg, "--out", out, "--overwrite"]) == 0

    def test_resolved_config_reruns_byte_identically(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        resolved = str(out1 / "config.resolved.json")
        assert main(["run", "--config", resolved, "--out", str(out2)]) == 0
        assert ((out1 / "summary.csv").read_bytes()
                == (out2 / "summary.csv").read_bytes())

    def test_worker_override_does_not_change_csv(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config(replicates=6))
        outs = []
        for w in ("1", "3"):
            out = tmp_path / f"w{w}"
            assert main(["run", "--config", cfg, "--out", str(out),
                         "--workers", w]) == 0
            outs.append((out / "summary.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_results(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config())
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(a)])
        main(["run", "--config", cfg, "--out", str(b), "--seed", "99"])
        assert ((a / "summary.csv").read_bytes()
                != (b / "summary.csv").read_bytes())

    def test_dotted_override(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config())
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "-O", "step.polynomial.alpha=0.7"]) == 0
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["step"]["polynomial"]["alpha"] == 0.7

    def test_override_unknown_key_rejected(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "-O", "stepsize=0.1"]) == 2

    def test_envelope_adds_verdict_column(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config(
            horizon=500, replicates=16,
            envelope={"case": "inv_n"}))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "checkpoint,mse_mean,mse_sem,bound_value,verdict"
        verdicts = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert "calibration" in verdicts
        assert verdicts <= {"calibration", "ok", "violation"}


class TestMultistage:
    def test_writes_stage_csv(self, tmp_path):
        cfg = _base_run_config()
        for key in ("variant", "step", "horizon"):
            cfg.pop(key)
        cfg["momentum"] = {"zero": {}}
        cfg["stages"] = [{"a": 0.2, "n": 50}, {"a": 0.1, "n": 100}]
        path = _write(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["multistage", "--config", path, "--out", str(out)]) == 0
        lines = (out / "stages.csv").read_text().splitlines()
        assert lines[0].startswith("stage,step,length,burn_in")
        assert len(lines) == 3

    @pytest.mark.parametrize("changes", [
        {"theta0": "origin"},
        {"replicates": 1},
        {"noise": {"minibatch": {"batch_size": 2}}},
        {"workers": 0},
    ])
    def test_rejects_what_run_rejects(self, tmp_path, capsys, changes):
        run_cfg = _write(tmp_path, _base_run_config(**changes), "run.json")
        assert main(["run", "--config", run_cfg,
                     "--out", str(tmp_path / "r")]) == 2
        run_error = _stderr_line(capsys)
        assert main(["multistage", "--config",
                     _write(tmp_path, _multistage_config(**changes)),
                     "--out", str(tmp_path / "m")]) == 2
        assert _stderr_line(capsys) == run_error

    def test_nondecreasing_stages_exit_2(self, tmp_path):
        cfg = _base_run_config()
        for key in ("variant", "step", "horizon"):
            cfg.pop(key)
        cfg["stages"] = [{"a": 0.1, "n": 50}, {"a": 0.1, "n": 50}]
        path = _write(tmp_path, cfg)
        assert main(["multistage", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2

    def test_empty_stage_list_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, _multistage_config(stages=[]))
        assert main(["multistage", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert _stderr_line(capsys) == "error: need at least one stage"

    def test_stage_schedules_gated_like_run(self, tmp_path, capsys):
        # eta_0 = 5: run rejects this momentum, so every stage must too
        path = _write(tmp_path, _multistage_config(
            momentum={"polynomial": {"c": 5, "beta": 1}}))
        assert main(["multistage", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stage 0 schedule validation failed:")
        assert "eta_j >= 1" in err and "Traceback" not in err

    def test_forced_stage_warnings_reach_stderr(self, tmp_path, capsys):
        path = _write(tmp_path, _multistage_config(
            momentum={"polynomial": {"c": 5, "beta": 1}}))
        out = tmp_path / "o"
        assert main(["multistage", "--config", path, "--out", str(out),
                     "--force-schedule"]) == 0
        err = capsys.readouterr().err
        assert "stage 0 schedule warnings (forced)" in err
        assert "stage 1 schedule warnings (forced)" in err
        assert len((out / "stages.csv").read_text().splitlines()) == 3


class TestOutputs:
    def test_failed_encoding_leaves_no_summary_csv(self, tmp_path,
                                                   monkeypatch):
        dumps = json.dumps

        def failing_dumps(obj, **kwargs):
            if "metadata" in obj:    # the summary.json payload
                raise TypeError("not JSON serializable")
            return dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", failing_dumps)
        cfg = _write(tmp_path, _base_run_config())
        out = tmp_path / "o"
        with pytest.raises(TypeError):
            main(["run", "--config", cfg, "--out", str(out)])
        assert list(out.iterdir()) == []
        monkeypatch.setattr(json, "dumps", dumps)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0

    def test_config_hash_ignores_workers_and_forcing(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config(replicates=6))
        hashes = set()
        for flags in (["--workers", "1"], ["--workers", "2"],
                      ["--force-schedule"]):
            out = tmp_path / "o"
            assert main(["run", "--config", cfg, "--out", str(out),
                         "--overwrite"] + flags) == 0
            meta = json.loads((out / "summary.json").read_text())["metadata"]
            hashes.add(meta["config_hash"])
        assert len(hashes) == 1


class TestBoundsAndFit:
    def test_bounds_prints_csv(self, tmp_path, capsys):
        cfg = _write(tmp_path, {"bound": {"sg_recursion": {
            "E0": 1.0, "step": {"polynomial": {"gamma": 1.0, "alpha": 1.0}},
            "m": 1.0, "M": 1.0, "sigma2": 0.0, "N": 2}}})
        assert main(["bounds", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "j,bound"
        assert out[3] == "2,0.75"

    def test_bounds_negative_M_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, {"bound": {"sgm_recursion": {
            "E0": 1.0, "step": {"constant": {"a": 0.1}},
            "momentum": {"constant": {"eta": 0.5}}, "m": 1.0, "M": -1.0,
            "sigma2": 1.0, "L": 2.0, "N": 3}}})
        assert main(["bounds", "--config", cfg]) == 2
        assert _stderr_line(capsys) == "error: M = -1.0 must be nonnegative"

    def test_fit_reads_summary(self, tmp_path, capsys):
        rows = ["checkpoint,mse_mean,mse_sem"]
        for c in (10, 30, 100, 300, 1000):
            rows.append(f"{c},{5.0 / (c + 1.0)!r},0.0")
        p = tmp_path / "summary.csv"
        p.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--summary", str(p),
                     "--window", "10", "1000"]) == 0
        fit = json.loads(capsys.readouterr().out)
        assert fit["exponent"] == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("step, N, message", [
        ({"staged": {"stages": [{"a": 0.1, "n": 5}]}}, 20,
         "error: index beyond final stage (total length 5)"),
        ({"constant": {"a": 0.1}}, -1, "error: N must be >= 0, got -1"),
    ])
    def test_bounds_past_the_schedule_exit_2(self, tmp_path, capsys, step,
                                             N, message):
        cfg = _write(tmp_path, {"bound": {"sg_recursion": {
            "E0": 1.0, "step": step, "m": 1.0, "M": 1.0, "sigma2": 0.0,
            "N": N}}})
        assert main(["bounds", "--config", cfg]) == 2
        assert _stderr_line(capsys) == message


class TestValidate:
    def test_valid_config_exits_0(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config())
        assert main(["validate", "--config", cfg]) == 0

    def test_bad_schedule_exits_2(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config(step={"constant": {"a": 5.0}}))
        assert main(["validate", "--config", cfg]) == 2


class TestGenConfig:
    @pytest.mark.parametrize("template", TEMPLATES)
    def test_templates_are_valid_configs(self, template, tmp_path):
        out = tmp_path / f"{template}.json"
        assert main(["gen-config", template, "--out", str(out)]) == 0
        cfg = json.loads(out.read_text())
        # every generated config passes its own command's validation when
        # shrunk to a fast size
        if "stages" in cfg:
            cfg["replicates"] = 4
            path = _write(tmp_path, cfg, "small.json")
            cfg["stages"] = [{"a": s["a"], "n": 5} for s in cfg["stages"]]
            path = _write(tmp_path, cfg, "small.json")
            assert main(["multistage", "--config", path,
                         "--out", str(tmp_path / "o")]) == 0
        else:
            path = _write(tmp_path, cfg, "small.json")
            code = main(["validate", "--config", path])
            if template in ("theorem1-ii", "theorem1-iii"):
                # these schedules start at eta_0 = 1, which the validator
                # flags; they are meant to run with --force-schedule (the
                # first momentum term multiplies theta_0 - theta_-1 = 0)
                assert code == 2
                cfg["horizon"] = 20
                cfg["replicates"] = 4
                cfg.pop("fit_window", None)
                cfg.pop("envelope", None)
                path = _write(tmp_path, cfg, "forced.json")
                assert main(["run", "--config", path,
                             "--out", str(tmp_path / "o"),
                             "--force-schedule"]) == 0
            else:
                assert code == 0

    def test_unknown_template_exits_2(self, tmp_path):
        assert main(["gen-config", "lemma99",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_gen_config_shapes(self):
        cfg = gen_config("plateau")
        assert cfg["step"] == {"constant": {"a": 0.1}}
        assert cfg["recursion_bound"] == {"kind": "sg"}


def _stderr_line(capsys) -> str:
    """The single line a failing command prints on stderr."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    return err[0]


def _checkpoints(out):
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    return [int(r.split(",")[0]) for r in rows]


class TestSuffixStart:
    def test_default_grid_starts_at_suffix_start(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config(horizon=200))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "-O", "estimator=suffix", "-O", "suffix_start=50"]) == 0
        cps = _checkpoints(out)
        assert cps[0] >= 50 and cps[-1] == 200

    def test_explicit_checkpoint_before_start_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, _base_run_config(
            horizon=200, estimator="suffix", suffix_start=50,
            checkpoints=[10, 60, 200]))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "checkpoint 10" in _stderr_line(capsys)

    def test_start_past_horizon_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, _base_run_config(
            horizon=200, estimator="suffix", suffix_start=201))
        assert main(["validate", "--config", cfg]) == 2
        assert "suffix_start 201" in _stderr_line(capsys)


class TestHorizonOverride:
    @pytest.mark.parametrize("horizon", [100, 400])
    def test_default_checkpoints_follow_horizon(self, tmp_path, horizon):
        cfg = _write(tmp_path, _base_run_config(horizon=200))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "-O", f"horizon={horizon}"]) == 0
        assert _checkpoints(out)[-1] == horizon
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["checkpoints"][-1] == horizon

    def test_validate_sees_overridden_horizon(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config(horizon=200))
        assert main(["validate", "--config", cfg, "-O", "horizon=100"]) == 0


class TestWrongTypedValues:
    @pytest.mark.parametrize("changes, override", [
        ({}, 'step={"constant": {"a": [1]}}'),
        ({"step": {"constant": {"a": None}}}, None),
        ({"noise": {"gaussian": {"sigma2": [1]}}}, None),
        ({"step": {"staged": {"stages": 5}}}, None),
        ({"domain": {"ball": {"center": [0.0, 0.0], "radius": None}}}, None),
        ({"noise": {"minibatch": {"batch_size": 2}}}, None),
        ({"noise": {"minibatch": {"batch_size": 2}},
          "problem": {"quad_plus_l1": {"hessian_diag": [1.0, 1.0],
                                       "theta_star": [0.0, 0.0],
                                       "l1_weight": 0.1}}}, None),
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, changes, override):
        cfg = _write(tmp_path, _base_run_config(**changes))
        argv = ["run", "--config", cfg, "--out", str(tmp_path / "o")]
        if override is not None:
            argv += ["-O", override]
        assert main(argv) == 2
        assert _stderr_line(capsys).startswith("error: ")

    @pytest.mark.parametrize("changes, key", [
        ({"horizon": True}, "horizon"),
        ({"horizon": "40"}, "horizon"),
        ({"horizon": 100.7}, "horizon"),
        ({"replicates": 3.9}, "replicates"),
        ({"master_seed": 1.5}, "master_seed"),
        ({"checkpoints": [1.5, 50]}, "checkpoints[0]"),
        ({"checkpoints": "123"}, "checkpoints"),
        ({"noise": {"minibatch": {"batch_size": 8.5}}},
         "noise.minibatch.batch_size"),
        ({"step": {"staged": {"stages": [{"a": 0.1, "n": 10.5}]}}},
         "step.staged.stages[0].n"),
    ])
    def test_integer_field_not_truncated(self, tmp_path, capsys, changes,
                                         key):
        cfg = _write(tmp_path, _base_run_config(**changes))
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2
        assert _stderr_line(capsys).startswith(f"error: {key}: expected a")

    @pytest.mark.parametrize("changes, key", [
        ({"stages": [{"a": 0.2, "n": 10.5}]}, "stages[0].n"),
        ({"replicates": False}, "replicates"),
    ])
    def test_multistage_integer_field_not_truncated(self, tmp_path, capsys,
                                                    changes, key):
        path = _write(tmp_path, _multistage_config(**changes))
        assert main(["multistage", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert _stderr_line(capsys).startswith(f"error: {key}: expected a")

    @pytest.mark.parametrize("changes, key", [
        ({"noise": {"gaussian": {"sigma2": True}}}, "noise.gaussian.sigma2"),
        ({"noise": {"gaussian": {"sigma2": 10 ** 400}}},
         "noise.gaussian.sigma2"),
        ({"step": {"constant": {"a": "0.1"}}}, "step.constant.a"),
        ({"step": {"polynomial": {"gamma": "1.0", "alpha": 1.0}}},
         "step.polynomial.gamma"),
        ({"step": {"staged": {"stages": [{"a": False, "n": 10}]}}},
         "step.staged.stages[0].a"),
        ({"fit_window": ["10", 50]}, "fit_window"),
    ])
    def test_float_field_takes_only_numbers(self, tmp_path, capsys, changes,
                                            key):
        cfg = _write(tmp_path, _base_run_config(**changes))
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2
        assert (_stderr_line(capsys)
                .startswith(f"error: {key}: expected a number, got "))
        assert not list(tmp_path.glob("o/*"))

    @pytest.mark.parametrize("a", [True, "0.2"])
    def test_multistage_float_field_takes_only_numbers(self, tmp_path, capsys,
                                                       a):
        path = _write(tmp_path, _multistage_config(
            stages=[{"a": a, "n": 50}, {"a": 0.1, "n": 100}]))
        assert main(["multistage", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert (_stderr_line(capsys)
                .startswith("error: stages[0].a: expected a number, got "))

    def test_whole_valued_floats_are_integers(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config(
            horizon=50.0, replicates=4.0, checkpoints=[10.0, 5e1]))
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 0
        summary = (tmp_path / "o" / "summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in summary[1:]] == ["10", "50"]

    @pytest.mark.parametrize("changes", [
        {}, {"recursion_bound": {"kind": "sg"}}])
    def test_forced_run_past_a_staged_schedule(self, tmp_path, capsys,
                                               changes):
        cfg = _write(tmp_path, _base_run_config(
            step={"staged": {"stages": [{"a": 0.1, "n": 5}]}}, horizon=20,
            **changes))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--force-schedule"]) == 2
        assert (_stderr_line(capsys)
                == "error: index beyond final stage (total length 5)")

    def test_multistage_stages_not_a_list(self, tmp_path, capsys):
        cfg = _base_run_config()
        for key in ("variant", "step", "horizon"):
            cfg.pop(key)
        cfg["stages"] = 5
        path = _write(tmp_path, cfg)
        assert main(["multistage", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "stages" in _stderr_line(capsys)


class TestErrorWording:
    @pytest.mark.parametrize("section, spec, message", [
        ("noise", {"laplace": {}}, "unknown noise kind 'laplace' (expected one of"),
        ("step", {"constant": {"a": 0.1, "b": 1}},
         "unknown keys in step.constant: ['b']"),
        ("momentum", {"polynomial": {"c": 0.9}},
         "missing keys in momentum.polynomial: ['beta']"),
        ("noise", {"minibatch": {"batch_size": 2}},
         "minibatch noise needs an erm_csv problem"),
    ])
    def test_one_form_for_all_sections(self, tmp_path, capsys, section, spec,
                                       message):
        cfg = _write(tmp_path, _base_run_config(**{section: spec}))
        assert main(["validate", "--config", cfg]) == 2
        assert message in _stderr_line(capsys)


class TestBadCliInput:
    def test_fit_empty_file(self, tmp_path, capsys):
        p = tmp_path / "summary.csv"
        p.write_text("")
        assert main(["fit", "--summary", str(p), "--window", "1", "10"]) == 2
        assert "unexpected header" in _stderr_line(capsys)

    def test_fit_missing_file(self, tmp_path, capsys):
        assert main(["fit", "--summary", str(tmp_path / "none.csv"),
                     "--window", "1", "10"]) == 2
        assert "cannot read" in _stderr_line(capsys)

    def test_fit_checks_header_before_rows(self, tmp_path, capsys):
        p = tmp_path / "summary.csv"
        p.write_text("j,bound\n0,not-a-number\n")
        assert main(["fit", "--summary", str(p), "--window", "1", "10"]) == 2
        assert "unexpected header" in _stderr_line(capsys)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_flag(self, tmp_path, capsys, workers):
        cfg = _write(tmp_path, _base_run_config())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--workers", workers]) == 2
        assert "workers" in _stderr_line(capsys)

    def test_zero_workers_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SGMLAB_WORKERS", "0")
        cfg = _write(tmp_path, _base_run_config())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "workers" in _stderr_line(capsys)

    @pytest.mark.parametrize("command", ["run", "multistage"])
    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_non_integer_workers_from_environment(self, tmp_path, capsys,
                                                  monkeypatch, command, value):
        monkeypatch.setenv("SGMLAB_WORKERS", value)
        cfg = (_base_run_config() if command == "run"
               else _multistage_config())
        assert main([command, "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert _stderr_line(capsys) == (
            f"error: SGMLAB_WORKERS: expected an integer, got {value!r}")

    @pytest.mark.parametrize("domain, message", [
        ({"ball": {"center": [], "radius": 1.0}},
         "error: ball center must be a non-empty 1-D vector"),
        ({"box": {"lower": [], "upper": []}},
         "error: box bounds must be non-empty 1-D vectors of equal length"),
    ])
    def test_empty_hessian_diag(self, tmp_path, capsys, domain, message):
        problem = {"quadratic": {"hessian_diag": [], "theta_star": []}}
        cfg = _base_run_config(problem=problem, domain=domain, theta0=[])
        assert main(["run", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert _stderr_line(capsys) == message


class TestOutputPathErrors:
    def test_run_out_is_an_existing_file(self, tmp_path, capsys):
        cfg = _write(tmp_path, _base_run_config())
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert _stderr_line(capsys).startswith(
            f"error: cannot create output directory {out}")

    def test_gen_config_into_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["gen-config", "lemma1", "--out", str(out)]) == 2
        assert _stderr_line(capsys).startswith(f"error: cannot write {out}")
        assert not out.parent.exists()


def _cli(*argv):
    """`python -m sgmlab.cli *argv` in a fresh process on this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "sgmlab.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)


def _failing_run_stderr(tmp_path, cfg):
    """stderr of a forced `run` of cfg on 1 and on 2 workers; both exit 3."""
    path = _write(tmp_path, cfg)
    errs = []
    for workers in ("1", "2"):
        proc = _cli("run", "--config", path, "--out",
                    str(tmp_path / f"o{workers}"), "--force-schedule",
                    "--workers", workers)
        assert proc.returncode == 3, proc.stderr
        errs.append(proc.stderr)
    return errs


def test_numeric_failure_exits_3_on_one_and_two_workers(tmp_path):
    # A failure inside a pool worker must reach the parent as the same
    # NumericFailureError, not break the pool.
    cfg = gen_config("lemma1")
    cfg.update(step={"constant": {"a": 1e300}},
               noise={"gaussian": {"sigma2": 1e300}}, horizon=50,
               replicates=4)
    cfg.pop("checkpoints", None)
    for stderr in _failing_run_stderr(tmp_path, cfg):
        assert "Traceback" not in stderr
        assert stderr.strip().splitlines()[-1] == (
            "numeric failure: non-finite value in replicate 0 at step 0")
        # no numpy RuntimeWarning before the one-line message
        assert len(stderr.splitlines()) == 1, stderr


def test_numeric_failure_names_the_overflowing_replicate(tmp_path):
    # Only replicate 2 overflows, in the update itself; every worker count
    # must name it.
    cfg = gen_config("lemma1")
    cfg.update(step={"constant": {"a": 1e308}}, horizon=1, replicates=4,
               master_seed=2)
    cfg.pop("fit_window")
    for stderr in _failing_run_stderr(tmp_path, cfg):
        assert stderr == (
            "numeric failure: non-finite value in replicate 2 at step 0\n")


def test_box_clipping_overflowing_updates_exits_0(tmp_path):
    # Every update overflows to +-inf and the box clips it onto a corner:
    # no iterate is non-finite, so the run succeeds with squared error
    # |corner|^2 = 2 everywhere, on 1 and 2 workers.
    cfg = gen_config("lemma1")
    cfg.update(domain={"box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}},
               step={"constant": {"a": 1e300}},
               noise={"gaussian": {"sigma2": 1e300}}, horizon=3000,
               replicates=4)
    cfg.pop("fit_window")
    path = _write(tmp_path, cfg)
    for workers in ("1", "2"):
        out = tmp_path / f"o{workers}"
        proc = _cli("run", "--config", path, "--out", str(out),
                    "--force-schedule", "--workers", workers)
        assert proc.returncode == 0, proc.stderr
        rows = (out / "summary.csv").read_text().splitlines()
        assert rows[0] == "checkpoint,mse_mean,mse_sem"
        assert rows[-1] == "3000,2.0,0.0"
        assert all(row.endswith(",2.0,0.0") for row in rows[1:])


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_fit_rejects_non_finite_mse(tmp_path, bad):
    # Used to print {"exponent": NaN, ...}, which is not JSON, and exit 0;
    # inf printed a numpy RuntimeWarning first.
    p = tmp_path / "summary.csv"
    p.write_text("checkpoint,mse_mean,mse_sem\n1,0.5,0.1\n2,0.3,0.1\n"
                 f"3,{bad},0.1\n4,0.2,0.1\n")
    proc = _cli("fit", "--summary", str(p), "--window", "1", "4")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: mse_mean at checkpoint 3 is {bad}; the "
                           "fit needs finite values\n")


def test_fit_rejects_repeated_checkpoints(tmp_path):
    # Used to fit with a RankWarning, r^2 = -2.2e-16, and exit 0.
    p = tmp_path / "summary.csv"
    p.write_text("checkpoint,mse_mean,mse_sem\n"
                 + "".join(f"1,{m},0.1\n" for m in (0.5, 0.4, 0.3, 0.2)))
    proc = _cli("fit", "--summary", str(p), "--window", "1", "1")
    assert proc.returncode == 2
    assert proc.stderr == "error: checkpoints must be strictly increasing\n"


def test_forced_schedule_warnings_reach_stderr(tmp_path, capsys):
    cfg = _write(tmp_path, _base_run_config(step={"constant": {"a": 2.0}}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--force-schedule"]) == 0
    assert "schedule warnings (forced)" in capsys.readouterr().err


def test_module_entry_point_has_no_runpy_warning():
    proc = _cli("--help")
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("changes", [
    {"envelope": {"case": "inv_n", "constant": "x"}},
    {"fit_window": 5},
    {"fit_window": ["a", 10]},
])
def test_bad_envelope_or_fit_window_exits_2(tmp_path, capsys, changes):
    cfg = _write(tmp_path, _base_run_config(**changes))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert _stderr_line(capsys).startswith("error: ")


@pytest.mark.parametrize("command", ["run", "validate"])
def test_overflowing_constants_exit_2(tmp_path, capsys, command):
    cfg = _write(tmp_path, _base_run_config(problem={"quadratic": {
        "hessian_diag": [1.0, 1e160], "theta_star": [0.0, 0.0]}}))
    argv = [command, "--config", cfg]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert (_stderr_line(capsys)
            == "error: problem constant M = inf is not finite")


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("ball, line", [
    ({"center": [0.0, 0.0], "radius": float("inf")},
     "error: ball radius must be finite, got inf"),
    ({"center": [float("nan"), 0.0], "radius": 2.0},
     "error: ball center must be finite, got [nan, 0.0]"),
    ({"center": [0.0, float("-inf")], "radius": 2.0},
     "error: ball center must be finite, got [0.0, -inf]"),
], ids=["inf_radius", "nan_center", "minus_inf_center"])
def test_non_finite_ball_exits_2(tmp_path, capsys, command, ball, line):
    # Not later, as a non-finite problem constant or theta0 outside the
    # domain: the ball itself is refused.
    cfg = _write(tmp_path, _base_run_config(domain={"ball": ball}))
    argv = [command, "--config", cfg]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert _stderr_line(capsys) == line


def _erm_csv_config(tmp_path, rows, noise):
    data = tmp_path / "data.csv"
    data.write_text("".join(",".join(row) + "\n" for row in rows))
    cfg = _base_run_config(problem={"erm_csv": {"path": str(data)}},
                           domain={"ball": {"center": [0.0, 0.0],
                                            "radius": 20.0}},
                           noise=noise)
    return _write(tmp_path, cfg), data


ERM_NOISES = [{"minibatch": {"batch_size": 2}}, {"gaussian": {"sigma2": 1.0}}]


@pytest.mark.parametrize("noise", ERM_NOISES)
@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_csv_cell_exits_2(tmp_path, capsys, noise, cell):
    cfg, data = _erm_csv_config(
        tmp_path, [["1", "0", "1"], ["0", "1", "2"], [cell, "1", "3"],
                   ["1", "1", "3"]], noise)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert _stderr_line(capsys) == (
        f"error: {data}: non-finite cell at row 3, column 1: '{cell}'")


def test_undecodable_csv_exits_2_naming_the_row(tmp_path, capsys):
    cfg, data = _erm_csv_config(tmp_path, [], ERM_NOISES[0])
    data.write_bytes(b"1,0,1\r\n0,1,2\r\ncaf\xe9,1,3\r\n1,1,3\r\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert _stderr_line(capsys) == (
        f"error: {data}: cannot decode row 3 as UTF-8 (byte 0xe9)")


def test_overlong_csv_cell_exits_2_with_one_line(tmp_path):
    # np.loadtxt reads the 200,000-digit cell as inf, so the cell-by-cell
    # scan runs and meets csv's field size limit.
    cfg, data = _erm_csv_config(
        tmp_path, [["1", "0", "1"], ["0", "1", "2"],
                   ["1" + "0" * 200_000, "1", "3"], ["1", "1", "3"]],
        ERM_NOISES[0])
    proc = _cli("run", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr == (f"error: {data}: cannot read row 3: field larger "
                           "than field limit (131072)\n")


@pytest.mark.parametrize("noise", ERM_NOISES)
def test_overflowing_gram_matrix_exits_2_with_one_line(tmp_path, noise):
    # The 1e200 row's squares overflow; numpy must not warn before the
    # error line.
    cfg, _ = _erm_csv_config(
        tmp_path, [["1", "0", "1"], ["0", "1", "2"], ["1e200", "1e200", "3"],
                   ["1", "1", "3"]], noise)
    proc = _cli("run", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr == ("error: (1/N) X^T X is not finite: the design "
                           "overflows the float range\n")
