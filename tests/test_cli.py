import contextlib
import errno
import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

from sgmlab import cli, harness
from sgmlab.bounds import sg_recursion_bound
from sgmlab.cli import TEMPLATES, gen_config, main
from sgmlab.schedules import PolynomialStep

GOLDEN = Path(__file__).resolve().parent / "golden"

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


# Problem vectors that are not 1-D; the last one used to run as a 1-D
# problem.
_NOT_1D_PROBLEMS = {
    "scalar_problem": {"problem": {"quadratic": {"hessian_diag": 1.0,
                                                 "theta_star": 0.0}}},
    "matrix_problem": {"problem": {"quadratic": {
        "hessian_diag": [[1.0, 1.0]], "theta_star": [[0.0, 0.0]]}}},
    "matrix_problem_on_1d_ball": {
        "problem": {"quadratic": {"hessian_diag": [[1.0]],
                                  "theta_star": [[0.0]]}},
        "domain": {"ball": {"center": [0.0], "radius": 2.0}},
        "theta0": [0.5]},
}
_NOT_1D_LINE = "error: hessian_diag and theta_star must be 1-D vectors"


def _nested(depth: int) -> str:
    """JSON text of the number 1 inside `depth` lists."""
    return "[" * depth + "1" + "]" * depth


# A refusal line echoes a long value by its two ends around '...': 10**400
# as 28 of its digits and 28 more.
_HUGE_INT = "1" + "0" * 27 + "..." + "0" * 28


def _write(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _no_engine():
    """harness._mse patched to fail the test if a run enters it."""
    return mock.patch.object(harness, "_mse",
                             side_effect=AssertionError("the engine ran"))


@pytest.fixture
def no_engine():
    with _no_engine():
        yield


def _refused(tmp_path, capsys, argv, line, engine=False):
    """argv exits 2 with `line` as its whole output, one line on stderr (or
    `line` as the whole (stdout, stderr) pair), and leaves no --out
    (tmp_path / 'o') behind. Unless `engine`, it refuses before the engine
    runs, and without a RuntimeWarning."""
    with contextlib.ExitStack() as stack:
        if not engine:
            stack.enter_context(_no_engine())
            stack.enter_context(warnings.catch_warnings())
            warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    assert capsys.readouterr() == (
        ("", line + "\n") if isinstance(line, str) else line)
    assert not (tmp_path / "o").exists()


def _key_id(value):
    """A refusal row's id: its config changes by index, its line by the key
    the line names, as in 'error: <key>: ...'."""
    if isinstance(value, str):
        return value.removeprefix("error: ").partition(": ")[0]


def _refused_config(tmp_path, capsys, command, cfg, line, engine=False):
    """`command` over cfg, with --out tmp_path / 'o' unless it is validate,
    is refused with `line` as _refused checks."""
    argv = [command, "--config", _write(tmp_path, cfg)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "o")]
    _refused(tmp_path, capsys, argv, line, engine)


class TestRun:
    def test_minimal_run_writes_three_files(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        for name in ("summary.csv", "summary.json", "config.resolved.json"):
            assert (out / name).exists()
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header == "checkpoint,mse_mean,mse_sem"

    def test_unknown_key_fails_closed(self, tmp_path, capsys):
        for command, cfg in (("run", _base_run_config),
                             ("multistage", _multistage_config),
                             ("validate", _base_run_config)):
            _refused_config(tmp_path, capsys, command, cfg(learning_rate=0.1),
                            "error: unknown keys in config: ['learning_rate']")

    def test_bad_step_exponent_exits_2(self, tmp_path, capsys):
        cfg = _base_run_config(step={"polynomial": {"gamma": 1.0,
                                                    "alpha": 1.5}})
        for command in ("run", "validate"):
            _refused_config(tmp_path, capsys, command, cfg,
                            "error: alpha must lie in (0, 1]")

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

    def test_override_unknown_key_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, _base_run_config())
        for argv in (["run", "--config", cfg, "--out", str(tmp_path / "o")],
                     ["validate", "--config", cfg]):
            _refused(tmp_path, capsys, [*argv, "-O", "stepsize=0.1"],
                     "error: override key 'stepsize' not in config")

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
        # An envelope with its constant given is tested on every checkpoint.
        assert main(["run", "--config", cfg, "--out", str(out), "--overwrite",
                     "-O", 'envelope={"case": "inv_n", "constant": 100}']) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == [
            "ok"] * (len(lines) - 1)

    def test_recursion_bound_from_explicit_E0_with_random_theta0(self,
                                                                 tmp_path):
        cfg = _write(tmp_path, _base_run_config(
            theta0="random-interior", checkpoints=[10, 50],
            recursion_bound={"kind": "sg", "E0": 2.5}))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        # t_j = 1/(j+1); m = 1, M = 4 on the radius-2 ball, sigma2 = 1.
        bound = sg_recursion_bound(2.5, PolynomialStep(1.0, 1.0), 1.0, 4.0,
                                   1.0, 50).values
        assert [line.split(",")[3] for line in lines[1:]] == [
            repr(float(bound[10])), repr(float(bound[50]))]


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
        assert main(["run", "--config", _write(tmp_path, _base_run_config(
            **changes)), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        _refused_config(tmp_path, capsys, "multistage",
                        _multistage_config(**changes), ("", err))

    def test_nondecreasing_stages_exit_2(self, tmp_path, capsys):
        _refused_config(tmp_path, capsys, "multistage", _multistage_config(
            stages=[{"a": 0.1, "n": 50}, {"a": 0.1, "n": 50}]),
            "error: stage steps must be strictly decreasing")

    def test_empty_stage_list_exits_2(self, tmp_path, capsys):
        _refused_config(tmp_path, capsys, "multistage",
                        _multistage_config(stages=[]),
                        "error: need at least one stage")

    def test_stage_schedules_gated_like_run(self, tmp_path, capsys):
        # eta_0 = 5: run rejects this momentum, so every stage must too
        _refused_config(tmp_path, capsys, "multistage", _multistage_config(
            momentum={"polynomial": {"c": 5, "beta": 1}}),
            "error: stage 0 schedule validation failed: eta_j >= 1 at j=0 "
            "(5 indices)")

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
        assert not out.exists()
        monkeypatch.setattr(json, "dumps", dumps)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0

    @pytest.mark.parametrize("command, names", [
        ("run", ["summary.csv", "summary.json", "config.resolved.json"]),
        ("multistage", ["stages.csv", "config.resolved.json"])])
    def test_failed_write_leaves_the_previous_run(self, tmp_path, capsys,
                                                  monkeypatch, command,
                                                  names):
        # The second file's write fails on a rerun with another seed: no
        # target may then hold the new run's text beside the old run's.
        cfg = _base_run_config() if command == "run" else _multistage_config()
        argv = [command, "--config", _write(tmp_path, cfg),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        before = {n: (tmp_path / "o" / n).read_bytes() for n in names}
        write_text = Path.write_text

        def full_disk(self, *args, **kwargs):
            if self.name == f".{names[1]}.tmp":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk)
        assert main([*argv, "--overwrite", "--seed", "5"]) == 2
        assert _stderr_line(capsys) == (
            f"error: cannot write {tmp_path / 'o' / names[1]}: "
            f"{os.strerror(errno.ENOSPC)}")
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == sorted(
            names)
        assert {n: (tmp_path / "o" / n).read_bytes() for n in names} == before

    def test_failed_rename_keeps_the_targets_renamed_before_it(
            self, tmp_path, capsys, monkeypatch):
        # The one case the transaction cannot undo: the first target has
        # landed when the second rename fails.
        replace, calls = os.replace, []

        def failing_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return replace(src, dst)

        cfg = _write(tmp_path, _base_run_config())
        out = tmp_path / "o"
        monkeypatch.setattr(os, "replace", failing_second)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert _stderr_line(capsys) == (f"error: cannot write "
                                        f"{out / 'summary.json'}: "
                                        f"{os.strerror(errno.EIO)}")
        assert [p.name for p in out.iterdir()] == ["summary.csv"]

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
        # The last three used to print a bound and exit 0.
        for kind, key, value, line in [
                ("sgm", "M", -1.0, "M = -1.0 must be nonnegative"),
                ("sg", "M", -4, "M = -4.0 must be nonnegative"),
                ("sgm", "sigma2", -1, "sigma2 = -1.0 must be nonnegative"),
                ("sgm", "L", -2, "L = -2.0 must be positive")]:
            params = {"E0": 1.0, "step": {"constant": {"a": 0.1}}, "m": 1.0,
                      "M": 1.0, "sigma2": 1.0, "N": 3}
            if kind == "sgm":
                params.update(momentum={"constant": {"eta": 0.5}}, L=2.0)
            params[key] = value
            _refused(tmp_path, capsys, ["bounds", "--config", _write(
                tmp_path, {"bound": {f"{kind}_recursion": params}})],
                f"error: {line}")

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
        # N past one array's length, or past what can be allocated, is named
        # as a horizon is; these used to print numpy's line alone.
        ({"constant": {"a": 0.1}}, 1e300,
         "error: N 1000000000000000052504760255...5669472196386865459400540160"
         " is too long: more steps than one array can hold"),
        ({"constant": {"a": 0.1}}, 2**63, "error: N 9223372036854775808 is "
         "too long: more steps than one array can hold"),
        ({"constant": {"a": 0.1}}, 1e15, "error: N 1000000000000000 is too "
         "long: Unable to allocate 7.11 PiB for an array with shape "
         "(1000000000000000,) and data type float64"),
    ])
    def test_bounds_past_the_schedule_exit_2(self, tmp_path, capsys, step,
                                             N, message):
        _refused(tmp_path, capsys, ["bounds", "--config", _write(
            tmp_path, {"bound": {"sg_recursion": {
                "E0": 1.0, "step": step, "m": 1.0, "M": 1.0, "sigma2": 0.0,
                "N": N}}})], message)


class TestValidate:
    def test_valid_config_exits_0(self, tmp_path):
        cfg = _write(tmp_path, _base_run_config())
        assert main(["validate", "--config", cfg]) == 0

    def test_bad_schedule_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, _base_run_config(step={"constant": {"a": 5.0}}))
        assert main(["validate", "--config", cfg]) == 2
        assert capsys.readouterr() == (
            "violation: t_j*m = 5 not in (0, 1] at j=0 (50 indices over "
            "horizon)\n", "")

    @pytest.mark.parametrize("changes, line", [
        ({"estimator": "suffix", "suffix_start": -1},
         "error: suffix_start must be >= 0, got -1"),
        ({"replicates": 2**32 + 1},
         "error: replicates must be <= 2**32, got 4294967297"),
    ], ids=["negative_suffix_start", "too_many_replicates"])
    def test_refused_plan_exits_2(self, tmp_path, capsys, changes, line):
        _refused_config(tmp_path, capsys, "validate",
                        _base_run_config(**changes), line)

    def test_multistage_config(self, tmp_path, capsys):
        path = _write(tmp_path, _multistage_config())
        assert main(["validate", "--config", path]) == 0
        assert capsys.readouterr() == ("stage 0: ok\nstage 1: ok\n", "")
        path = _write(tmp_path, _multistage_config(
            momentum={"polynomial": {"c": 1.5, "beta": 1}}))
        assert main(["validate", "--config", path]) == 2
        assert capsys.readouterr() == (
            "stage 0: violation: eta_j >= 1 at j=0 (1 indices)\n"
            "stage 1: violation: eta_j >= 1 at j=0 (1 indices)\n", "")


class TestGenConfig:
    @pytest.mark.parametrize("template", TEMPLATES)
    def test_templates_are_valid_configs(self, template, tmp_path, capsys):
        out = tmp_path / f"{template}.json"
        assert main(["gen-config", template, "--out", str(out)]) == 0
        capsys.readouterr()
        # validate takes every generated config as written. The theorem1-ii
        # and theorem1-iii schedules start at eta_0 = 1, which the validator
        # flags; they are meant to run with --force-schedule (the first
        # momentum term multiplies theta_0 - theta_-1 = 0).
        forced = template in ("theorem1-ii", "theorem1-iii")
        if template == "corollary1":
            expected = "".join(f"stage {k}: ok\n" for k in range(4))
        elif forced:
            expected = "violation: eta_j >= 1 at j=0 (1 indices)\n"
        else:
            expected = "ok\n"
        assert main(["validate", "--config", str(out)]) == (2 if forced
                                                            else 0)
        assert capsys.readouterr() == (expected, "")
        # and its own command runs it when shrunk to a fast size
        cfg = json.loads(out.read_text())
        if "stages" in cfg:
            cfg["replicates"] = 4
            cfg["stages"] = [{"a": s["a"], "n": 5} for s in cfg["stages"]]
            path = _write(tmp_path, cfg, "small.json")
            assert main(["multistage", "--config", path,
                         "--out", str(tmp_path / "o")]) == 0
        elif forced:
            cfg["horizon"] = 20
            cfg["replicates"] = 4
            cfg.pop("fit_window", None)
            cfg.pop("envelope", None)
            path = _write(tmp_path, cfg, "forced.json")
            assert main(["run", "--config", path,
                         "--out", str(tmp_path / "o"),
                         "--force-schedule"]) == 0

    def test_unknown_template_exits_2(self, tmp_path, capsys):
        _refused(tmp_path, capsys,
                 ["gen-config", "lemma99", "--out", str(tmp_path / "o")],
                 "error: unknown template 'lemma99' (expected one of lemma1, "
                 "theorem1-i, theorem1-ii, theorem1-iii, plateau, theorem2, "
                 "corollary1)")

    def test_edited_template_leaves_the_next_copy_alone(self):
        cfg = gen_config("corollary1")
        cfg["stages"][0]["a"] = 0.5
        cfg["problem"]["quadratic"]["theta_star"][0] = 1.0
        fresh = gen_config("corollary1")
        assert fresh["stages"][0]["a"] == 0.1
        assert fresh["problem"]["quadratic"]["theta_star"] == [0.0, 0.0]
        assert gen_config("lemma1")["problem"] == fresh["problem"]

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
        cfg = _base_run_config(horizon=200, estimator="suffix",
                               suffix_start=50, checkpoints=[10, 60, 200])
        for command in ("run", "validate"):
            _refused_config(tmp_path, capsys, command, cfg,
                            "error: checkpoint 10 lies before suffix_start "
                            "50; the suffix average is empty there")

    def test_negative_start_runs_without_the_suffix_estimator(self,
                                                              tmp_path):
        # suffix_start is read only by the suffix average.
        cfg = _write(tmp_path, _base_run_config(estimator="last",
                                                suffix_start=-1))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert _checkpoints(out)[0] == 1

    def test_start_past_horizon_exits_2(self, tmp_path, capsys):
        cfg = _base_run_config(horizon=200, estimator="suffix",
                               suffix_start=201)
        for command in ("run", "validate"):
            _refused_config(tmp_path, capsys, command, cfg,
                            "error: suffix_start 201 exceeds horizon 200")


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
    def test_exits_2_with_one_line(self, tmp_path, capsys, no_engine, changes,
                                   override):
        cfg = _write(tmp_path, _base_run_config(**changes))
        argv = ["run", "--config", cfg, "--out", str(tmp_path / "o")]
        if override is not None:
            argv += ["-O", override]
        assert main(argv) == 2
        assert _stderr_line(capsys).startswith("error: ")

    @pytest.mark.parametrize("changes, line", [
        ({"horizon": True}, "error: horizon: expected an integer, got True"),
        ({"horizon": "40"}, "error: horizon: expected an integer, got '40'"),
        ({"horizon": 100.7}, "error: horizon: expected an integer, got 100.7"),
        ({"replicates": 3.9},
         "error: replicates: expected an integer, got 3.9"),
        ({"master_seed": 1.5},
         "error: master_seed: expected an integer, got 1.5"),
        ({"checkpoints": [1.5, 50]},
         "error: checkpoints[0]: expected an integer, got 1.5"),
        ({"checkpoints": "123"},
         "error: checkpoints: expected a list of integers, got '123'"),
        ({"noise": {"minibatch": {"batch_size": 8.5}}},
         "error: noise.minibatch.batch_size: expected an integer, got 8.5"),
        ({"step": {"staged": {"stages": [{"a": 0.1, "n": 10.5}]}}},
         "error: step.staged.stages[0].n: expected an integer, got 10.5"),
    ], ids=_key_id)
    def test_integer_field_not_truncated(self, tmp_path, capsys, changes,
                                         line):
        _refused_config(tmp_path, capsys, "run", _base_run_config(**changes),
                        line)

    @pytest.mark.parametrize("changes, line", [
        ({"stages": [{"a": 0.2, "n": 10.5}]},
         "error: stages[0].n: expected an integer, got 10.5"),
        ({"replicates": False},
         "error: replicates: expected an integer, got False"),
    ], ids=_key_id)
    def test_multistage_integer_field_not_truncated(self, tmp_path, capsys,
                                                    changes, line):
        _refused_config(tmp_path, capsys, "multistage",
                        _multistage_config(**changes), line)

    @pytest.mark.parametrize("changes, line", [
        ({"noise": {"gaussian": {"sigma2": True}}},
         "error: noise.gaussian.sigma2: expected a number, got True"),
        ({"noise": {"gaussian": {"sigma2": 10 ** 400}}},
         f"error: noise.gaussian.sigma2: expected a number, got {_HUGE_INT}"),
        ({"step": {"constant": {"a": "0.1"}}},
         "error: step.constant.a: expected a number, got '0.1'"),
        ({"step": {"polynomial": {"gamma": "1.0", "alpha": 1.0}}},
         "error: step.polynomial.gamma: expected a number, got '1.0'"),
        ({"step": {"staged": {"stages": [{"a": False, "n": 10}]}}},
         "error: step.staged.stages[0].a: expected a number, got False"),
        ({"fit_window": ["10", 50]},
         "error: fit_window: expected a number, got '10'"),
    ], ids=_key_id)
    def test_float_field_takes_only_numbers(self, tmp_path, capsys, changes,
                                            line):
        _refused_config(tmp_path, capsys, "run", _base_run_config(**changes),
                        line)

    @pytest.mark.parametrize("a", [True, "0.2"])
    def test_multistage_float_field_takes_only_numbers(self, tmp_path, capsys,
                                                       a):
        _refused_config(tmp_path, capsys, "multistage", _multistage_config(
            stages=[{"a": a, "n": 50}, {"a": 0.1, "n": 100}]),
            f"error: stages[0].a: expected a number, got {a!r}")

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
                                               monkeypatch, changes):
        # One refusal, forced or not, and from validate: before --out is
        # made and before the engine, or its pool, starts.
        def engine(*args, **kwargs):
            raise AssertionError("the engine ran")
        monkeypatch.setattr(harness, "_mse", engine)
        cfg = _write(tmp_path, _base_run_config(
            step={"staged": {"stages": [{"a": 0.1, "n": 5}]}}, horizon=20,
            **changes))
        out = tmp_path / "o"
        run = ["run", "--config", cfg, "--out", str(out)]
        for argv in (run, [*run, "--force-schedule"],
                     [*run, "--force-schedule", "--workers", "2"],
                     ["validate", "--config", cfg]):
            assert main(argv) == 2
            assert capsys.readouterr() == (
                "", "error: index beyond final stage (total length 5)\n")
            assert not out.exists()

    def test_multistage_stages_not_a_list(self, tmp_path, capsys):
        for command in ("multistage", "validate"):
            _refused_config(tmp_path, capsys, command,
                            _multistage_config(stages=5),
                            "error: stages: expected a list of {a, n} objects")


class TestErrorWording:
    @pytest.mark.parametrize("section, spec, message", [
        ("noise", {"laplace": {}}, "unknown noise kind 'laplace' (expected one "
         "of gaussian, bounded_rademacher, minibatch)"),
        ("step", {"constant": {"a": 0.1, "b": 1}},
         "unknown keys in step.constant: ['b']"),
        ("momentum", {"polynomial": {"c": 0.9}},
         "missing keys in momentum.polynomial: ['beta']"),
        ("noise", {"minibatch": {"batch_size": 2}},
         "minibatch noise needs an erm_csv problem"),
    ])
    def test_one_form_for_all_sections(self, tmp_path, capsys, section, spec,
                                       message):
        for command in ("validate", "run"):
            _refused_config(tmp_path, capsys, command,
                            _base_run_config(**{section: spec}),
                            f"error: {message}")


# Every table of names a config or the command line looks a name up in: what
# the refusal calls a name, the names in the table's order, and the config
# or argv that gives the name. A name in a key's place (a section's kind, a
# bound's kind, a template) is always a string; one in a value's place may
# be any JSON value.
def _section(section):
    return lambda tmp_path, name: ["validate", "--config", _write(
        tmp_path, _base_run_config(**{section: {name: {}}}))]


def _value(key, wrap=lambda name: name):
    return lambda tmp_path, name: ["validate", "--config", _write(
        tmp_path, _base_run_config(**{key: wrap(name)}))]


_KEY_TABLES = [
    ("domain kind", "ball, box", _section("domain")),
    ("noise kind", "gaussian, bounded_rademacher, minibatch",
     _section("noise")),
    ("problem kind", "quadratic, quad_plus_l1, erm_csv", _section("problem")),
    ("step kind", "polynomial, constant, staged", _section("step")),
    ("momentum kind", "zero, constant, polynomial, proportional",
     _section("momentum")),
    ("bound kind", "sg_recursion, sgm_recursion",
     lambda tmp_path, name: ["bounds", "--config",
                             _write(tmp_path, {"bound": {name: {}}})]),
    ("template", "lemma1, theorem1-i, theorem1-ii, theorem1-iii, plateau, "
                 "theorem2, corollary1",
     lambda tmp_path, name: ["gen-config", name,
                             "--out", str(tmp_path / "o")]),
]
_VALUE_TABLES = [
    ("variant", "sg, sgm, nsgm, qhm", _value("variant")),
    ("estimator", "last, suffix, weighted", _value("estimator")),
    ("envelope case", "inv_n, log_n_over_n, inv_n_beta",
     _value("envelope", lambda name: {"case": name})),
    ("recursion_bound kind", "sg, sgm",
     _value("recursion_bound", lambda name: {"kind": name})),
]
_STRINGS = {"unknown": ("nope", "'nope'"),
            "long": ("n" * 5000, "'" + "n" * 27 + "..." + "n" * 27 + "'")}
_NON_STRINGS = {"list": (["sg"], "['sg']"), "object": ({"sg": 1}, "{'sg': 1}")}


@pytest.mark.parametrize("what, names, argv, name, echo", [
    pytest.param(*table, *case, id=f"{table[0].replace(' ', '_')}-{kind}")
    for tables, cases in ((_KEY_TABLES, _STRINGS),
                          (_VALUE_TABLES, {**_STRINGS, **_NON_STRINGS}))
    for table in tables for kind, case in cases.items()])
def test_unknown_name_is_refused_with_the_names_that_exist(
        tmp_path, capsys, what, names, argv, name, echo):
    assert main(argv(tmp_path, name)) == 2
    assert capsys.readouterr() == (
        "", f"error: unknown {what} {echo} (expected one of {names})\n")
    assert not (tmp_path / "o").exists()


class TestBadCliInput:
    def test_fit_empty_file(self, tmp_path, capsys):
        p = tmp_path / "summary.csv"
        p.write_text("")
        _refused(tmp_path, capsys, ["fit", "--summary", str(p), "--window",
                                    "1", "10"],
                 f"error: {p}: unexpected header []")

    def test_fit_missing_file(self, tmp_path, capsys):
        p = tmp_path / "none.csv"
        _refused(tmp_path, capsys, ["fit", "--summary", str(p), "--window",
                                    "1", "10"],
                 f"error: cannot read summary {p}: [Errno 2] No such file or "
                 f"directory: '{p}'")

    def test_fit_checks_header_before_rows(self, tmp_path, capsys):
        p = tmp_path / "summary.csv"
        p.write_text("j,bound\n0,not-a-number\n")
        _refused(tmp_path, capsys, ["fit", "--summary", str(p), "--window",
                                    "1", "10"],
                 f"error: {p}: unexpected header ['j', 'bound']")

    @pytest.mark.parametrize("argv, line", [
        (["fit", "--summary", "{summary}", "--window", "1", "10"],
         "error: {summary}: malformed row 2, column mse_mean: 'x'"),
        (["run", "--config", "{missing}", "--out", "{out}"],
         "error: cannot read config {missing}: [Errno 2] No such file or "
         "directory: '{missing}'"),
        (["run", "--config", "{config}", "--out", "{out}", "-O", "horizon"],
         "error: override 'horizon' must be key=value"),
        (["run", "--config", "{config}", "--out", "{out}",
          "-O", "step.constant.a=0.1"],
         "error: override path 'step.constant.a' not found"),
        # Vectors nested past numpy's 64 dimensions, and JSON past the
        # parser's recursion limit, used to end in a RecursionError
        # traceback.
        (["run", "--config", "{deep_theta0}", "--out", "{out}"],
         "error: theta0: lists nested more than 64 deep"),
        (["validate", "--config", "{deep_theta0}"],
         "error: theta0: lists nested more than 64 deep"),
        (["run", "--config", "{deep_center}", "--out", "{out}"],
         "error: domain.ball.center: lists nested more than 64 deep"),
        (["validate", "--config", "{deep_center}"],
         "error: domain.ball.center: lists nested more than 64 deep"),
        (["run", "--config", "{config}", "--out", "{out}",
          "-O", f"theta0={_nested(500)}"],
         "error: theta0: lists nested more than 64 deep"),
        (["run", "--config", "{deep_json}", "--out", "{out}"],
         "error: cannot read config {deep_json}: maximum recursion depth "
         "exceeded while decoding a JSON array from a unicode string"),
        (["run", "--config", "{config}", "--out", "{out}",
          "-O", "theta0=" + "[" * 100_000 + "]" * 100_000],
         "error: override 'theta0': maximum recursion depth exceeded while "
         "decoding a JSON array from a unicode string"),
        # A refused value from outside is echoed by its two ends: these
        # used to print lines of 340 to 5,050 characters.
        (["validate", "--config", "{config}", "-O", f"horizon={_nested(950)}"],
         "error: horizon: expected an integer, got "
         + "[" * 28 + "..." + "]" * 28),
        (["validate", "--config", "{config}", "-O", f"variant={_nested(950)}"],
         "error: unknown variant " + "[" * 28 + "..." + "]" * 28
         + " (expected one of sg, sgm, nsgm, qhm)"),
        (["validate", "--config", "{config}", "-O", "replicates=1e300"],
         "error: replicates must be <= 2**32, got "
         "1000000000000000052504760255...5669472196386865459400540160"),
        (["validate", "--config", "{config}", "-O", "master_seed=-1e300"],
         "error: master_seed must be >= 0, got "
         "-100000000000000005250476025...5669472196386865459400540160"),
        (["validate", "--config", "{config}",
          "-O", 'estimator="' + "e" * 3000 + '"'],
         "error: unknown estimator '" + "e" * 27 + "..." + "e" * 27
         + "' (expected one of last, suffix, weighted)"),
        (["validate", "--config", "{long_cell_config}"],
         "error: {long_cell}: non-numeric cell at row 2, column 3: '"
         + "z" * 27 + "..." + "z" * 27 + "'"),
        # A file that is not UTF-8 is named, as for any other read failure.
        (["run", "--config", "{not_utf8}", "--out", "{out}"],
         "error: cannot read config {not_utf8}: 'utf-8' codec can't decode "
         "byte 0xff in position 0: invalid start byte"),
        (["fit", "--summary", "{not_utf8}", "--window", "1", "10"],
         "error: cannot read summary {not_utf8}: 'utf-8' codec can't decode "
         "byte 0xff in position 0: invalid start byte"),
        # Refusals that used to lose the key, or print usage and a
        # 5,000-character echo.
        (["validate", "--config", "{config}", "-O", "replicates=" + "1" * 5000],
         "error: override 'replicates': Exceeds the limit (4300 digits) for "
         "integer string conversion: value has 5000 digits; use "
         "sys.set_int_max_str_digits() to increase the limit"),
        (["validate", "--config", "{config}", "-O", "horizon=1e300"],
         "error: horizon 1000000000000000052504760255...56694721963868654594"
         "00540160 is too long: more steps than one array can hold"),
        # np.arange(2**63) is an empty array: this horizon used to pass.
        (["validate", "--config", "{config}", "-O", f"horizon={2**63}"],
         "error: horizon 9223372036854775808 is too long: more steps than "
         "one array can hold"),
        (["validate", "--config", "{multistage}",
          "-O", 'stages=[{{"a": 0.2, "n": 1e300}}]'],
         "error: stages[0].n 1000000000000000052504760255...566947219638686"
         "5459400540160 is too long: more steps than one array can hold"),
        (["run", "--out", "{out}"],
         "error: the following arguments are required: --config"),
        (["run", "--config", "{config}", "--out", "{out}",
          "--seed", "1" * 5000],
         "error: argument --seed: invalid int value: '" + "1" * 27 + "..."
         + "1" * 27 + "'"),
        (["run", "--config", "{config}", "--out", "{out}", "z" * 5000],
         "error: unrecognized arguments: " + "z" * 28 + "..." + "z" * 28),
        (["fit", "--summary", "{long_summary}", "--window", "1", "10"],
         "error: {long_summary}: malformed row 3, column mse_mean: '"
         + "x" * 27 + "..." + "x" * 27 + "'"),
        # An unknown command is looked up as any other name; a long one
        # used to be echoed whole by argparse, in 5,121 characters.
        (["zzz"], "error: unknown command 'zzz' (expected one of run, "
         "multistage, bounds, fit, validate, gen-config)"),
        (["z" * 5000], "error: unknown command '" + "z" * 27 + "..." + "z" * 27
         + "' (expected one of run, multistage, bounds, fit, validate, "
         "gen-config)"),
    ], ids=["malformed_row", "missing_config", "override_without_value",
            "override_path_not_found", "deep_theta0_run",
            "deep_theta0_validate", "deep_center_run", "deep_center_validate",
            "deep_theta0_override", "deep_json", "deep_json_override",
            "deep_horizon", "deep_variant", "huge_replicates",
            "huge_negative_seed", "long_estimator", "long_csv_cell",
            "not_utf8_config", "not_utf8_summary", "huge_override",
            "huge_horizon", "horizon_2_63", "huge_stage_n", "missing_flag",
            "huge_seed_flag", "long_extra_argument", "long_fit_cell",
            "unknown_command", "long_command"])
    def test_bad_argument_exits_2_with_one_line(self, tmp_path, capsys, argv,
                                                line):
        summary = tmp_path / "summary.csv"
        summary.write_text("checkpoint,mse_mean,mse_sem\n1,x,0.1\n")
        long_summary = tmp_path / "long_summary.csv"
        long_summary.write_text("checkpoint,mse_mean,mse_sem\n1,0.5,0.1\n"
                                f"2,{'x' * 5000},0.1\n")
        deep_json = tmp_path / "deep.json"
        deep_json.write_text("[" * 100_000 + "]" * 100_000)
        long_cell = tmp_path / "long_cell.csv"
        long_cell.write_text("1,0,1\n0,1," + "z" * 5000 + "\n")
        not_utf8 = tmp_path / "not_utf8"
        not_utf8.write_bytes(b"\xff\xfe")
        ball = {"center": json.loads(_nested(500)), "radius": 2.0}
        paths = {"summary": summary, "missing": tmp_path / "none.json",
                 "long_summary": long_summary,
                 "config": _write(tmp_path, _base_run_config()),
                 "multistage": _write(tmp_path, _multistage_config(),
                                      "multistage.json"),
                 "deep_theta0": _write(tmp_path, _base_run_config(
                     theta0=json.loads(_nested(500))), "deep_theta0.json"),
                 "deep_center": _write(tmp_path, _base_run_config(
                     domain={"ball": ball}), "deep_center.json"),
                 "deep_json": deep_json, "out": tmp_path / "o",
                 "long_cell": long_cell, "not_utf8": not_utf8,
                 "long_cell_config": _write(tmp_path, _base_run_config(
                     problem={"erm_csv": {"path": str(long_cell)}}),
                     "long_cell.json")}
        _refused(tmp_path, capsys, [arg.format(**paths) for arg in argv],
                 line.format(**paths))

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_flag(self, tmp_path, capsys, workers):
        _refused(tmp_path, capsys, [
            "run", "--config", _write(tmp_path, _base_run_config()),
            "--out", str(tmp_path / "o"), "--workers", workers],
            f"error: workers must be >= 1, got {workers}")

    @pytest.mark.parametrize("domain, message", [
        ({"ball": {"center": [], "radius": 1.0}},
         "error: ball center must be a non-empty 1-D vector"),
        ({"box": {"lower": [], "upper": []}},
         "error: box bounds must be non-empty 1-D vectors of equal length"),
    ])
    def test_empty_hessian_diag(self, tmp_path, capsys, domain, message):
        problem = {"quadratic": {"hessian_diag": [], "theta_star": []}}
        _refused_config(tmp_path, capsys, "run", _base_run_config(
            problem=problem, domain=domain, theta0=[]), message)


class TestOutputPathErrors:
    def test_run_out_is_an_existing_file(self, tmp_path, capsys):
        cfg = _write(tmp_path, _base_run_config())
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert _stderr_line(capsys).startswith(
            f"error: cannot create output directory {out}")

    def test_gen_config_into_a_missing_directory(self, tmp_path, capsys):
        # gen-config makes its file's directory, as run makes --out.
        out = tmp_path / "missing" / "x.json"
        assert main(["gen-config", "lemma1", "--out", str(out)]) == 0
        assert capsys.readouterr() == (f"wrote {out}\n", "")
        assert json.loads(out.read_text()) == gen_config("lemma1")


class TestRefusedConfigLeavesNoOutput:
    """A refused config leaves no --out behind: every check of the config
    alone runs before --out is made. A directory made before a run fails
    is removed again. An existing output, a directory in an output's place
    or an uncreatable --out still stops the command before the engine
    runs."""

    @pytest.mark.parametrize("command", ["run", "multistage", "validate"])
    @pytest.mark.parametrize("changes, line", [
        ({"master_seed": -1}, "error: master_seed must be >= 0, got -1"),
        ({"workers": 0}, "error: workers must be >= 1, got 0"),
        # An unforced schedule refusal; validate reports every stage.
        ({"momentum": {"polynomial": {"c": 5, "beta": 1}}}, {
            "run": "error: schedule validation failed: eta_j >= 1 at j=0 "
                   "(5 indices)",
            "multistage": "error: stage 0 schedule validation failed: "
                          "eta_j >= 1 at j=0 (5 indices)",
            "validate": ("stage 0: violation: eta_j >= 1 at j=0 (5 indices)\n"
                         "stage 1: violation: eta_j >= 1 at j=0 (5 indices)"
                         "\n", "")}),
        ({"variant": ["sg"]},
         "error: unknown variant ['sg'] (expected one of sg, sgm, nsgm, qhm)"),
        ({"variant": "qhm", "qhm_v": "x"},
         "error: qhm_v: expected a number, got 'x'"),
        ({"variant": "qhm", "qhm_v": True},
         "error: qhm_v: expected a number, got True"),
        ({"variant": "qhm", "qhm_v": 2},
         "error: qhm_v: QHM interpolation parameter v must lie in [0, 1]"),
        ({"variant": "qhm"},
         "error: qhm_v: qhm variant requires the interpolation parameter v"),
        ({"momentum": {"constant": {"eta": 1.5}}},
         "error: eta must lie in [0, 1)"),
        ({"noise": {"gaussian": {"sigma2": -1}}},
         "error: sigma2 must be nonnegative"),
        ({"problem": {"quadratic": {"hessian_diag": [1.0, 1.0],
                                    "theta_star": [0.0, 0.0, 0.0]}}},
         "error: hessian_diag and theta_star shapes differ"),
        ({"replicates": 2**32 + 1},
         "error: replicates must be <= 2**32, got 4294967297"),
        *((changes, _NOT_1D_LINE) for changes in _NOT_1D_PROBLEMS.values()),
        # Vector elements are checked one by one: these used to run as
        # the vectors numpy casts them to, or crash with an OverflowError.
        ({"domain": {"ball": {"center": ["0.0", "0"], "radius": 2.0}}},
         "error: domain.ball.center[0]: expected a number, got '0.0'"),
        ({"domain": {"ball": {"center": [0.0, False], "radius": 2.0}}},
         "error: domain.ball.center[1]: expected a number, got False"),
        ({"domain": {"ball": {"center": [10**400, 0], "radius": 2.0}}},
         f"error: domain.ball.center[0]: expected a number, got {_HUGE_INT}"),
        ({"problem": {"quadratic": {"hessian_diag": [True, True],
                                    "theta_star": [0.0, 0.0]}}},
         "error: problem.quadratic.hessian_diag[0]: expected a number, "
         "got True"),
        ({"problem": {"quadratic": {"hessian_diag": [1, 10**400],
                                    "theta_star": [0.0, 0.0]}}},
         "error: problem.quadratic.hessian_diag[1]: expected a number, "
         f"got {_HUGE_INT}"),
        ({"problem": {"quadratic": {"hessian_diag": [[1.0, "1"]],
                                    "theta_star": [[0.0, 0.0]]}}},
         "error: problem.quadratic.hessian_diag[0][1]: expected a number, "
         "got '1'"),
        # theta0's elements go through the same check; a mixed one used
        # to run as the integer vector numpy made of it.
        ({"theta0": [True, False]},
         "error: theta0[0]: expected a number, got True"),
        ({"theta0": [1, True]},
         "error: theta0[1]: expected a number, got True"),
        ({"variant": "adam"},
         "error: unknown variant 'adam' (expected one of sg, sgm, nsgm, qhm)"),
        ({"problem": {"erm_csv": {"path": "no/such/file.csv"}}},
         "error: problem.erm_csv: cannot read 'no/such/file.csv': No such "
         "file or directory"),
        ({"noise": {"minibatch": {"batch_size": 0}}},
         "error: batch_size must be >= 1"),
        # The least-squares solution lies outside the ball: refused with
        # the line every problem's theta_star check gives.
        ({"problem": {"erm_csv": {"path": str(GOLDEN / "erm_small.csv")}},
          "domain": {"ball": {"center": [0.0, 0.0, 0.0], "radius": 0.5}},
          "theta0": [0.0, 0.0, 0.0]},
         "error: point lies outside the domain (tolerance 1e-9)"),
        ({"problem": {"quadratic": {"hessian_diag": [1e-13, 1.0],
                                    "theta_star": [0.0, 0.0]}}},
         "error: strong-convexity constant 1.000e-13 <= 1e-12"),
        ({"problem": {"quad_plus_l1": {"hessian_diag": [1.0, 1.0],
                                       "theta_star": [0.0, 0.0],
                                       "l1_weight": -1}}},
         "error: l1_weight must be nonnegative"),
        ({"momentum": {"polynomial": {"c": 0, "beta": 1}}},
         "error: c must be positive"),
        ({"momentum": {"polynomial": {"c": 0.5, "beta": 0}}},
         "error: beta must be positive"),
        ({"momentum": {"proportional": {"k": 0}}},
         "error: k must be positive"),
    ], ids=["negative_seed", "zero_workers", "schedule", "variant_list",
            "qhm_v_string", "qhm_v_bool", "qhm_v_range", "qhm_v_missing",
            "eta_above_one", "negative_sigma2", "mismatched_problem",
            "too_many_replicates", *_NOT_1D_PROBLEMS, "center_strings",
            "center_bool", "center_huge_int", "hessian_bools",
            "hessian_huge_int", "nested_hessian_string", "theta0_bools",
            "theta0_mixed", "unknown_variant", "missing_csv", "zero_batch",
            "erm_theta_star_outside", "flat_curvature", "negative_l1_weight",
            "zero_c", "zero_beta", "zero_k"])
    def test_refused_config(self, tmp_path, capsys, command, changes, line):
        # validate reads the multistage config here; the run config's
        # refusals are checked by test_validate_refuses_what_run_refuses.
        cfg = (_base_run_config(**changes) if command == "run"
               else _multistage_config(**changes))
        _refused_config(tmp_path, capsys, command, cfg,
                        line[command] if isinstance(line, dict) else line)

    @pytest.mark.parametrize("changes, line", [
        ({"recursion_bound": {"kind": "sgm2"}},
         "error: unknown recursion_bound kind 'sgm2' (expected one of sg, "
         "sgm)"),
        ({"recursion_bound": {"kind": ["sg"]}},
         "error: unknown recursion_bound kind ['sg'] (expected one of sg, "
         "sgm)"),
        ({"recursion_bound": {"kind": "sg"}, "theta0": "random-interior"},
         "error: recursion_bound with random theta0 needs explicit E0"),
        ({"estimator": "median"},
         "error: unknown estimator 'median' (expected one of last, suffix, "
         "weighted)"),
        ({"horizon": 0}, "error: horizon must be >= 1"),
        ({"step": {"polynomial": {"gamma": -1, "alpha": 1.0}}},
         "error: gamma must be positive"),
        ({"checkpoints": []}, "error: checkpoints must not be empty"),
        ({"estimator": "suffix", "suffix_start": -1},
         "error: suffix_start must be >= 0, got -1"),
        # the recursion bound used to go unread, its kind unchecked
        ({"envelope": {"case": "inv_n"}, "recursion_bound": {"kind": "bogus"}},
         "error: envelope and recursion_bound: give at most one"),
        ({"step": {"constant": 0.1}}, "error: step.constant: expected an object"),
        ({"step": "constant"}, "error: step: expected a single-key object"),
        ({"step": {"constant": {"a": 0}}},
         "error: constant step must be positive"),
        ({"step": {"staged": {"stages": [{"a": -0.1, "n": 50}]}}},
         "error: stage step a = -0.1 must be positive"),
        ({"envelope": {"case": "inv_n", "constant": -1}},
         "error: envelope constant must be positive"),
        # every violation on one line; each used to take a line of its own
        ({"step": {"constant": {"a": 5.0}},
          "momentum": {"polynomial": {"c": 1.0, "beta": 1.0}}},
         "error: schedule validation failed: t_j*m = 5 not in (0, 1] at j=0 "
         "(50 indices over horizon); eta_j >= 1 at j=0 (1 indices)"),
    ], ids=["recursion_bound_kind", "recursion_bound_kind_list",
            "recursion_bound_without_E0", "estimator", "zero_horizon",
            "negative_gamma", "no_checkpoints", "negative_suffix_start",
            "envelope_and_recursion_bound", "params_not_an_object",
            "section_not_an_object", "zero_constant_step",
            "negative_stage_step", "negative_envelope_constant",
            "two_schedule_violations"])
    def test_refused_run_config(self, tmp_path, capsys, changes, line):
        # Keys only `run` takes.
        _refused_config(tmp_path, capsys, "run", _base_run_config(**changes),
                        line)

    @pytest.mark.parametrize("changes, line", [
        ({"fit_window": [1, 3]},
         "error: need >= 4 checkpoints in window, got 3"),
        ({"envelope": {"case": "inv_n"}, "checkpoints": [5]},
         "error: need at least 2 checkpoints to calibrate"),
        ({"recursion_bound": {"kind": "sgm", "E0": -1}},
         "error: E0 must be nonnegative"),
        ({"envelope": {"case": "bogus"}},
         "error: unknown envelope case 'bogus' (expected one of inv_n, "
         "log_n_over_n, inv_n_beta)"),
        ({"envelope": {"case": "inv_n"}, "recursion_bound": {"kind": "sg"}},
         "error: envelope and recursion_bound: give at most one"),
        *((changes, _NOT_1D_LINE) for changes in _NOT_1D_PROBLEMS.values()),
    ], ids=["short_window", "one_checkpoint_envelope", "negative_E0",
            "unknown_envelope", "envelope_and_recursion_bound",
            *_NOT_1D_PROBLEMS])
    def test_validate_refuses_what_run_refuses(self, tmp_path, capsys,
                                               changes, line):
        for command in ("validate", "run"):
            _refused_config(tmp_path, capsys, command,
                            _base_run_config(**changes), line)

    def test_unallocatable_horizon(self, tmp_path, capsys, no_engine):
        # The schedule of 10**15 steps needs 8 PB, a request no machine
        # can map, so it fails before any memory is touched. The line used
        # to be numpy's alone, naming no key.
        path = _write(tmp_path, _base_run_config(horizon=10**15))
        out = tmp_path / "o"
        assert main(["validate", "--config", path]) == 2
        line = _stderr_line(capsys)
        assert line.startswith("error: horizon 1000000000000000 is too long: "
                               "Unable to allocate")
        assert main(["run", "--config", path, "--out", str(out)]) == 2
        assert _stderr_line(capsys) == line
        assert not out.exists()
        path = _write(tmp_path, _multistage_config(
            stages=[{"a": 0.2, "n": 50}, {"a": 0.1, "n": 10**15}]))
        assert main(["multistage", "--config", path, "--out", str(out)]) == 2
        assert _stderr_line(capsys).startswith(
            "error: stages[1].n 1000000000000000 is too long: Unable to "
            "allocate")
        assert not out.exists()

    def test_memory_error_removes_the_directory_made(self, tmp_path, capsys,
                                                     monkeypatch):
        def engine(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 PiB")
        monkeypatch.setattr(harness, "_mse", engine)
        out = tmp_path / "o"
        assert main(["run", "--config", _write(tmp_path, _base_run_config()),
                     "--out", str(out)]) == 2
        assert _stderr_line(capsys) == "error: Unable to allocate 8.00 PiB"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "multistage"])
    def test_dead_worker_removes_the_directories_made(
            self, tmp_path, capsys, monkeypatch, command):
        # The worker of replicates 2..3 dies as one killed by the OOM killer
        # would. Forked workers inherit the patch; functools.wraps lets the
        # pool pickle it by the name it replaces.
        run_block = harness._run_block

        @functools.wraps(run_block)
        def dying(stages, rep_lo, rep_hi):
            if rep_lo > 0:
                os._exit(1)
            return run_block(stages, rep_lo, rep_hi)

        monkeypatch.setattr(harness, "_run_block", dying)
        cfg = _base_run_config() if command == "run" else _multistage_config()
        out = tmp_path / "made" / "o"
        assert main([command, "--config", _write(tmp_path, cfg),
                     "--out", str(out), "--workers", "2"]) == 2
        assert _stderr_line(capsys) == (
            "error: a worker process died, perhaps out of memory")
        assert not (tmp_path / "made").exists()

    @pytest.mark.parametrize("command", ["run", "multistage"])
    def test_seed_flag_refused(self, tmp_path, capsys, command):
        cfg = _base_run_config() if command == "run" else _multistage_config()
        _refused(tmp_path, capsys, [
            command, "--config", _write(tmp_path, cfg),
            "--out", str(tmp_path / "o"), "--seed", "-1"],
            "error: master_seed must be >= 0, got -1")

    def test_bad_step(self, tmp_path, capsys):
        _refused_config(tmp_path, capsys, "run", _base_run_config(
            step={"constant": {"a": 2.0}}),
            "error: schedule validation failed: t_j*m = 2 not in (0, 1] at "
            "j=0 (50 indices over horizon)")

    @pytest.mark.parametrize("stages, line", [
        ([{"a": 0.1, "n": 50}, {"a": 0.1, "n": 50}],
         "error: stage steps must be strictly decreasing"),
        ([{"a": 0.2, "n": 50}, {"a": 0.1, "n": 0}],
         "error: stage length must be >= 1"),
        ([], "error: need at least one stage"),
    ], ids=["not_decreasing", "empty_stage", "no_stages"])
    def test_bad_stage(self, tmp_path, capsys, stages, line):
        for command in ("multistage", "validate"):
            _refused_config(tmp_path, capsys, command,
                            _multistage_config(stages=stages), line)

    @pytest.mark.parametrize("command, name", [("run", "summary.csv"),
                                               ("multistage", "stages.csv")])
    def test_existing_output_stops_before_the_engine(
            self, tmp_path, capsys, no_engine, command, name):
        cfg = _base_run_config() if command == "run" else _multistage_config()
        out = tmp_path / "o"
        out.mkdir()
        (out / name).write_text("kept\n")
        assert main([command, "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) == 2
        assert _stderr_line(capsys) == (f"error: {out / name} exists; pass "
                                        "--overwrite to replace it")
        assert (out / name).read_text() == "kept\n"

    @pytest.mark.parametrize("overwrite", [[], ["--overwrite"]])
    @pytest.mark.parametrize("command, name", [
        ("run", "summary.json"), ("multistage", "stages.csv"),
        ("gen-config", "x.json")])
    def test_directory_in_place_of_an_output(self, tmp_path, capsys,
                                             no_engine, command, name,
                                             overwrite):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        if command == "gen-config":
            argv = [command, "lemma1", "--out", str(out / name)]
        else:
            cfg = (_base_run_config() if command == "run"
                   else _multistage_config())
            argv = [command, "--config", _write(tmp_path, cfg),
                    "--out", str(out)]
        assert main([*argv, *overwrite]) == 2
        assert _stderr_line(capsys) == (
            f"error: {out / name} is a directory, not a file")
        assert [p.name for p in out.iterdir()] == [name]

    @pytest.mark.parametrize("command, engine", [
        ("run", "run_replicates"), ("multistage", "run_multistage")])
    def test_interrupt_removes_the_directories_made(
            self, tmp_path, monkeypatch, command, engine):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, engine, interrupted)
        cfg = _base_run_config() if command == "run" else _multistage_config()
        path = _write(tmp_path, cfg)
        with pytest.raises(KeyboardInterrupt):
            main([command, "--config", path,
                  "--out", str(tmp_path / "made" / "o")])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command", ["run", "multistage"])
    def test_uncreatable_out_stops_before_the_engine(
            self, tmp_path, capsys, no_engine, command):
        cfg = _base_run_config() if command == "run" else _multistage_config()
        out = tmp_path / "taken"
        out.write_text("")
        assert main([command, "--config", _write(tmp_path, cfg),
                     "--out", str(out / "sub")]) == 2
        assert _stderr_line(capsys).startswith(
            f"error: cannot create output directory {out / 'sub'}")

    def test_unreadable_output_path(self, tmp_path, capsys, monkeypatch):
        def exists(self):
            raise PermissionError(13, "Permission denied")
        monkeypatch.setattr(Path, "exists", exists)
        cfg = _write(tmp_path, _base_run_config())
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert _stderr_line(capsys) == (f"error: cannot create output "
                                        f"directory {out}: Permission denied")

    @pytest.mark.parametrize("command", ["run", "multistage"])
    def test_only_the_directories_made_are_removed(self, tmp_path, command):
        # The schedule is refused before --out is made.
        momentum = {"polynomial": {"c": 5, "beta": 1}}
        cfg = (_base_run_config(momentum=momentum) if command == "run"
               else _multistage_config(momentum=momentum))
        path = _write(tmp_path, cfg)
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main([command, "--config", path,
                     "--out", str(kept / "a" / "b")]) == 2
        assert kept.is_dir() and list(kept.iterdir()) == []
        assert main([command, "--config", path, "--out", str(kept)]) == 2
        assert kept.is_dir()

    def test_numeric_failure_removes_the_directory_made(self, tmp_path):
        cfg = _base_run_config(noise={"gaussian": {"sigma2": 1e300}},
                               step={"constant": {"a": 1e300}}, variant="sgm",
                               momentum={"constant": {"eta": 0.5}})
        out = tmp_path / "o"
        assert main(["run", "--config", _write(tmp_path, cfg), "--out",
                     str(out), "--force-schedule"]) == 3
        assert not out.exists()

    def test_numeric_failure_removes_only_the_directories_made(
            self, tmp_path, capsys):
        cfg = _base_run_config(noise={"gaussian": {"sigma2": 1e300}},
                               step={"constant": {"a": 1e300}})
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main(["run", "--config", _write(tmp_path, cfg), "--out",
                     str(kept / "a" / "b"), "--force-schedule"]) == 3
        # a forced run that fails prints only its error line
        assert _stderr_line(capsys) == (
            "numeric failure: non-finite value in replicate 0 at step 0")
        assert kept.is_dir() and list(kept.iterdir()) == []

    @pytest.mark.parametrize("changes, line", [
        ({"fit_window": [1, 3]}, "need >= 4 checkpoints in window, got 3"),
        ({"fit_window": [3, 1]}, "need >= 4 checkpoints in window, got 0"),
        ({"checkpoints": [50], "envelope": {"case": "inv_n"}},
         "need at least 2 checkpoints to calibrate"),
    ], ids=["short_window", "reversed_window", "one_checkpoint_envelope"])
    def test_too_few_checkpoints(self, tmp_path, capsys, changes, line):
        _refused_config(tmp_path, capsys, "run", _base_run_config(**changes),
                        "error: " + line)

    @pytest.mark.parametrize("command", ["run", "multistage"])
    @pytest.mark.parametrize("theta0", [
        [[1.0, 0.0], [0.5, 0.0]], [[1.0, 0.0]], 1.0, [3.0, 0.0], {"x": 1.0}],
        ids=["matrix", "row", "scalar", "outside", "object"])
    def test_bad_theta0(self, tmp_path, capsys, command, theta0):
        # A matrix used to fail inside the engine with numpy's broadcast
        # error, a scalar with a dimension error, and a 1x2 row ran; an
        # object crashed `multistage` with a TypeError.
        cfg = (_base_run_config(theta0=theta0) if command == "run"
               else _multistage_config(theta0=theta0))
        _refused_config(tmp_path, capsys, command, cfg, "error: theta0 must "
                        f"be a 2-vector in the domain, got {theta0!r}")


@pytest.mark.parametrize("command, calls", [("run", 1), ("multistage", 2),
                                            ("validate", 1)])
def test_schedule_validated_once_per_run_and_stage(tmp_path, monkeypatch,
                                                   command, calls):
    seen = []
    validate = harness.validate

    def counting(*args):
        seen.append(args)
        return validate(*args)

    monkeypatch.setattr(harness, "validate", counting)
    cfg = (_multistage_config() if command == "multistage"
           else _base_run_config())
    argv = [command, "--config", _write(tmp_path, cfg)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert len(seen) == calls


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
    cfg.pop("fit_window")   # no checkpoint of 50 steps lies in it
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


@pytest.mark.parametrize("changes, line, engine", [
    ({"envelope": {"case": "inv_n", "constant": "x"}},
     "error: envelope.constant: expected a number, got 'x'", False),
    ({"fit_window": 5}, "error: fit_window: expected [lo, hi], got 5", False),
    ({"fit_window": ["a", 10]},
     "error: fit_window: expected a number, got 'a'", False),
    # Every squared error is 0: the fit fails after the engine has run.
    ({"fit_window": [1, 50], "theta0": [0.0, 0.0],
      "noise": {"gaussian": {"sigma2": 0.0}}},
     "error: all mse_mean values in the window must be positive", True),
    # So does the calibration of an envelope; it used to be refused as a
    # constant the user had not given.
    ({"envelope": {"case": "inv_n"}, "theta0": [0.0, 0.0],
      "noise": {"gaussian": {"sigma2": 0.0}}},
     "error: cannot calibrate the envelope: mse_mean is 0 at all 7 "
     "calibration checkpoints", True),
], ids=[f"changes{i}" for i in range(5)])
def test_bad_envelope_or_fit_window_exits_2(tmp_path, capsys, changes, line,
                                            engine):
    _refused_config(tmp_path, capsys, "run", _base_run_config(**changes),
                    line, engine)


@pytest.mark.parametrize("key, value", [
    ("constant", True), ("constant", "2"), ("beta", True), ("beta", "0.5")])
def test_envelope_numbers_take_only_numbers(tmp_path, capsys, key, value):
    # `constant: true` used to run as 1.0, and `constant: "2"` to fail with
    # a comparison of str and int.
    envelope = {"case": "inv_n_beta", "beta": 0.5, key: value}
    _refused_config(tmp_path, capsys, "run", _base_run_config(
        envelope=envelope),
        f"error: envelope.{key}: expected a number, got {value!r}")


@pytest.mark.parametrize("command", ["run", "validate"])
def test_overflowing_constants_exit_2(tmp_path, capsys, command):
    _refused_config(tmp_path, capsys, command, _base_run_config(problem={
        "quadratic": {"hessian_diag": [1.0, 1e160], "theta_star": [0.0, 0.0]}}),
        "error: problem constant M = inf is not finite")


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
    _refused_config(tmp_path, capsys, command,
                    _base_run_config(domain={"ball": ball}), line)


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("box, line", [
    ({"lower": [-1.0, -1.0], "upper": [1.0, float("inf")]},
     "error: box upper bound must be finite, got [1.0, inf]"),
    ({"lower": [float("nan"), -1.0], "upper": [1.0, 1.0]},
     "error: box lower bound must be finite, got [nan, -1.0]"),
    ({"lower": [-1e308, -1.0], "upper": [1e308, 1.0]},
     "error: box diameter ||upper - lower|| overflows"),
], ids=["inf_upper", "nan_lower", "overflowing_edge"])
def test_non_finite_box_exits_2(tmp_path, capsys, command, box, line):
    # Not later, as a non-finite problem constant M, after two numpy
    # overflow warnings for the overflowing edge: the box itself is refused.
    _refused_config(tmp_path, capsys, command, _base_run_config(
        domain={"box": box}, theta0="random-interior"), line)


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
    _refused(tmp_path, capsys, ["run", "--config", cfg, "--out",
                                str(tmp_path / "o")],
             f"error: {data}: non-finite cell at row 3, column 1: '{cell}'")


def test_undecodable_csv_exits_2_naming_the_row(tmp_path, capsys):
    cfg, data = _erm_csv_config(tmp_path, [], ERM_NOISES[0])
    data.write_bytes(b"1,0,1\r\n0,1,2\r\ncaf\xe9,1,3\r\n1,1,3\r\n")
    _refused(tmp_path, capsys, ["run", "--config", cfg, "--out",
                                str(tmp_path / "o")],
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
