"""Config-driven command line: run experiments, evaluate bounds, fit rates,
validate schedules, and generate ready-to-run template configs.

The JSON config file is the primary interface (experiments have too many
parameters for flags); flags only override. Unknown config keys are errors.
Exit codes: 0 success, 2 validation/config failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import geometry, problems, schedules
from .harness import (ExperimentConfig, dominance_check, fit_rate,
                      run_multistage, run_replicates)
from .optimizers import NumericFailureError, variant_from_name

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


RUN_REQUIRED = {"problem", "domain", "noise", "variant", "step", "momentum",
                "horizon", "replicates"}
RUN_DEFAULTS = {
    "estimator": "last",
    "suffix_start": 0,
    "theta0": "random-interior",
    "checkpoints": None,
    "master_seed": 0,
    "qhm_v": None,
    "envelope": None,
    "recursion_bound": None,
    "fit_window": None,
}
MULTISTAGE_REQUIRED = {"problem", "domain", "noise", "momentum", "stages",
                       "replicates"}
MULTISTAGE_DEFAULTS = {"variant": "sgm", "qhm_v": None,
                       "theta0": "random-interior", "master_seed": 0}


def _fail_closed(cfg: dict, allowed: set, required: set, where: str):
    """The one key checker for every config section."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _kind(spec, section: str, kinds) -> tuple:
    """Split a single-key `{kind: params}` object; kind must be in `kinds`."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(f"{section}: expected a single-key object")
    (kind, params), = spec.items()
    if kind not in kinds:
        raise ConfigError(f"unknown {section} kind {kind!r} "
                          f"(expected one of {', '.join(kinds)})")
    return kind, params


# The config format: section -> kind -> class. A class's init fields are the
# keys of its params object (minus the ones the caller supplies, such as a
# problem's domain and noise), and `float`/`int` fields are coerced.
CONFIG_KINDS = {
    "domain": {"ball": geometry.Ball, "box": geometry.Box},
    "noise": {"gaussian": problems.Gaussian,
              "bounded_rademacher": problems.BoundedRademacher,
              "minibatch": problems.Minibatch},
    "problem": {"quadratic": problems.Quadratic,
                "quad_plus_l1": problems.QuadPlusL1,
                "erm_csv": problems.ErmLeastSquares},
    "step": {"polynomial": schedules.PolynomialStep,
             "constant": schedules.ConstantStep,
             "staged": schedules.StagedStep},
    "momentum": {"zero": schedules.ZeroMomentum,
                 "constant": schedules.ConstantMomentum,
                 "polynomial": schedules.PolynomialMomentum,
                 "proportional": schedules.ProportionalToStep},
}


def _coerce(value, type_name: str, where: str):
    """A config value as its field's type. An int field takes an int or a
    whole-valued float such as 1e5, a float field an int or a float; any
    other value is refused rather than truncated or parsed into a run."""
    if type_name == "int":
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if type_name != "float":
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:       # an int past the float range
            pass
    raise ConfigError(f"{where}: expected a number, got {value!r}")


def _stages(stages, where: str) -> list:
    """[(a, n)] from a list of {a, n} objects; n may be 'auto'."""
    if not isinstance(stages, list):
        raise ConfigError(f"{where}: expected a list of {{a, n}} objects")
    pairs = []
    for i, stage in enumerate(stages):
        at = f"{where}[{i}]"
        _fail_closed(stage, {"a", "n"}, {"a", "n"}, at)
        n = stage["n"]
        pairs.append((_coerce(stage["a"], "float", f"{at}.a"),
                      n if n == "auto" else _coerce(n, "int", f"{at}.n")))
    return pairs


def from_config(section: str, spec, **context):
    """Build the `section` object described by `{kind: params}`; `context`
    supplies init fields that do not come from params."""
    kind, params = _kind(spec, section, CONFIG_KINDS[section])
    where = f"{section}.{kind}"
    if kind == "erm_csv":   # a CSV path, not the class's fields
        _fail_closed(params, {"path"}, {"path"}, where)
        try:
            return problems.load_erm_csv(str(params["path"]), **context)
        except OSError as exc:
            raise ConfigError(f"{where}: cannot read {params['path']!r}: "
                              f"{exc.strerror}") from None
    cls = CONFIG_KINDS[section][kind]
    types = {f.name: f.type for f in dataclasses.fields(cls)
             if f.init and f.name not in context}
    _fail_closed(params, set(types), set(types), where)
    kwargs = {k: _coerce(v, types[k], f"{where}.{k}") for k, v in params.items()}
    if kind == "staged":    # a list of {a, n} objects
        kwargs["stages"] = tuple(_stages(params["stages"], f"{where}.stages"))
    try:
        return cls(**kwargs, **context)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def build_problem(cfg: dict) -> problems.Problem:
    domain = from_config("domain", cfg["domain"])
    noise = from_config("noise", cfg["noise"])
    return from_config("problem", cfg["problem"], domain=domain, noise=noise)


def resolve_config(cfg: dict, args, required: set, defaults: dict) -> dict:
    """Fill defaults, then --seed/--workers, then -O overrides; the keys are
    the required ones, the defaulted ones and `workers`."""
    _fail_closed(cfg, required | set(defaults) | {"workers"}, required,
                 "config")
    workers = os.environ.get("SGMLAB_WORKERS", "1")
    try:
        workers = int(workers)
    except ValueError:
        raise ConfigError(f"SGMLAB_WORKERS: expected an integer, got "
                          f"{workers!r}") from None
    resolved = {**defaults, "workers": workers, **cfg}
    if getattr(args, "seed", None) is not None:
        resolved["master_seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        resolved["workers"] = args.workers
    _apply_overrides(resolved, args.override)
    return resolved


def _integers(resolved: dict, keys) -> dict:
    """The resolved config's integer fields `keys`, checked by _coerce."""
    return {k: _coerce(resolved[k], "int", k) for k in keys}


def build_experiment(resolved: dict, force_schedule: bool = False) -> ExperimentConfig:
    problem = build_problem(resolved)
    checkpoints = resolved["checkpoints"]
    if checkpoints is not None:
        if not isinstance(checkpoints, list):
            raise ConfigError(f"checkpoints: expected a list of integers, "
                              f"got {checkpoints!r}")
        checkpoints = [_coerce(c, "int", f"checkpoints[{i}]")
                       for i, c in enumerate(checkpoints)]
    try:
        return ExperimentConfig(
            problem=problem,
            variant=variant_from_name(resolved["variant"], resolved.get("qhm_v")),
            step=from_config("step", resolved["step"]),
            momentum=from_config("momentum", resolved["momentum"]),
            estimator=resolved["estimator"],
            theta0=resolved["theta0"],
            checkpoints=checkpoints,
            force_schedule=force_schedule,
            **_integers(resolved, ("suffix_start", "horizon", "replicates",
                                   "master_seed", "workers")),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_bound(resolved: dict, config: ExperimentConfig):
    """Optional dominance target from 'envelope' or 'recursion_bound'."""
    if resolved.get("envelope") is not None:
        e = resolved["envelope"]
        _fail_closed(e, {"case", "constant", "beta"}, {"case"}, "envelope")
        try:
            return bounds_mod.RateEnvelope(case=e["case"],
                                           constant=e.get("constant"),
                                           beta=e.get("beta"))
        except TypeError as exc:
            raise ConfigError(f"envelope: {exc}") from None
    if resolved.get("recursion_bound") is not None:
        r = resolved["recursion_bound"]
        _fail_closed(r, {"kind", "E0"}, {"kind"}, "recursion_bound")
        if r["kind"] not in ("sg", "sgm"):
            raise ConfigError(f"unknown recursion_bound kind {r['kind']!r} "
                              "(expected one of sg, sgm)")
        consts = config.problem.constants()
        if r.get("E0") is not None:
            E0 = _coerce(r["E0"], "float", "recursion_bound.E0")
        elif not isinstance(config.theta0, str):
            delta = config.theta0 - consts.theta_star
            E0 = float(delta @ delta)
        else:
            raise ConfigError("recursion_bound with random theta0 needs explicit E0")
        if r["kind"] == "sg":
            return bounds_mod.sg_recursion_bound(
                E0, config.step, consts.m, consts.M, consts.sigma2,
                config.horizon)
        return bounds_mod.sgm_recursion_bound(
            E0, config.step, config.momentum, consts.m, consts.M,
            consts.sigma2, consts.L, config.horizon)
    return None


def _format_float(x: float) -> str:
    return repr(float(x))


def summary_csv(summary, report=None) -> str:
    lines = []
    if report is None:
        lines.append("checkpoint,mse_mean,mse_sem")
        for c, mean, sem in zip(summary.checkpoints, summary.mse_mean,
                                summary.mse_sem):
            lines.append(f"{c},{_format_float(mean)},{_format_float(sem)}")
    else:
        lines.append("checkpoint,mse_mean,mse_sem,bound_value,verdict")
        checked = set(report.checked)
        bad = {v[0] for v in report.violations}
        for c, mean, sem, bv in zip(summary.checkpoints, summary.mse_mean,
                                    summary.mse_sem, report.bound_values):
            if c not in checked:
                verdict = "calibration"
            else:
                verdict = "violation" if c in bad else "ok"
            lines.append(f"{c},{_format_float(mean)},{_format_float(sem)},"
                         f"{_format_float(bv)},{verdict}")
    return "\n".join(lines) + "\n"


def _check_output(path: Path, overwrite: bool):
    if path.exists() and not overwrite:
        raise ConfigError(f"{path} exists; pass --overwrite to replace it")


def _outputs(args, *names) -> list:
    """Paths of the named files in --out, refusing to replace existing ones."""
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: "
                          f"{exc.strerror}") from None
    targets = [out_dir / name for name in names]
    for t in targets:
        _check_output(t, args.overwrite)
    return targets


def _write_outputs(targets: list, texts: list):
    """Land each text, all built beforehand, whole on its target: write a
    temp file beside it, then os.replace it onto the target name."""
    for target, text in zip(targets, texts, strict=True):
        tmp = target.with_name(f".{target.name}.tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, target)
        except OSError as exc:
            raise ConfigError(f"cannot write {target}: "
                              f"{exc.strerror}") from None
        finally:
            tmp.unlink(missing_ok=True)


def cmd_run(args) -> int:
    resolved = resolve_config(_load_json(args.config), args, RUN_REQUIRED,
                              RUN_DEFAULTS)
    targets = _outputs(args, "summary.csv", "summary.json",
                       "config.resolved.json")

    config = build_experiment(resolved, force_schedule=args.force_schedule)
    bound = _build_bound(resolved, config)
    window = resolved.get("fit_window")
    if window is not None:
        if not isinstance(window, list) or len(window) != 2:
            raise ConfigError(f"fit_window: expected [lo, hi], got {window!r}")
        window = tuple(_coerce(x, "float", "fit_window") for x in window)
    summary = run_replicates(config)
    if not summary.schedule_report.ok:
        print(f"schedule warnings (forced):\n{summary.schedule_report}",
              file=sys.stderr)
    dom = dominance_check(summary, bound) if bound is not None else None
    fit = None if window is None else fit_rate(summary, window)

    payload = {
        "fit": None if fit is None else {
            "exponent": fit.exponent, "log_constant": fit.log_constant,
            "r2": fit.r2,
        },
        "dominance": None if dom is None else {
            "passed": dom.passed,
            "violations": [list(v) for v in dom.violations],
            "first_violation": dom.first_violation,
            "calibrated_constant": dom.calibrated_constant,
            "checked": list(dom.checked),
        },
        "metadata": {
            "config_hash": summary.config_hash,
            "master_seed": summary.master_seed,
            "replicates": summary.replicates,
            "estimator": summary.estimator,
            "wall_time_s": summary.wall_time,
        },
    }
    resolved["checkpoints"] = list(config.checkpoints)
    _write_outputs(targets, [
        summary_csv(summary, dom),
        json.dumps(payload, indent=2) + "\n",
        json.dumps(resolved, indent=2, sort_keys=True) + "\n"])
    return EXIT_OK


def cmd_multistage(args) -> int:
    resolved = resolve_config(_load_json(args.config), args,
                              MULTISTAGE_REQUIRED, MULTISTAGE_DEFAULTS)
    targets = _outputs(args, "stages.csv", "config.resolved.json")

    problem = build_problem(resolved)
    reports = run_multistage(
        problem, _stages(resolved["stages"], "stages"),
        from_config("momentum", resolved["momentum"]),
        variant=variant_from_name(resolved["variant"], resolved.get("qhm_v")),
        theta0=resolved["theta0"],
        force_schedule=args.force_schedule,
        **_integers(resolved, ("replicates", "master_seed", "workers")))
    for k, r in enumerate(reports):
        if not r.schedule_report.ok:
            print(f"stage {k} schedule warnings (forced):\n"
                  f"{r.schedule_report}", file=sys.stderr)

    lines = ["stage,step,length,burn_in,suffix_mse_mean,suffix_mse_sem,plateau"]
    for k, r in enumerate(reports):
        lines.append(f"{k},{_format_float(r.step)},{r.length},{r.burn_in},"
                     f"{_format_float(r.suffix_mse_mean)},"
                     f"{_format_float(r.suffix_mse_sem)},"
                     f"{_format_float(r.plateau)}")
    _write_outputs(targets, [
        "\n".join(lines) + "\n",
        json.dumps(resolved, indent=2, sort_keys=True) + "\n"])
    return EXIT_OK


def cmd_bounds(args) -> int:
    cfg = _load_json(args.config)
    _fail_closed(cfg, {"bound"}, {"bound"}, "config")
    kind, p = _kind(cfg["bound"], "bound", ("sg_recursion", "sgm_recursion"))
    keys = {"E0", "step", "m", "M", "sigma2", "N"}
    if kind == "sgm_recursion":
        keys |= {"momentum", "L"}
    _fail_closed(p, keys, keys, f"bound.{kind}")
    num = {k: _coerce(p[k], "int" if k == "N" else "float", f"bound.{kind}.{k}")
           for k in keys - {"step", "momentum"}}
    step = from_config("step", p["step"])
    if kind == "sg_recursion":
        seq = bounds_mod.sg_recursion_bound(
            num["E0"], step, num["m"], num["M"], num["sigma2"], num["N"])
    else:
        seq = bounds_mod.sgm_recursion_bound(
            num["E0"], step, from_config("momentum", p["momentum"]),
            num["m"], num["M"], num["sigma2"], num["L"], num["N"])
    print("j,bound")
    for j, v in enumerate(seq.values):
        print(f"{j},{_format_float(v)}")
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        text = Path(args.summary).read_text().strip().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read summary {args.summary}: {exc}") from exc
    header = text[0].split(",") if text else []
    if header[:3] != ["checkpoint", "mse_mean", "mse_sem"]:
        raise ConfigError(f"{args.summary}: unexpected header {header[:3]}")
    try:
        rows = [line.split(",") for line in text[1:]]
        cps = tuple(int(r[0]) for r in rows)
        mse = np.asarray([float(r[1]) for r in rows])
        sem = np.asarray([float(r[2]) for r in rows])
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{args.summary}: malformed row ({exc})") from None
    from .harness import RunSummary

    summary = RunSummary(checkpoints=cps, mse_mean=mse, mse_sem=sem,
                         estimator="unknown", replicates=0, master_seed=0,
                         config_hash="", wall_time=0.0)
    fit = fit_rate(summary, (args.window[0], args.window[1]))
    print(json.dumps({"exponent": fit.exponent,
                      "log_constant": fit.log_constant, "r2": fit.r2}))
    return EXIT_OK


def cmd_validate(args) -> int:
    resolved = resolve_config(_load_json(args.config), args, RUN_REQUIRED,
                              RUN_DEFAULTS)
    config = build_experiment(resolved)
    report = schedules.validate(config.step, config.momentum,
                                config.problem.constants().m, config.horizon)
    print(report)
    return EXIT_OK if report.ok else EXIT_VALIDATION


TEMPLATES = ("lemma1", "theorem1-i", "theorem1-ii", "theorem1-iii", "plateau",
             "theorem2", "corollary1")


def gen_config(template: str) -> dict:
    """A ready-to-run config reproducing the named acceptance experiment."""
    base_problem = {
        "problem": {"quadratic": {"hessian_diag": [1.0, 1.0],
                                  "theta_star": [0.0, 0.0]}},
        "domain": {"ball": {"center": [0.0, 0.0], "radius": 2.0}},
        "noise": {"gaussian": {"sigma2": 1.0}},
        "theta0": [1.0, 0.0],
        "replicates": 2000,
        "master_seed": 20240901,
    }
    if template == "lemma1":
        return {**base_problem, "variant": "sg",
                "step": {"polynomial": {"gamma": 1.0, "alpha": 1.0}},
                "momentum": {"zero": {}},
                "horizon": 100_000, "fit_window": [1000, 100_000]}
    if template == "theorem1-i":
        return {**base_problem, "variant": "sgm",
                "step": {"polynomial": {"gamma": 1.0, "alpha": 1.0}},
                "momentum": {"polynomial": {"c": 0.9, "beta": 1.0}},
                "horizon": 100_000, "fit_window": [1000, 100_000]}
    if template == "theorem1-ii":
        return {**base_problem, "variant": "sgm",
                "step": {"polynomial": {"gamma": 1.0, "alpha": 1.0}},
                "momentum": {"polynomial": {"c": 1.0, "beta": 1.0}},
                "horizon": 100_000,
                "envelope": {"case": "log_n_over_n"}}
    if template == "theorem1-iii":
        return {**base_problem, "variant": "sgm",
                "step": {"polynomial": {"gamma": 1.0, "alpha": 1.0}},
                "momentum": {"polynomial": {"c": 1.0, "beta": 0.5}},
                "horizon": 100_000, "fit_window": [1000, 100_000],
                "envelope": {"case": "inv_n_beta", "beta": 0.5}}
    if template == "plateau":
        return {**base_problem, "variant": "sg",
                "step": {"constant": {"a": 0.1}},
                "momentum": {"zero": {}},
                "estimator": "last", "horizon": 5000,
                "recursion_bound": {"kind": "sg"}}
    if template == "theorem2":
        return {**base_problem, "variant": "sgm",
                "step": {"constant": {"a": 0.1}},
                "momentum": {"polynomial": {"c": 0.9, "beta": 0.5}},
                "estimator": "suffix", "horizon": 5000}
    if template == "corollary1":
        return {
            "problem": base_problem["problem"],
            "domain": base_problem["domain"],
            "noise": base_problem["noise"],
            "theta0": base_problem["theta0"],
            "replicates": 2000,
            "master_seed": base_problem["master_seed"],
            "momentum": {"polynomial": {"c": 0.9, "beta": 0.5}},
            "stages": [{"a": 0.1, "n": 500}, {"a": 0.05, "n": 1000},
                       {"a": 0.025, "n": 2000}, {"a": 0.0125, "n": 4000}],
        }
    raise ConfigError(f"unknown template {template!r}; "
                      f"available: {', '.join(TEMPLATES)}")


def cmd_gen_config(args) -> int:
    cfg = gen_config(args.template)
    out = Path(args.out)
    _check_output(out, args.overwrite)
    _write_outputs([out], [json.dumps(cfg, indent=2, sort_keys=True) + "\n"])
    print(f"wrote {out}")
    return EXIT_OK


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _apply_overrides(resolved: dict, overrides):
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must be key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = resolved
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in target or not isinstance(target[part], dict):
                raise ConfigError(f"override path {key!r} not found")
            target = target[part]
        if parts[-1] not in target:
            raise ConfigError(f"override key {key!r} not in config")
        target[parts[-1]] = value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgmlab",
        description="Stochastic gradient / momentum convergence laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override master_seed")
        p.add_argument("--workers", type=int, default=None,
                       help="override worker count")
        p.add_argument("--force-schedule", action="store_true",
                       help="downgrade schedule validation errors to warnings")
        p.add_argument("--overwrite", action="store_true",
                       help="allow replacing existing output files")
        p.add_argument("-O", "--override", action="append", default=[],
                       metavar="KEY=VALUE", help="config override (dotted keys)")

    common(sub.add_parser("run", help="Monte Carlo experiment"))
    common(sub.add_parser("multistage", help="constant-and-drop experiment"))

    p_bounds = sub.add_parser("bounds", help="print a bound sequence as CSV")
    p_bounds.add_argument("--config", required=True)

    p_fit = sub.add_parser("fit", help="log-log rate fit of a summary.csv")
    p_fit.add_argument("--summary", required=True)
    p_fit.add_argument("--window", nargs=2, type=float, required=True,
                       metavar=("J_LO", "J_HI"))

    p_val = sub.add_parser("validate", help="check config and schedules only")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("-O", "--override", action="append", default=[],
                       metavar="KEY=VALUE")

    p_gen = sub.add_parser("gen-config", help="write a template config")
    p_gen.add_argument("template", help=f"one of: {', '.join(TEMPLATES)}")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--overwrite", action="store_true")
    return parser


COMMANDS = {
    "run": cmd_run,
    "multistage": cmd_multistage,
    "bounds": cmd_bounds,
    "fit": cmd_fit,
    "validate": cmd_validate,
    "gen-config": cmd_gen_config,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
