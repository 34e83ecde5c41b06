"""Config-driven command line: run experiments, evaluate bounds, fit rates,
validate configs, and generate ready-to-run template configs.

The JSON config file is the primary interface (experiments have too many
parameters for flags); flags only override. Unknown config keys are errors.
Exit codes: 0 success, 2 validation/config failure or a run that could not
finish (out of memory, a dead worker process), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import geometry, optimizers, problems, schedules
from .harness import (ExperimentConfig, RunSummary, WorkerLostError,
                      calibration_half, dominance_check, fit_rate,
                      run_multistage, run_replicates, stage_configs,
                      window_mask)
from .optimizers import NumericFailureError
from .schedules import lookup, shorten

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


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
        raise ValueError(f"{where}: expected an object")
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {where}: "
                         f"{shorten(repr(sorted(unknown)))}")
    missing = required - set(cfg)
    if missing:
        raise ValueError(f"missing keys in {where}: {sorted(missing)}")


def _kind(spec, section: str, kinds: dict) -> tuple:
    """Split a single-key `{kind: params}` object into the kind, its entry
    in `kinds` and the params."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"{section}: expected a single-key object")
    (kind, params), = spec.items()
    return kind, lookup(kinds, kind, f"{section} kind"), params


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
VARIANTS = {"sg": optimizers.SG, "sgm": optimizers.SGM,
            "nsgm": optimizers.NormalizedSGM, "qhm": optimizers.QHM}


def _coerce(value, type_name: str, where: str, depth: int = 0):
    """A config value as its field's type. An int field takes an int or a
    whole-valued float such as 1e5, a float field an int or a float, a
    vector field a list of such numbers, nested at most 64 deep; any other
    value is refused rather than truncated or parsed into a run."""
    if type_name == "np.ndarray":   # the class checks the vector's shape
        if isinstance(value, list):
            if depth == 64:     # numpy's limit on an array's dimensions
                raise ValueError(f"{where.partition('[')[0]}: lists nested "
                                 "more than 64 deep")
            return [_coerce(v, type_name, f"{where}[{i}]", depth + 1)
                    for i, v in enumerate(value)]
        type_name = "float"
    if type_name == "int":
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ValueError(f"{where}: expected an integer, "
                         f"got {shorten(repr(value))}")
    if type_name != "float":
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):    # an int past floats
            return float(value)
    raise ValueError(f"{where}: expected a number, got {shorten(repr(value))}")


def _stages(stages, where: str) -> list:
    """[(a, n)] from a list of {a, n} objects; n may be 'auto'."""
    if not isinstance(stages, list):
        raise ValueError(f"{where}: expected a list of {{a, n}} objects")
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
    kind, cls, params = _kind(spec, section, CONFIG_KINDS[section])
    where = f"{section}.{kind}"
    if kind == "erm_csv":   # a CSV path, not the class's fields
        _fail_closed(params, {"path"}, {"path"}, where)
        try:
            return problems.load_erm_csv(str(params["path"]), **context)
        except OSError as exc:
            raise ValueError(f"{where}: cannot read {params['path']!r}: "
                             f"{exc.strerror}") from None
    types = {f.name: f.type for f in dataclasses.fields(cls)
             if f.init and f.name not in context}
    _fail_closed(params, set(types), set(types), where)
    kwargs = {k: _coerce(v, types[k], f"{where}.{k}") for k, v in params.items()}
    if kind == "staged":    # a list of {a, n} objects
        kwargs["stages"] = tuple(_stages(params["stages"], f"{where}.stages"))
    try:
        return cls(**kwargs, **context)
    except TypeError as exc:
        raise ValueError(f"{where}: {exc}") from None


def build_problem(cfg: dict) -> problems.Problem:
    domain = from_config("domain", cfg["domain"])
    noise = from_config("noise", cfg["noise"])
    return from_config("problem", cfg["problem"], domain=domain, noise=noise)


def _variant(resolved: dict):
    """The variant named by 'variant', QHM's v coming from 'qhm_v'."""
    cls = lookup(VARIANTS, resolved["variant"], "variant")
    v = resolved.get("qhm_v")
    v = None if v is None else _coerce(v, "float", "qhm_v")
    if cls is not optimizers.QHM:
        return cls()
    if v is None:
        raise ValueError("qhm_v: qhm variant requires the interpolation parameter v")
    try:
        return cls(v=v)
    except ValueError as exc:
        raise ValueError(f"qhm_v: {exc}") from None


def resolve_config(cfg: dict, args, required: set, defaults: dict) -> dict:
    """Fill defaults, then --seed/--workers, then -O overrides; the keys are
    the required ones, the defaulted ones and `workers`."""
    _fail_closed(cfg, required | set(defaults) | {"workers"}, required,
                 "config")
    resolved = {**defaults, "workers": 1, **cfg}
    if getattr(args, "seed", None) is not None:
        resolved["master_seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        resolved["workers"] = args.workers
    _apply_overrides(resolved, args.override)
    if isinstance(resolved["theta0"], list):    # checked; kept as written
        _coerce(resolved["theta0"], "np.ndarray", "theta0")
    return resolved


def _integers(resolved: dict, keys) -> dict:
    """The resolved config's integer fields `keys`, checked by _coerce."""
    return {k: _coerce(resolved[k], "int", k) for k in keys}


def build_experiment(resolved: dict, force_schedule: bool = False) -> ExperimentConfig:
    problem = build_problem(resolved)
    checkpoints = resolved["checkpoints"]
    if checkpoints is not None:
        if not isinstance(checkpoints, list):
            raise ValueError(f"checkpoints: expected a list of integers, "
                             f"got {shorten(repr(checkpoints))}")
        checkpoints = [_coerce(c, "int", f"checkpoints[{i}]")
                       for i, c in enumerate(checkpoints)]
    try:
        return ExperimentConfig(
            problem=problem,
            variant=_variant(resolved),
            step=from_config("step", resolved["step"]),
            momentum=from_config("momentum", resolved["momentum"]),
            estimator=resolved["estimator"],
            theta0=resolved["theta0"],
            checkpoints=checkpoints,
            force_schedule=force_schedule,
            **_integers(resolved, ("suffix_start", "horizon", "replicates",
                                   "master_seed", "workers")),
        )
    except TypeError as exc:
        raise ValueError(str(exc)) from exc


# The recursion bounds by kind: the name of the `bounds` function, looked up
# when a bound is built, so that the function called is the one `bounds`
# holds then, and the keys the kind takes beyond RECURSION_KEYS.
RECURSION_KEYS = ("E0", "step", "m", "M", "sigma2", "N")
RECURSIONS = {"sg": ("sg_recursion_bound", ()),
              "sgm": ("sgm_recursion_bound", ("momentum", "L"))}


def _recursion(entry: tuple, **values) -> bounds_mod.BoundSequence:
    """The recursion bound of a RECURSIONS entry, over the keys it takes
    from `values`."""
    name, extra = entry
    return getattr(bounds_mod, name)(
        **{k: values[k] for k in (*RECURSION_KEYS, *extra)})


def _build_bound(resolved: dict, config: ExperimentConfig):
    """Optional dominance target from 'envelope' or 'recursion_bound'."""
    e, r = resolved.get("envelope"), resolved.get("recursion_bound")
    if e is not None and r is not None:
        raise ValueError("envelope and recursion_bound: give at most one")
    if e is not None:
        _fail_closed(e, {"case", "constant", "beta"}, {"case"}, "envelope")
        numbers = {k: _coerce(e[k], "float", f"envelope.{k}")
                   for k in ("constant", "beta") if e.get(k) is not None}
        return bounds_mod.RateEnvelope(case=e["case"], **numbers)
    if r is None:
        return None
    _fail_closed(r, {"kind", "E0"}, {"kind"}, "recursion_bound")
    entry = lookup(RECURSIONS, r["kind"], "recursion_bound kind")
    consts = config.problem.constants()
    if r.get("E0") is not None:
        E0 = _coerce(r["E0"], "float", "recursion_bound.E0")
    elif not isinstance(config.theta0, str):
        delta = config.theta0 - config.problem.theta_star
        E0 = float(delta @ delta)
    else:
        raise ValueError("recursion_bound with random theta0 needs explicit E0")
    return _recursion(entry, E0=E0, step=config.step, N=config.horizon,
                      momentum=config.momentum, **vars(consts))


def _table(header: str, rows) -> str:
    """CSV text; integers and strings are written as they are, other numbers
    as repr(float(x))."""
    lines = [",".join(str(x) if isinstance(x, (int, str)) else repr(float(x))
                      for x in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"


def summary_csv(summary, report=None) -> str:
    rows = zip(summary.checkpoints, summary.mse_mean, summary.mse_sem)
    if report is None:
        return _table("checkpoint,mse_mean,mse_sem", rows)
    checked = set(report.checked)
    bad = {v[0] for v in report.violations}
    verdicts = ["calibration" if c not in checked
                else "violation" if c in bad else "ok"
                for c in summary.checkpoints]
    return _table("checkpoint,mse_mean,mse_sem,bound_value,verdict",
                  ((*row, bv, verdict) for row, bv, verdict
                   in zip(rows, report.bound_values, verdicts)))


@contextlib.contextmanager
def _outputs(out_dir: Path, overwrite: bool, *names):
    """One transaction over a command's files, the `names` in out_dir.
    out_dir is made at once, so a place it cannot be made stops the command
    before the engine runs, and a target that exists without --overwrite, or
    is a directory, is refused before the block runs. The block calls the
    yielded land(texts) with every file's text: each text is written to a
    temp file beside its target, and only once all are written is each
    renamed onto its target. On any exception in the block the temp files,
    and the directories made here as far as they are empty, are removed."""
    try:
        made = list(itertools.takewhile(lambda d: not d.exists(),
                                        (out_dir, *out_dir.parents)))
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out_dir}: "
                         f"{exc.strerror}") from None
    targets = [out_dir / name for name in names]
    temps = [t.with_name(f".{t.name}.tmp") for t in targets]

    def land(texts):
        try:
            for target, temp, text in zip(targets, temps, texts, strict=True):
                temp.write_text(text)
            for target, temp in zip(targets, temps):
                os.replace(temp, target)
        except OSError as exc:
            raise ValueError(f"cannot write {target}: {exc.strerror}") from None

    try:
        for t in targets:
            if t.is_dir():
                raise ValueError(f"{t} is a directory, not a file")
            if t.exists() and not overwrite:
                raise ValueError(f"{t} exists; pass --overwrite to replace it")
        yield land
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        for d in made:
            try:
                d.rmdir()
            except OSError:
                break
        raise


def _checked_run(resolved: dict, force_schedule: bool) -> tuple:
    """The run's config, bound and fit window, through every check `run`
    makes before --out exists."""
    config = build_experiment(resolved, force_schedule=force_schedule)
    bound = _build_bound(resolved, config)
    # The checkpoint counts the bound and the fit need.
    if isinstance(bound, bounds_mod.RateEnvelope) and bound.constant is None:
        calibration_half(config.checkpoints)
    window = resolved.get("fit_window")
    if window is not None:
        if not isinstance(window, list) or len(window) != 2:
            raise ValueError("fit_window: expected [lo, hi], "
                             f"got {shorten(repr(window))}")
        window = tuple(_coerce(x, "float", "fit_window") for x in window)
        window_mask(config.checkpoints, window)
    return config, bound, window


def _warn_forced(configs, prefixes):
    """The schedule warnings of the forced configs, one prefix each, on
    stderr."""
    for prefix, config in zip(prefixes, configs, strict=True):
        if not config.schedule_report.ok:
            print(f"{prefix}schedule warnings (forced):\n"
                  f"{config.schedule_report}", file=sys.stderr)


def cmd_run(args) -> int:
    resolved = resolve_config(_load_json(args.config), args, RUN_REQUIRED,
                              RUN_DEFAULTS)
    config, bound, window = _checked_run(resolved, args.force_schedule)
    with _outputs(Path(args.out), args.overwrite, "summary.csv",
                  "summary.json", "config.resolved.json") as land:
        summary = run_replicates(config)
        _warn_forced([config], [""])
        dom = dominance_check(summary, bound) if bound is not None else None
        fit = None if window is None else fit_rate(summary, window)

        payload = {
            "fit": None if fit is None else dataclasses.asdict(fit),
            "dominance": None if dom is None else {
                "passed": dom.passed,
                "violations": [list(v) for v in dom.violations],
                "first_violation": dom.first_violation,
                "calibrated_constant": dom.calibrated_constant,
                "checked": list(dom.checked),
            },
            "metadata": {
                "config_hash": summary.config_hash,
                "master_seed": config.master_seed,
                "replicates": config.replicates,
                "estimator": config.estimator,
                "wall_time_s": summary.wall_time,
            },
        }
        resolved["checkpoints"] = list(config.checkpoints)
        land([
            summary_csv(summary, dom),
            json.dumps(payload, indent=2) + "\n",
            json.dumps(resolved, indent=2, sort_keys=True) + "\n"])
    return EXIT_OK


def _checked_stages(resolved: dict, force_schedule: bool) -> tuple:
    """The stage configs, through every check `multistage` makes before
    --out exists."""
    return stage_configs(
        build_problem(resolved), _stages(resolved["stages"], "stages"),
        from_config("momentum", resolved["momentum"]),
        variant=_variant(resolved),
        theta0=resolved["theta0"], force_schedule=force_schedule,
        **_integers(resolved, ("replicates", "master_seed", "workers")))


def cmd_multistage(args) -> int:
    resolved = resolve_config(_load_json(args.config), args,
                              MULTISTAGE_REQUIRED, MULTISTAGE_DEFAULTS)
    configs = _checked_stages(resolved, args.force_schedule)
    with _outputs(Path(args.out), args.overwrite, "stages.csv",
                  "config.resolved.json") as land:
        reports = run_multistage(configs)
        _warn_forced(configs, [f"stage {k} " for k in range(len(configs))])
        land([
            _table("stage,step,length,burn_in,suffix_mse_mean,"
                   "suffix_mse_sem,plateau",
                   ((k, *dataclasses.astuple(r))
                    for k, r in enumerate(reports))),
            json.dumps(resolved, indent=2, sort_keys=True) + "\n"])
    return EXIT_OK


def cmd_bounds(args) -> int:
    cfg = _load_json(args.config)
    _fail_closed(cfg, {"bound"}, {"bound"}, "config")
    name, entry, p = _kind(cfg["bound"], "bound",
                           {f"{kind}_recursion": entry
                            for kind, entry in RECURSIONS.items()})
    keys = (*RECURSION_KEYS, *entry[1])
    _fail_closed(p, set(keys), set(keys), f"bound.{name}")
    values = {k: _coerce(p[k], "int" if k == "N" else "float",
                         f"bound.{name}.{k}")
              for k in keys if k not in CONFIG_KINDS}
    values.update((k, from_config(k, p[k])) for k in keys if k in CONFIG_KINDS)
    seq = _recursion(entry, **values)
    sys.stdout.write(_table("j,bound", enumerate(seq.values)))
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        text = Path(args.summary).read_text().strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read summary {args.summary}: {exc}") from exc
    header = text[0].split(",") if text else []
    if header[:3] != ["checkpoint", "mse_mean", "mse_sem"]:
        raise ValueError(f"{args.summary}: unexpected header "
                         f"{shorten(repr(header[:3]))}")
    columns = ([], [], [])
    for i, line in enumerate(text[1:], 2):
        cells = line.split(",")
        for name, cast, column, cell in zip(header, (int, float, float),
                                            columns, cells + [""] * 3):
            try:
                column.append(cast(cell))
            except ValueError:
                raise ValueError(f"{args.summary}: malformed row {i}, column "
                                 f"{name}: {shorten(repr(cell))}") from None
    cps, mse, sem = columns
    fit = fit_rate(RunSummary(tuple(cps), np.asarray(mse), np.asarray(sem)),
                   tuple(args.window))
    print(json.dumps(dataclasses.asdict(fit)))
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _load_json(args.config)
    if isinstance(cfg, dict) and "stages" in cfg:
        resolved = resolve_config(cfg, args, MULTISTAGE_REQUIRED,
                                  MULTISTAGE_DEFAULTS)
        configs = _checked_stages(resolved, force_schedule=True)
        prefixes = [f"stage {k}: " for k in range(len(configs))]
    else:
        resolved = resolve_config(cfg, args, RUN_REQUIRED, RUN_DEFAULTS)
        configs = [_checked_run(resolved, force_schedule=True)[0]]
        prefixes = [""]
    for prefix, config in zip(prefixes, configs):
        print(f"{prefix}{config.schedule_report}")
    ok = all(config.schedule_report.ok for config in configs)
    return EXIT_OK if ok else EXIT_VALIDATION


_BASE = {
    "problem": {"quadratic": {"hessian_diag": [1.0, 1.0],
                              "theta_star": [0.0, 0.0]}},
    "domain": {"ball": {"center": [0.0, 0.0], "radius": 2.0}},
    "noise": {"gaussian": {"sigma2": 1.0}},
    "theta0": [1.0, 0.0],
    "replicates": 2000,
    "master_seed": 20240901,
}
_HARMONIC = {**_BASE, "step": {"polynomial": {"gamma": 1.0, "alpha": 1.0}},
             "horizon": 100_000}
_FIT = {"fit_window": [1000, 100_000]}
_CONSTANT = {**_BASE, "step": {"constant": {"a": 0.1}}, "horizon": 5000}
_HALF_POWER_MOMENTUM = {"momentum": {"polynomial": {"c": 0.9, "beta": 0.5}}}

# Ready-to-run configs reproducing the acceptance experiments, by name.
TEMPLATES = {
    "lemma1": {**_HARMONIC, **_FIT, "variant": "sg", "momentum": {"zero": {}}},
    "theorem1-i": {**_HARMONIC, **_FIT, "variant": "sgm",
                   "momentum": {"polynomial": {"c": 0.9, "beta": 1.0}}},
    "theorem1-ii": {**_HARMONIC, "variant": "sgm",
                    "momentum": {"polynomial": {"c": 1.0, "beta": 1.0}},
                    "envelope": {"case": "log_n_over_n"}},
    "theorem1-iii": {**_HARMONIC, **_FIT, "variant": "sgm",
                     "momentum": {"polynomial": {"c": 1.0, "beta": 0.5}},
                     "envelope": {"case": "inv_n_beta", "beta": 0.5}},
    "plateau": {**_CONSTANT, "variant": "sg", "momentum": {"zero": {}},
                "estimator": "last", "recursion_bound": {"kind": "sg"}},
    "theorem2": {**_CONSTANT, **_HALF_POWER_MOMENTUM, "variant": "sgm",
                 "estimator": "suffix"},
    "corollary1": {**_BASE, **_HALF_POWER_MOMENTUM,
                   "stages": [{"a": 0.1, "n": 500}, {"a": 0.05, "n": 1000},
                              {"a": 0.025, "n": 2000},
                              {"a": 0.0125, "n": 4000}]},
}


def gen_config(template: str) -> dict:
    """A fresh copy of the named template config."""
    return copy.deepcopy(lookup(TEMPLATES, template, "template"))


def cmd_gen_config(args) -> int:
    cfg = gen_config(args.template)
    out = Path(args.out)
    with _outputs(out.parent, args.overwrite, out.name) as land:
        land([json.dumps(cfg, indent=2, sort_keys=True) + "\n"])
    print(f"wrote {out}")
    return EXIT_OK


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    # A ValueError: text that is not JSON, or a file that is not UTF-8.
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc


def _apply_overrides(resolved: dict, overrides):
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override {shorten(repr(item))} must be "
                             "key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        # Past the parser's recursion limit, or an int of too many digits.
        except (RecursionError, ValueError) as exc:
            raise ValueError(f"override {shorten(repr(key))}: {exc}") from None
        target = resolved
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in target or not isinstance(target[part], dict):
                raise ValueError(f"override path {shorten(repr(key))} "
                                 "not found")
            target = target[part]
        if parts[-1] not in target:
            raise ValueError(f"override key {shorten(repr(key))} "
                             "not in config")
        target[parts[-1]] = value


class _Parser(argparse.ArgumentParser):
    """argparse that raises its refusals, for main to print as its one
    error line, in place of printing usage and exiting. The command, the
    one argument with choices, is looked up as every other name is."""

    def error(self, message):
        raise ValueError(message)

    def _check_value(self, action, value):
        if action.choices is not None:
            lookup(action.choices, value, "command")


def _typed(cast):
    """An argparse type: cast(text), a refused text echoed by shorten."""
    def parse(text: str):
        with contextlib.suppress(ValueError):
            return cast(text)
        raise argparse.ArgumentTypeError(
            f"invalid {cast.__name__} value: {shorten(repr(text))}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgmlab",
        description="Stochastic gradient / momentum convergence laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=_typed(int), default=None,
                       help="override master_seed")
        p.add_argument("--workers", type=_typed(int), default=None,
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
    p_fit.add_argument("--window", nargs=2, type=_typed(float), required=True,
                       metavar=("J_LO", "J_HI"))

    p_val = sub.add_parser("validate",
                           help="every check run, or multistage for a "
                                "config with stages, makes before --out")
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
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise ValueError("unrecognized arguments: "
                             f"{shorten(' '.join(extra))}")
        return COMMANDS[args.command](args)
    except (ValueError, MemoryError, WorkerLostError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
