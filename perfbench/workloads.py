"""Seeded inputs and per-invocation output checks for the four workloads.

Each workload writes a complete `sgmlab run` config (explicit horizon and
checkpoint list, never `-O` overrides) into a directory, plus the CSV for
the ERM workload. The workload seed sets `master_seed` and the ERM data; R
and the horizon are fixed per workload. The program receives only these
files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Horizons keep one invocation within a few seconds on a 2-core Xeon, so a
# 30 s run holds 9 to 30 invocations and its medians do not hinge on a few
# slow ones. 4096 steps are two noise chunks of 2048: the harness draws the
# second while the first is still alive, which sets peak memory, and the
# cost of crossing a chunk boundary is measured.
LEMMA1_HORIZON = 4096
LEMMA1_REPLICATES = 2000
LEMMA1_FIT_WINDOW = [100, LEMMA1_HORIZON]
SGM_HORIZON = 12_500
SGM_REPLICATES = 2
ERM_HORIZON = 4096
ERM_REPLICATES = 200
ERM_ROWS = 20_000
ERM_DIM = 10
ERM_BATCH = 8
# theta* sits this far below the upper face of the box in every coordinate,
# so the projection clips a sizeable share of replicate-steps.
ERM_UPPER_MARGIN = 0.002
ERM_LOWER_MARGIN = 1.0
BALL_RADIUS = 2.0


@dataclass(frozen=True)
class Inputs:
    config: Path
    replicates: int
    horizon: int
    workers: int


def checkpoints(horizon: int) -> list:
    """The geometric grid {ceil(1.3^i)} plus the horizon, written explicitly."""
    pts, x = set(), 1.0
    while x <= horizon:
        pts.add(int(math.ceil(x)))
        x *= 1.3
    pts.add(horizon)
    return sorted(pts)


def _unit_ball_problem() -> dict:
    return {"domain": {"ball": {"center": [0.0, 0.0], "radius": BALL_RADIUS}},
            "noise": {"gaussian": {"sigma2": 1.0}},
            "theta0": [1.0, 0.0]}


def lemma1_config(seed: int, workers: int) -> dict:
    return {**_unit_ball_problem(),
            "problem": {"quadratic": {"hessian_diag": [1.0, 1.0],
                                      "theta_star": [0.0, 0.0]}},
            "variant": "sg",
            "step": {"polynomial": {"gamma": 1.0, "alpha": 1.0}},
            "momentum": {"zero": {}},
            "estimator": "last",
            "horizon": LEMMA1_HORIZON,
            "checkpoints": checkpoints(LEMMA1_HORIZON),
            "replicates": LEMMA1_REPLICATES,
            "master_seed": seed,
            "workers": workers,
            "fit_window": LEMMA1_FIT_WINDOW}


def sgm_config(seed: int) -> dict:
    return {**_unit_ball_problem(),
            "problem": {"quad_plus_l1": {"hessian_diag": [1.0, 1.0],
                                         "theta_star": [0.0, 0.0],
                                         "l1_weight": 0.5}},
            "variant": "sgm",
            "step": {"polynomial": {"gamma": 1.0, "alpha": 1.0}},
            "momentum": {"polynomial": {"c": 0.9, "beta": 1.0}},
            "estimator": "suffix",
            "suffix_start": 0,
            "horizon": SGM_HORIZON,
            "checkpoints": checkpoints(SGM_HORIZON),
            "replicates": SGM_REPLICATES,
            "master_seed": seed,
            "workers": 1,
            "recursion_bound": {"kind": "sgm"}}


def write_erm_csv(seed: int, path: Path) -> np.ndarray:
    """Write `features..., target` rows and return the least-squares theta*."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(1,)))
    X = rng.standard_normal((ERM_ROWS, ERM_DIM))
    theta_true = rng.uniform(-1.0, 1.0, ERM_DIM)
    y = X @ theta_true + 0.5 * rng.standard_normal(ERM_ROWS)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, target in zip(X.tolist(), y.tolist()):
            writer.writerow([repr(v) for v in row] + [repr(target)])
    return np.linalg.lstsq(X, y, rcond=None)[0]


def erm_config(seed: int, csv_path: Path, theta_star: np.ndarray) -> dict:
    return {"problem": {"erm_csv": {"path": str(csv_path)}},
            "domain": {"box": {"lower": (theta_star - ERM_LOWER_MARGIN).tolist(),
                               "upper": (theta_star + ERM_UPPER_MARGIN).tolist()}},
            "noise": {"minibatch": {"batch_size": ERM_BATCH}},
            "variant": "qhm",
            "qhm_v": 0.7,
            "step": {"polynomial": {"gamma": 0.5, "alpha": 0.6}},
            "momentum": {"constant": {"eta": 0.9}},
            "estimator": "weighted",
            "theta0": "random-interior",
            "horizon": ERM_HORIZON,
            "checkpoints": checkpoints(ERM_HORIZON),
            "replicates": ERM_REPLICATES,
            "master_seed": seed,
            "workers": 1}


def _write(config: dict, directory: Path) -> Inputs:
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return Inputs(config=path, replicates=config["replicates"],
                  horizon=config["horizon"], workers=config["workers"])


def make_inputs(workload: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's input files into `directory`."""
    if workload == "lemma1_wide":
        return _write(lemma1_config(seed, workers=1), directory)
    if workload == "lemma1_pool":
        return _write(lemma1_config(seed, workers=2), directory)
    if workload == "sgm_narrow":
        return _write(sgm_config(seed), directory)
    if workload == "erm_minibatch":
        csv_path = directory / "erm.csv"
        theta_star = write_erm_csv(seed, csv_path)
        return _write(erm_config(seed, csv_path.resolve(), theta_star), directory)
    raise ValueError(f"unknown workload {workload!r}")


def _read_summary(out_dir: Path):
    lines = (out_dir / "summary.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def check_outputs(workload: str, out_dir: Path, config: dict) -> list:
    """Problems with one invocation's outputs; an empty list means it passed.

    The conditions hold for every seed: they follow from the theory the
    workload exercises, with margins far outside Monte Carlo error at the
    fixed R.
    """
    header, rows = _read_summary(out_dir)
    cps = [int(r[0]) for r in rows]
    if cps != config["checkpoints"]:
        return [f"checkpoint rows {len(cps)} != configured "
                f"{len(config['checkpoints'])}"]
    mse = np.asarray([float(r[1]) for r in rows])
    sem = np.asarray([float(r[2]) for r in rows])
    if not (np.all(np.isfinite(mse)) and np.all(np.isfinite(sem))):
        return ["non-finite mse_mean or mse_sem"]
    problems = []
    if workload.startswith("lemma1"):
        fit = json.loads((out_dir / "summary.json").read_text())["fit"]
        if not (-1.15 <= fit["exponent"] <= -0.85 and fit["r2"] >= 0.98):
            problems.append(f"rate fit exponent {fit['exponent']:.4f} "
                            f"r2 {fit['r2']:.4f} outside criterion 1")
    elif workload == "sgm_narrow":
        L2 = (2.0 * BALL_RADIUS) ** 2
        if np.any(mse > L2):
            problems.append(f"mse_mean above L^2 = {L2}")
        if header[-1] != "verdict":
            problems.append("summary.csv has no verdict column")
        elif any(r[-1] == "violation" for r in rows):
            problems.append("recursion bound violated")
    elif workload == "erm_minibatch":
        if not mse[-1] < mse[0]:
            problems.append(f"final mse {mse[-1]:.3e} not below first "
                            f"{mse[0]:.3e}")
    return problems
