"""Byte-for-byte golden outputs: `summary.csv` of the six `run` templates,
`stages.csv` of `corollary1`, three configs that reach every problem,
noise, domain, step and momentum kind the config format parses, and a
10-dimensional ball whose projection is active (every other ball case is
2-dimensional).

The templates are shrunk (R = 8, a 2500-step horizon that crosses one noise
chunk boundary, short stages) so the whole module takes seconds. Each run's
`config_hash` from `summary.json` is pinned too.

A change to these bytes must be deliberate and named as such; regenerate
every case, or only the cases named, with

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""

import json
import sys
from pathlib import Path

import pytest

from sgmlab.cli import gen_config, main

GOLDEN = Path(__file__).resolve().parent / "golden"
ERM_CSV = GOLDEN / "erm_small.csv"
HORIZON = 2500
REPLICATES = 8


def _template(name, forced=False, **changes):
    cfg = gen_config(name)
    cfg.update(replicates=REPLICATES, **changes)
    return "run", cfg, forced


def _fit_template(name, forced=False):
    return _template(name, forced, horizon=HORIZON, fit_window=[10, HORIZON])


def _corollary1():
    cfg = gen_config("corollary1")
    cfg["replicates"] = REPLICATES
    cfg["stages"] = [{"a": s["a"], "n": n}
                     for s, n in zip(cfg["stages"], (100, 200, 400, 800))]
    return "multistage", cfg, False


def _erm(noise, **changes):
    cfg = {"problem": {"erm_csv": {"path": str(ERM_CSV)}},
           "domain": {"box": {"lower": [-1.0, -1.0, -1.0],
                              "upper": [0.5, 0.5, 0.8]}},
           "noise": noise,
           "theta0": "random-interior",
           "horizon": HORIZON,
           "replicates": REPLICATES,
           "master_seed": 11}
    cfg.update(changes)
    return "run", cfg, False


CASES = {
    "lemma1": _fit_template("lemma1"),
    "theorem1-i": _fit_template("theorem1-i"),
    "theorem1-ii": _template("theorem1-ii", forced=True, horizon=HORIZON),
    "theorem1-iii": _fit_template("theorem1-iii", forced=True),
    "plateau": _template("plateau", horizon=HORIZON),
    "theorem2": _template("theorem2", horizon=HORIZON),
    "corollary1": _corollary1(),
    "quad_plus_l1_box": ("run", {
        "problem": {"quad_plus_l1": {"hessian_diag": [1.0, 2.0],
                                     "theta_star": [0.1, -0.2],
                                     "l1_weight": 0.3}},
        "domain": {"box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}},
        "noise": {"bounded_rademacher": {"sigma2": 1.0}},
        "variant": "nsgm",
        "step": {"staged": {"stages": [{"a": 0.2, "n": 300},
                                       {"a": 0.1, "n": 600},
                                       {"a": 0.05, "n": 1600}]}},
        "momentum": {"proportional": {"k": 2.0}},
        "theta0": [0.5, 0.5],
        "horizon": HORIZON,
        "replicates": REPLICATES,
        "master_seed": 5,
        "recursion_bound": {"kind": "sgm"},
    }, False),
    "erm_minibatch": _erm({"minibatch": {"batch_size": 4}},
                          variant="qhm", qhm_v=0.7,
                          step={"polynomial": {"gamma": 1.0, "alpha": 0.6}},
                          momentum={"constant": {"eta": 0.9}},
                          estimator="weighted"),
    "erm_gaussian": _erm({"gaussian": {"sigma2": 0.5}},
                         variant="sgm",
                         step={"polynomial": {"gamma": 1.0, "alpha": 1.0}},
                         momentum={"polynomial": {"c": 0.5, "beta": 1.0}}),
    "quadratic_ball10": ("run", {
        "problem": {"quadratic": {
            "hessian_diag": [0.5, 0.8, 1.0, 1.3, 1.7, 2.0, 2.5, 3.0, 3.5, 4.0],
            "theta_star": [0.2, -0.1, 0.0, 0.15, -0.25, 0.1, 0.05, -0.05,
                           0.3, -0.2]}},
        "domain": {"ball": {"center": [0.0] * 10, "radius": 0.6}},
        "noise": {"gaussian": {"sigma2": 4.0}},
        "variant": "sgm",
        "step": {"polynomial": {"gamma": 1.0, "alpha": 0.75}},
        "momentum": {"constant": {"eta": 0.5}},
        "horizon": HORIZON,
        "replicates": REPLICATES,
        "master_seed": 10,
    }, False),
}


def _produce(name: str, work: Path) -> dict:
    """Run one case in `work` and return {golden file name: bytes}."""
    command, cfg, forced = CASES[name]
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps(cfg))
    out = work / "out"
    argv = [command, "--config", str(config), "--out", str(out),
            "--workers", "1"] + (["--force-schedule"] if forced else [])
    assert main(argv) == 0, f"{name}: sgmlab {command} failed"
    if command == "multistage":
        return {"stages.csv": (out / "stages.csv").read_bytes()}
    meta = json.loads((out / "summary.json").read_text())["metadata"]
    return {"summary.csv": (out / "summary.csv").read_bytes(),
            "config_hash": (meta["config_hash"] + "\n").encode()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path):
    produced = _produce(name, tmp_path)
    for fname, data in produced.items():
        expected = (GOLDEN / name / fname).read_bytes()
        assert data == expected, f"{name}/{fname} differs from the golden file"


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        for case in names:
            for fname, data in _produce(case, Path(tmp) / case).items():
                target = GOLDEN / case / fname
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
                print(f"wrote {target.relative_to(GOLDEN.parent.parent)}",
                      file=sys.stderr)
