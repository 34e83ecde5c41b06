import bz2
import csv
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sgmlab import problems as prob_mod
from sgmlab.geometry import Ball, Box
from sgmlab.problems import (BoundedRademacher, DegenerateProblemError,
                             ErmLeastSquares, Gaussian, Minibatch, QuadPlusL1,
                             Quadratic, _sup_per_sample,
                             load_erm_csv, minibatch_indices, noise_sample)

BALL2 = Ball(center=[0.0, 0.0], radius=2.0)
BALL1D = Ball(center=[0.0], radius=5.0)
NO_NOISE = Gaussian(sigma2=0.0)


def quad2(diag=(1.0, 1.0), star=(0.0, 0.0), noise=NO_NOISE, domain=BALL2):
    return Quadratic(hessian_diag=diag, theta_star=star, domain=domain,
                     noise=noise)


class TestValueExamples:
    def test_quadratic(self):
        p = Quadratic(hessian_diag=[1.0, 1.0], theta_star=[0.0, 0.0],
                      domain=BALL2, noise=NO_NOISE)
        assert p.value([1.0, 0.0]) == 0.5

    def test_quad_plus_l1(self):
        p = QuadPlusL1(hessian_diag=[1.0], theta_star=[0.0], l1_weight=2.0,
                       domain=BALL1D, noise=NO_NOISE)
        assert p.value([3.0]) == 10.5

    def test_erm_identity(self):
        # two stacked identity blocks: f(theta) = ||theta||^2 / 4
        p = ErmLeastSquares(design=np.vstack([np.eye(2), np.eye(2)]),
                            targets=[0.0, 0.0, 0.0, 0.0],
                            domain=BALL2, noise=NO_NOISE)
        assert p.value([1.0, 1.0]) == 0.5

    def test_out_of_domain_rejected(self):
        p = quad2()
        with pytest.raises(ValueError, match="outside"):
            p.value([3.0, 0.0])


class TestSubgradientExamples:
    def test_quadratic(self):
        p = quad2(diag=(2.0, 3.0))
        np.testing.assert_array_equal(p.subgradient([1.0, 1.0]), [2.0, 3.0])

    def test_l1_kink_tie_break(self):
        p = QuadPlusL1(hessian_diag=[1.0], theta_star=[0.0], l1_weight=2.0,
                       domain=BALL1D, noise=NO_NOISE)
        np.testing.assert_array_equal(p.subgradient([0.0]), [0.0])

    def test_l1_sign_rule(self):
        p = QuadPlusL1(hessian_diag=[1.0], theta_star=[0.0], l1_weight=2.0,
                       domain=BALL1D, noise=NO_NOISE)
        np.testing.assert_array_equal(p.subgradient([-1.0]), [-3.0])


def _diagonal_problems():
    return [quad2(diag=(2.0, 3.0), star=(0.5, -0.25)),
            QuadPlusL1(hessian_diag=[2.0, 3.0], theta_star=[0.5, -0.25],
                       l1_weight=0.7, domain=BALL2, noise=NO_NOISE)]


class TestDiagonalOperands:
    """The diagonal problems' batched subgradient runs on hessian_diag and
    theta_star repeated to the iterate shape, cached for the last shape."""

    @pytest.mark.parametrize("problem", _diagonal_problems())
    def test_shape_changes_match_broadcast_formula(self, problem):
        rng = np.random.default_rng(3)
        h, star = problem.hessian_diag, problem.theta_star
        for shape in ((5, 2), (5, 2), (2,), (0, 2), (3, 4, 2), (5, 2)):
            theta = rng.normal(size=shape)
            theta[..., 0][theta[..., 0] > 1.0] = 0.5    # a kink coordinate
            want = h * (theta - star)
            if isinstance(problem, QuadPlusL1):
                want = want + problem.l1_weight * np.sign(theta - star)
            got = prob_mod.subgradient_batch(problem, theta)
            assert got.shape == shape
            assert np.array_equal(got, want)
            assert problem._operands[0].shape == shape

    @pytest.mark.parametrize("problem", _diagonal_problems())
    def test_dimension_checked_when_the_shape_changes(self, problem):
        prob_mod.subgradient_batch(problem, np.zeros((3, 2)))
        for theta in (np.zeros((2, 3)), np.zeros(6), np.zeros((3, 2, 1))):
            with pytest.raises(ValueError, match=(
                    rf"^point dimension {theta.shape[-1]} does not match "
                    r"domain dimension 2$")):
                prob_mod.subgradient_batch(problem, theta)


class TestConstantsExamples:
    def test_quadratic_closed_forms(self):
        p = Quadratic(hessian_diag=[1.0, 4.0], theta_star=[0.0, 0.0],
                      domain=Ball(center=[0.0, 0.0], radius=1.0),
                      noise=NO_NOISE)
        c = p.constants()
        assert c.m == 1.0
        assert c.sqrt_M == 4.0
        assert c.L == 2.0

    def test_erm_identity_design(self):
        # gram matrix I/2, so the strong convexity constant is 1/2
        p = ErmLeastSquares(design=np.vstack([np.eye(2), np.eye(2)]),
                            targets=[0.0, 0.0, 0.0, 0.0],
                            domain=BALL2, noise=NO_NOISE)
        assert p.constants().m == pytest.approx(0.5, rel=1e-12)

    def test_erm_constants_computed_once(self, monkeypatch):
        calls = []
        support = Ball.support
        monkeypatch.setattr(Ball, "support",
                            lambda self, d: calls.append(1) or support(self, d))
        p = ErmLeastSquares(design=np.vstack([np.eye(2), np.eye(2)]),
                            targets=[0.0, 0.0, 0.0, 0.0],
                            domain=BALL2, noise=Minibatch(batch_size=2))
        built = len(calls)
        assert built == 2   # one support evaluation per sign: one block
        assert p.constants() is p.constants()
        assert len(calls) == built

    def test_erm_constants_overflow_rejected(self):
        # sqrt_M is about 1e160, so M and the mini-batch sigma2 pass the
        # float range
        with pytest.raises(ValueError, match="not finite"):
            ErmLeastSquares(design=1e80 * np.vstack([np.eye(2), np.eye(2)]),
                            targets=[0.0, 0.0, 0.0, 0.0],
                            domain=BALL2, noise=Minibatch(batch_size=2))

    @pytest.mark.parametrize("design, targets, message", [
        ([[1.0, 0.0], [0.0, 1.0], [1e200, 1e200]], [0.0, 0.0, 0.0],
         r"X\^T X is not finite"),
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1e308, 1e308, 1e308],
         r"X\^T y is not finite"),
    ])
    def test_overflowing_normal_equations_rejected(self, design, targets,
                                                   message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                ErmLeastSquares(design=design, targets=targets, domain=BALL2,
                                noise=Minibatch(batch_size=2))

    def test_rank_deficient_rejected(self):
        with pytest.raises(DegenerateProblemError):
            ErmLeastSquares(design=[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]],
                            targets=[0.0, 0.0, 0.0], domain=BALL2,
                            noise=NO_NOISE)


class TestNoisyGradient:
    def test_zero_noise_equals_subgradient(self):
        p = quad2()
        rng = np.random.default_rng(0)
        theta = [0.3, -0.7]
        np.testing.assert_array_equal(
            p.subgradient(theta) + noise_sample(p, rng, 1)[0],
            p.subgradient(theta))

    def test_gaussian_mean_monte_carlo(self):
        # MC mean of g at theta=1 vs the 4 sigma / sqrt(n) confidence band
        p = Quadratic(hessian_diag=[1.0], theta_star=[0.0], domain=BALL1D,
                      noise=Gaussian(sigma2=1.0))
        rng = np.random.default_rng(123)
        n = 1_000_000
        draws = p.subgradient([1.0]) + p.noise.sample(rng, n, 1)
        assert abs(draws.mean() - 1.0) < 4e-3

    def test_rademacher_support(self):
        p = Quadratic(hessian_diag=[1.0], theta_star=[0.0], domain=BALL1D,
                      noise=BoundedRademacher(sigma2=4.0))
        rng = np.random.default_rng(5)
        s = float(p.subgradient([1.0])[0])
        for _ in range(200):
            g = s + float(noise_sample(p, rng, 1)[0, 0])
            assert g in (s - 2.0, s + 2.0)


class TestConstruction:
    def test_theta_star_must_be_interior(self):
        with pytest.raises(ValueError, match="interior|inside"):
            Quadratic(hessian_diag=[1.0, 1.0], theta_star=[2.0, 0.0],
                      domain=BALL2, noise=NO_NOISE)

    def test_interior_margin_enforced(self):
        with pytest.raises(ValueError):
            Quadratic(hessian_diag=[1.0], theta_star=[5.0 - 1e-12],
                      domain=BALL1D, noise=NO_NOISE)

    def test_nonpositive_hessian_rejected(self):
        with pytest.raises(DegenerateProblemError):
            quad2(diag=(1.0, 0.0))

    @pytest.mark.parametrize("cls, extra", [(Quadratic, {}),
                                            (QuadPlusL1, {"l1_weight": 0.1})])
    def test_minibatch_noise_needs_erm(self, cls, extra):
        with pytest.raises(ValueError, match="needs an erm_csv problem"):
            cls(hessian_diag=[1.0, 1.0], theta_star=[0.0, 0.0], domain=BALL2,
                noise=Minibatch(batch_size=2), **extra)


class TestLoadErmCsv:
    def test_exact_fit_1d(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n2,4\n")
        p = load_erm_csv(f, BALL1D, NO_NOISE)
        np.testing.assert_allclose(p.theta_star, [2.0], atol=1e-12)

    def test_non_numeric_cell_position(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\nx,4\n")
        with pytest.raises(ValueError, match="row 2, column 1"):
            load_erm_csv(f, BALL1D, NO_NOISE)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_position(self, tmp_path, cell):
        f = tmp_path / "d.csv"
        f.write_text(f"1,2\n\n3,4\n2,{cell}\n")
        with pytest.raises(ValueError,
                           match="non-finite cell at row 4, column 2"):
            load_erm_csv(f, BALL1D, NO_NOISE)

    def test_theta_star_outside_domain(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,0,10\n0,1,10\n1,1,20\n")
        with pytest.raises(ValueError, match="outside"):
            load_erm_csv(f, Ball(center=[0.0, 0.0], radius=1.0), NO_NOISE)

    def test_compressed_file_is_read_as_is(self, tmp_path):
        # np.loadtxt given this path would decompress it and load the table.
        f = tmp_path / "d.csv.bz2"
        f.write_bytes(bz2.compress(b"1,2\n2,4\n3,7\n"))
        with pytest.raises(ValueError, match="cannot decode row 1 as UTF-8"):
            load_erm_csv(f, BALL1D, NO_NOISE)


def _scan_rows(path) -> np.ndarray:
    """The CSV parse as first written, one cell at a time through
    csv.reader and float: the reference every loader must match."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            parsed = []
            for j, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    value = None
                if value is None or not math.isfinite(value):
                    kind = "non-numeric" if value is None else "non-finite"
                    raise ValueError(
                        f"{path}: {kind} cell at row {i + 1}, column {j + 1}: "
                        f"{cell!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent column counts {sorted(widths)}")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need at least one feature column plus a target")
    return data


def _wide_ball(d):
    return Ball(center=np.zeros(d), radius=1e6)


def _load_outcome(path):
    """(design bytes, target bytes, shapes and strides) of load_erm_csv, or
    its error line; no warning may be raised on the way."""
    try:
        d = _scan_rows(path).shape[1] - 1
    except ValueError:
        d = 1       # the parse fails first; the domain is never used
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            p = load_erm_csv(path, _wide_ball(d), NO_NOISE)
        except ValueError as exc:
            return str(exc)
    return (p.design.tobytes(), p.targets.tobytes(), p.design.shape,
            p.design.strides, p.targets.strides)


def _reference_outcome(path):
    try:
        data = _scan_rows(path)
        p = ErmLeastSquares(design=data[:, :-1], targets=data[:, -1],
                            domain=_wide_ball(data.shape[1] - 1),
                            noise=NO_NOISE)
    except ValueError as exc:
        return str(exc)
    # A loaded problem's design and targets keep the strides of views into
    # the (N, d+1) table.
    width = data.shape[1] * data.itemsize
    return (p.design.tobytes(), p.targets.tobytes(), p.design.shape,
            (width, data.itemsize), (width,))


PARITY_CASES = {
    "quoted_cells": '"1.5",2\n3,"4"\n5,"7.25"\n',
    "blank_lines": "\n1,2\n\n3,5\n\n\n4,1\n\n",
    "underscore": "1_000,2\n3,4_0\n5,6\n",
    "spaces": " 1 , 2 \n3 ,\t4\n\xa05,6\x0c\n",
    "nan": "1,2\nnan,4\n5,6\n",
    "NaN_signed": "1,2\n3,-NaN\n5,6\n",
    "inf": "1,2\n3,inf\n5,6\n",
    "minus_inf": "1,2\n-inf,4\n5,6\n",
    "Infinity": "1,2\n3,4\n+Infinity,6\n",
    "infinity_lower": "1,2\n3,4\n5,infinity\n",
    "overflow": "1,2\n3,1e999\n5,6\n",
    "ragged": "1,2\n3,4,5\n6,7\n",
    "hash_in_cell": "1,2\n3#c,4\n5,6\n",
    "hash_line": "# x,y\n1,2\n3,4\n",
    "bom": "﻿1,2\n3,4\n5,6\n",
    "header": "x,y\n1,2\n3,4\n",
    "single_row": "1,2,3\n",
    "single_column": "1\n2\n3\n",
    "empty": "",
    "only_blank_lines": "\n\n\r\n",
    "whitespace_line": "1,2\n   \n3,4\n",
    "trailing_whitespace_line": "1,2\n3,4\n\t",
    "separator_control_chars": "\x1c1,2\n3,4\n5,6\x1f\n",
    "trailing_comma": "1,2,\n3,4,\n5,6,\n",
    "empty_cell": "1,,2\n3,4,5\n",
    "cr_endings": "1,2\r3,5\r4,1\r",
    "crlf_endings": "1,2\r\n3,5\r\n4,1",
    "unicode_digits": "١,2\n3,4\n５,6\n",
    "subnormal_and_rounding": ("4.9e-324,1\n2.5e-324,0.1\n"
                               "1.7976931348623157e308,0.30000000000000004\n"
                               "0.1000000000000000055511151231257827,3\n"),
}


class TestLoadErmCsvParity:
    """load_erm_csv gives the reference scan's design and target bytes, or
    its error line, for every input."""

    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_case(self, tmp_path, case):
        f = tmp_path / "d.csv"
        f.write_bytes(PARITY_CASES[case].encode("utf-8"))
        assert _load_outcome(f) == _reference_outcome(f)

    def test_generated_table(self, tmp_path):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((400, 7)) * 10.0 ** rng.integers(
            -30, 30, (400, 7))
        f = tmp_path / "d.csv"
        f.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                             for row in table))
        assert _load_outcome(f) == _reference_outcome(f)
        assert _load_outcome(f)[0] == table[:, :-1].tobytes()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_text(self, tmp_path_factory, data):
        pad = st.sampled_from(["", "", " ", "\t", "\xa0", "\x0b", "\x1c",
                               "\x1f", "\x85", "\u2028", "　"])
        number = st.one_of(
            st.floats(width=64).map(repr),
            st.integers(-10 ** 6, 10 ** 6).map(str),
            st.sampled_from(["1_0", "+.5", "5.", "1E+05", "0x10", "١", "",
                             '"2"', "#", "1e", "nan", "-Infinity", "e5"]))
        cell = st.tuples(pad, number, pad).map("".join)
        n_cols = data.draw(st.integers(1, 3))
        lines = data.draw(st.lists(
            st.lists(cell, min_size=n_cols, max_size=n_cols).map(",".join)
            | st.sampled_from(["", " ", "a,b"]), max_size=6))
        end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        f = tmp_path_factory.mktemp("csv") / "d.csv"
        f.write_bytes(end.join(lines).encode("utf-8"))
        assert _load_outcome(f) == _reference_outcome(f)


def test_erm_pickles_one_table(tmp_path):
    # A worker process receives the problem pickled: it gets one table, and
    # design and targets as views of it, as in the parent process.
    f = tmp_path / "d.csv"
    X, y, star = _fitted_rows(7, 200, 3)
    f.write_text("".join(",".join(map(repr, r)) + "\n"
                         for r in np.column_stack([X, y]).tolist()))
    p = load_erm_csv(f, Ball(center=star, radius=3.0), Minibatch(batch_size=2))
    blob = pickle.dumps(p)
    q = pickle.loads(blob)
    assert len(blob) < 1.5 * p._rows.nbytes
    for name in ("design", "targets"):
        a, b = getattr(p, name), getattr(q, name)
        assert np.shares_memory(b, q._rows)
        assert (a.tobytes(), a.strides) == (b.tobytes(), b.strides)
    assert q.constants().sigma2 == p.constants().sigma2


def _fancy_index_gradient(design, targets, theta, indices):
    """The mini-batch gradient as first written: fancy-index the design and
    targets, then two einsums."""
    X_b = design[indices]
    y_b = targets[indices]
    resid = np.einsum("...bd,...d->...b", X_b, theta) - y_b
    return np.einsum("...b,...bd->...d", resid, X_b) / resid.shape[-1]


class TestPerSampleGradient:
    """per_sample_gradient is the fancy-index formula, bit for bit, for a
    design given C-contiguous, Fortran-ordered or as a view into a
    CSV-shaped table."""

    @staticmethod
    def _problem(n, d, b, layout):
        X, y, star = _fitted_rows(n + d, n, d)
        if layout == "csv":
            table = np.ascontiguousarray(np.column_stack([X, y]))
            X, y = table[:, :-1], table[:, -1]
        elif layout == "fortran":
            X = np.asfortranarray(X)
        p = ErmLeastSquares(design=X, targets=y,
                            domain=Ball(center=star, radius=3.0),
                            noise=Minibatch(batch_size=b))
        assert p._rows.flags.c_contiguous
        return p

    @pytest.mark.parametrize("layout", ["c", "fortran", "csv"])
    @pytest.mark.parametrize("n,d,r,b", [(50, 1, 7, 1), (64, 3, 16, 2),
                                         (120, 7, 64, 4), (200, 8, 33, 3),
                                         (200, 10, 200, 8)])
    def test_batched(self, n, d, r, b, layout):
        p = self._problem(n, d, b, layout)
        rng = np.random.default_rng(n * d + r)
        theta = p.theta_star + rng.uniform(-1.0, 1.0, (r, d))
        indices = minibatch_indices(p, rng, r)
        expected = _fancy_index_gradient(p.design, p.targets, theta, indices)
        assert p.per_sample_gradient(theta, indices).tobytes() == \
            expected.tobytes()

    @pytest.mark.parametrize("layout", ["c", "fortran", "csv"])
    def test_unbatched(self, layout):
        p = self._problem(60, 4, 5, layout)
        rng = np.random.default_rng(9)
        theta = p.theta_star + rng.uniform(-1.0, 1.0, 4)
        indices = rng.integers(0, 60, 5)
        got = p.per_sample_gradient(theta, indices)
        assert got.shape == (4,)
        assert got.tobytes() == _fancy_index_gradient(
            p.design, p.targets, theta, indices).tobytes()


class TestMinibatch:
    def test_minibatch_gradient_is_unbiased(self):
        rng_data = np.random.default_rng(2)
        X = rng_data.normal(size=(40, 2))
        y = rng_data.normal(size=40)
        p = ErmLeastSquares(design=X, targets=y,
                            domain=Ball(center=np.linalg.lstsq(X, y, rcond=None)[0],
                                        radius=3.0),
                            noise=Minibatch(batch_size=4))
        theta = p.theta_star + np.array([0.5, -0.25])
        rng = np.random.default_rng(77)
        draws = p.per_sample_gradient(theta, minibatch_indices(p, rng, 40_000))
        np.testing.assert_allclose(draws.mean(axis=0), p.subgradient(theta),
                                   atol=0.02)

    def test_minibatch_sigma2_covers_variance(self):
        rng_data = np.random.default_rng(3)
        X = rng_data.normal(size=(30, 2))
        y = rng_data.normal(size=30)
        p = ErmLeastSquares(design=X, targets=y,
                            domain=Ball(center=np.linalg.lstsq(X, y, rcond=None)[0],
                                        radius=2.0),
                            noise=Minibatch(batch_size=2))
        c = p.constants()
        theta = p.theta_star
        rng = np.random.default_rng(8)
        draws = p.per_sample_gradient(theta, minibatch_indices(p, rng, 20_000))
        emp_var = float(np.mean(np.sum((draws - p.subgradient(theta)) ** 2,
                                       axis=1)))
        assert emp_var <= c.sigma2


def _erm_minibatch():
    rng_data = np.random.default_rng(4)
    X = rng_data.normal(size=(25, 3))
    y = rng_data.normal(size=25)
    return ErmLeastSquares(
        design=X, targets=y,
        domain=Ball(center=np.linalg.lstsq(X, y, rcond=None)[0], radius=2.0),
        noise=Minibatch(batch_size=4))


def _draw_cases():
    star = (0.0, 0.0, 0.0)
    ball = Ball(center=star, radius=2.0)
    return [
        (Quadratic(hessian_diag=(1.0, 2.0, 3.0), theta_star=star, domain=ball,
                   noise=Gaussian(sigma2=2.5)), noise_sample),
        (Quadratic(hessian_diag=(1.0, 2.0, 3.0), theta_star=star, domain=ball,
                   noise=BoundedRademacher(sigma2=2.5)), noise_sample),
        (_erm_minibatch(), minibatch_indices),
    ]


class TestDrawIntoOut:
    """A draw into a given `out` is the allocating draw, bit for bit."""

    @pytest.mark.parametrize("problem, draw", _draw_cases(),
                             ids=["gaussian", "bounded_rademacher",
                                  "minibatch"])
    def test_out_is_filled_returned_and_the_stream_runs_on(self, problem,
                                                           draw):
        alloc_rng, out_rng = (np.random.default_rng(9) for _ in range(2))
        expected = draw(problem, alloc_rng, 13)
        # A row of a wider buffer, as the engine's tile passes it.
        buffer = np.full((2, *expected.shape), -7, expected.dtype)
        out = buffer[1]
        assert draw(problem, out_rng, 13, out=out) is out
        assert out.tobytes() == expected.tobytes()
        assert np.all(buffer[0] == -7)
        assert (draw(problem, out_rng, 5).tobytes()
                == draw(problem, alloc_rng, 5).tobytes())

    @pytest.mark.parametrize("sigma2", [0.0, 2.5, 1e300])
    def test_additive_draws_keep_their_formulas(self, sigma2):
        # The bits of the formulas the golden outputs were made with,
        # signed zeros included.
        scale = np.sqrt(sigma2 / 3)
        rng = np.random.default_rng(11)
        gauss = scale * rng.standard_normal((40, 3))
        signs = scale * np.where(rng.random((40, 3)) < 0.5, -1.0, 1.0)
        rng = np.random.default_rng(11)
        assert Gaussian(sigma2).sample(rng, 40, 3).tobytes() == gauss.tobytes()
        assert (BoundedRademacher(sigma2).sample(rng, 40, 3).tobytes()
                == signs.tobytes())


def _row_support(domain, x) -> float:
    """sup_{theta in D} x^T theta for one row, as first written."""
    if isinstance(domain, Ball):
        return float(x @ domain.center + domain.radius * np.linalg.norm(x))
    return float(np.sum(np.where(x >= 0, x * domain.upper, x * domain.lower)))


def _row_loop_sup(X, y, domain) -> float:
    """The per-sample supremum as first written: the closed-form formula
    evaluated on every row."""
    sup_per_sample = 0.0
    for x_i, y_i in zip(X, y):
        lo = -_row_support(domain, -x_i)
        hi = _row_support(domain, x_i)
        sup_resid = max(abs(lo - y_i), abs(hi - y_i))
        sup_per_sample = max(sup_per_sample,
                             float(np.linalg.norm(x_i)) * sup_resid)
    return sup_per_sample


def _fitted_rows(seed, n, d, offset=0.0, noise=0.5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = X @ (offset + rng.uniform(-1.0, 1.0, d)) + noise * rng.standard_normal(n)
    return X, y, np.linalg.lstsq(X, y, rcond=None)[0]


def _box_around(point, below, above):
    return Box(lower=point - below, upper=point + above)


def _identity_ties():
    X = np.vstack([np.eye(3), np.eye(3)])
    return X, np.zeros(6), Ball(center=np.zeros(3), radius=2.0)


def _zero_rows():
    X, y, star = _fitted_rows(4, 40, 4)
    X[[0, 5, 17]] = 0.0
    star = np.linalg.lstsq(X, y, rcond=None)[0]
    return X, y, _box_around(star, 0.3, 0.01)


def _far_thin_box():
    # lo_i and hi_i nearly cancel y_i: theta* sits near 1e3, the box is
    # 1e-3 wide and the data fit it to 1e-6.
    X, y, star = _fitted_rows(5, 200, 5, offset=1e3, noise=1e-6)
    return X, y, _box_around(star, 5e-4, 5e-4)


def _ball():
    X, y, star = _fitted_rows(6, 300, 6)
    return X, y, Ball(center=star + 0.1, radius=1.0)


def _workload_box(d):
    def build():
        X, y, star = _fitted_rows(10 + d, 500, d)
        return X, y, _box_around(star, 0.3, 0.002)
    return build


def _golden(domain):
    def build():
        p = load_erm_csv(Path(__file__).resolve().parent / "golden"
                         / "erm_small.csv", domain, NO_NOISE)
        return p.design, p.targets, domain
    return build


@st.composite
def _rows_and_domain(draw):
    """A design at a scale from 1e-160 to 1e150, zero and repeated entries
    included, with targets on, near or far from x_i^T center."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 12))
    scale = draw(st.sampled_from((1e-160, 1e-3, 1.0, 1e4, 1e150)))
    cells = st.floats(-8.0, 8.0) | st.sampled_from((0.0, 1.0, -1.0))
    X = draw(arrays(float, (n, d), elements=cells)) * scale
    center = draw(arrays(float, d, elements=st.floats(-1e4, 1e4)))
    if draw(st.booleans()):
        width = draw(arrays(float, d, elements=st.floats(1e-3, 10.0)))
        domain = Box(lower=center - width, upper=center + width)
    else:
        domain = Ball(center=center, radius=draw(st.floats(1e-3, 100.0)))
    offset = draw(arrays(float, n, elements=st.floats(-1e3, 1e3)))
    spread = draw(st.sampled_from((0.0, 1e-9, 1.0)))
    return X, X @ center + spread * scale * offset, domain


class TestMinibatchSigma2MatchesRowLoop:
    """The mini-batch sigma2 evaluates the per-row formula on a block of
    rows at a time; it must still be the row loop's float."""

    CASES = {
        "identity_ties": _identity_ties,
        "zero_rows": _zero_rows,
        "far_thin_box": _far_thin_box,
        "ball": _ball,
        **{f"box_d{d}": _workload_box(d) for d in (2, 7, 8, 13)},
        "golden_box": _golden(Box(lower=[-1.0, -1.0, -1.0],
                                  upper=[0.5, 0.5, 0.8])),
        "golden_ball": _golden(Ball(center=np.zeros(3), radius=3.0)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_sigma2(self, case):
        X, y, domain = self.CASES[case]()
        p = ErmLeastSquares(design=X, targets=y, domain=domain,
                            noise=Minibatch(batch_size=3))
        expected_sup = _row_loop_sup(X, y, domain)
        assert _sup_per_sample(X, y, domain) == expected_sup
        for sqrt_M in (0.0, 0.75):
            assert (p._noise_sigma2(sqrt_M)
                    == (expected_sup + sqrt_M) ** 2 / 3)

    @pytest.mark.parametrize("block", [1, 5, 64])
    @pytest.mark.parametrize("case", CASES)
    def test_sigma2_across_row_blocks(self, case, block, monkeypatch):
        X, y, domain = self.CASES[case]()
        expected_sup = _row_loop_sup(X, y, domain)
        monkeypatch.setattr(prob_mod, "SUP_BLOCK", block)
        assert _sup_per_sample(X, y, domain) == expected_sup

    @given(_rows_and_domain())
    @settings(max_examples=300, deadline=None)
    def test_any_rows_and_domain(self, case):
        X, y, domain = case
        with np.errstate(all="ignore"):
            assert _sup_per_sample(X, y, domain) == _row_loop_sup(X, y,
                                                                  domain)

    def test_non_finite_rows_follow_the_row_loop(self, monkeypatch):
        # A zero row with an infinite target gives 0 * inf = NaN, which the
        # row loop's running max skips; a -inf cell against a bound of 0
        # makes hi NaN, and max(|lo - y|, NaN) keeps |lo - y| = inf.
        cases = [
            (np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]),
             np.array([0.5, np.inf, -1.0]), BALL2),
            (np.array([[1.0], [-np.inf]]), np.zeros(2),
             Box(lower=[0.0], upper=[1.0])),
        ]
        blocks = (1, prob_mod.SUP_BLOCK)
        with np.errstate(invalid="ignore"):
            for X, y, domain in cases:
                expected_sup = _row_loop_sup(X, y, domain)
                for block in blocks:
                    monkeypatch.setattr(prob_mod, "SUP_BLOCK", block)
                    assert _sup_per_sample(X, y, domain) == expected_sup


# Assumption verifier suites (also exercised by the acceptance module).

def _random_interior(domain, rng, n):
    pts = domain.project(rng.normal(scale=domain.diameter(),
                                    size=(n, domain.dimension)))
    # pull strictly inside so finite differences stay in the domain
    if isinstance(domain, Ball):
        return domain.center + 0.99 * (pts - domain.center)
    mid = 0.5 * (domain.lower + domain.upper)
    return mid + 0.99 * (pts - mid)


SMOOTH_PROBLEMS = [
    quad2(diag=(1.0, 3.0), star=(0.1, -0.2)),
    ErmLeastSquares(design=np.array([[1.0, 0.2], [0.3, 1.5], [0.7, -0.4],
                                     [1.1, 0.9]]),
                    targets=[0.1, -0.2, 0.3, 0.0],
                    domain=BALL2, noise=NO_NOISE),
]

ALL_PROBLEMS = SMOOTH_PROBLEMS + [
    QuadPlusL1(hessian_diag=[1.0, 2.0], theta_star=[0.1, -0.3], l1_weight=0.5,
               domain=Box(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
               noise=NO_NOISE),
]


@pytest.mark.parametrize("p", SMOOTH_PROBLEMS)
def test_gradient_vs_central_differences(p):
    rng = np.random.default_rng(31)
    pts = _random_interior(p.domain, rng, 100)
    h = 1e-6
    for theta in pts:
        grad = p.subgradient(theta)
        fd = np.empty_like(grad)
        for k in range(len(theta)):
            e = np.zeros_like(theta)
            e[k] = h
            fd[k] = (p.value(theta + e) - p.value(theta - e)) / (2 * h)
        denom = max(np.linalg.norm(grad), 1.0)
        assert np.linalg.norm(fd - grad) / denom <= 1e-6


@pytest.mark.parametrize("p", ALL_PROBLEMS)
def test_strong_convexity_inequality(p):
    rng = np.random.default_rng(37)
    m = p.constants().m
    a = _random_interior(p.domain, rng, 10_000)
    b = _random_interior(p.domain, rng, 10_000)
    fa = _values(p, a)
    fb = _values(p, b)
    gb = _subgradients(p, b)
    gap = fa - (fb + np.sum(gb * (a - b), axis=1)
                + 0.5 * m * np.sum((a - b) ** 2, axis=1))
    assert np.min(gap) >= -1e-9


@pytest.mark.parametrize("p", ALL_PROBLEMS)
def test_optimality_gap_inequality(p):
    rng = np.random.default_rng(41)
    c = p.constants()
    pts = _random_interior(p.domain, rng, 10_000)
    g = _subgradients(p, pts)
    delta = pts - c.theta_star
    lhs = np.sum(g * delta, axis=1)
    rhs = 0.5 * c.m * np.sum(delta * delta, axis=1)
    assert np.min(lhs - rhs) >= -1e-9


@pytest.mark.parametrize("p", ALL_PROBLEMS)
def test_subgradient_norm_bound(p):
    rng = np.random.default_rng(43)
    c = p.constants()
    pts = _random_interior(p.domain, rng, 10_000)
    norms = np.linalg.norm(_subgradients(p, pts), axis=1)
    assert np.max(norms) <= c.sqrt_M * (1 + 1e-12)


@pytest.mark.parametrize("noise", [Gaussian(sigma2=2.5),
                                   BoundedRademacher(sigma2=2.5)])
def test_noise_moments(noise):
    rng = np.random.default_rng(47)
    d = 3
    draws = noise.sample(rng, 1_000_000, d)
    per_coord_sigma = np.sqrt(noise.sigma2 / d)
    assert np.all(np.abs(draws.mean(axis=0)) < 4 * per_coord_sigma / 1000.0)
    second_moment = float(np.mean(np.sum(draws * draws, axis=1)))
    assert abs(second_moment - noise.sigma2) / noise.sigma2 < 0.01


def _values(p, pts):
    from sgmlab.problems import Quadratic as Q, QuadPlusL1 as QL1
    if isinstance(p, Q):
        delta = pts - p.theta_star
        return 0.5 * np.sum(p.hessian_diag * delta * delta, axis=1)
    if isinstance(p, QL1):
        delta = pts - p.theta_star
        return (0.5 * np.sum(p.hessian_diag * delta * delta, axis=1)
                + p.l1_weight * np.sum(np.abs(delta), axis=1))
    resid = pts @ p.design.T - p.targets
    return 0.5 * np.mean(resid * resid, axis=1)


def _subgradients(p, pts):
    from sgmlab.problems import subgradient_batch
    return subgradient_batch(p, pts)
