"""Strongly convex objectives with exactly known constants and stochastic
first-order oracles.

Every problem carries a domain and knows its own constants (m, M, sigma^2, L,
theta_star) in closed form, so bound evaluation never has to estimate them.
Gradient oracles return ``s + n`` where ``s`` is a deterministic subgradient
and ``n`` is zero-mean noise with exactly known second moment.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain, contains, full_operands

DOMAIN_TOL = 1e-9
INTERIOR_MARGIN = 1e-9
SUP_BLOCK = 2 ** 13     # cells: 64 KB temporaries, reused rather than mmapped
READ_CHUNK = 2 ** 20    # bytes of a CSV scanned at a time
# Bytes np.loadtxt strips around a number as whitespace and float() refuses.
LOADTXT_SPACES = b"\x1c\x1d\x1e\x1f"


class DegenerateProblemError(ValueError):
    """Raised when a problem violates strong convexity (m too small)."""


@dataclass(frozen=True)
class Gaussian:
    """Spherical Gaussian noise with total second moment E||n||^2 = sigma2."""

    sigma2: float

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")

    def sample(self, rng: np.random.Generator, n_draws: int, dim: int,
               out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((n_draws, dim))
        # The same bits as scale * rng.standard_normal((n_draws, dim)).
        rng.standard_normal(out=out)
        return np.multiply(np.sqrt(self.sigma2 / dim), out, out=out)


@dataclass(frozen=True)
class BoundedRademacher:
    """Each coordinate is +-sigma/sqrt(d) with equal probability."""

    sigma2: float

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")

    def sample(self, rng: np.random.Generator, n_draws: int, dim: int,
               out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((n_draws, dim))
        rng.random(out=out)
        # u - 0.5 is exact or keeps its sign for u in [0, 1), so the sign
        # bit is set exactly where u < 0.5: the same bits as
        # magnitude * (-1.0 if u < 0.5 else 1.0), -0.0 included.
        np.subtract(out, 0.5, out=out)
        return np.copysign(np.sqrt(self.sigma2 / dim), out, out=out)


NoiseModel = Gaussian | BoundedRademacher


@dataclass(frozen=True)
class Minibatch:
    """ERM noise mode: draw `batch_size` indices uniformly with replacement."""

    batch_size: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class ProblemConstants:
    m: float
    M: float
    sigma2: float
    L: float
    theta_star: np.ndarray

    def __post_init__(self):
        for name in ("m", "M", "sigma2", "L"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"problem constant {name} = {value} is not "
                                 "finite")

    @property
    def sqrt_M(self) -> float:
        return float(np.sqrt(self.M))


def _square(x: float) -> float:
    """x**2, but inf past the float range, where a Python float raises
    OverflowError and a numpy float warns; ProblemConstants rejects it."""
    try:
        with np.errstate(over="ignore"):
            return x ** 2
    except OverflowError:
        return math.inf


def _check_in_domain(domain: Domain, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if not np.all(contains(domain, theta, DOMAIN_TOL)):
        raise ValueError("point lies outside the domain (tolerance 1e-9)")
    return theta


def _check_interior(domain: Domain, theta_star: np.ndarray):
    boundary_margin = domain.margin(theta_star)
    if boundary_margin < INTERIOR_MARGIN:
        raise ValueError(
            "theta_star must lie strictly inside the domain "
            f"(margin {boundary_margin:.3e} < {INTERIOR_MARGIN:.0e})"
        )


@dataclass(frozen=True)
class _Diagonal:
    """The checks and members the diagonal-Hessian problems share. Each
    subclass declares its own init fields, which set its repr, its config
    keys and its config_hash."""

    # full_operands' cache of hessian_diag and theta_star (derived, so
    # compare=False keeps it out of config_hash).
    _operands: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        if isinstance(self.noise, Minibatch):
            raise ValueError("minibatch noise needs an erm_csv problem")
        object.__setattr__(self, "hessian_diag",
                           np.asarray(self.hessian_diag, dtype=float))
        object.__setattr__(self, "theta_star",
                           np.asarray(self.theta_star, dtype=float))
        if self.hessian_diag.shape != self.theta_star.shape:
            raise ValueError("hessian_diag and theta_star shapes differ")
        if not np.all(self.hessian_diag > 0):
            raise DegenerateProblemError("hessian_diag must be strictly positive")
        _check_in_domain(self.domain, self.theta_star)
        _check_interior(self.domain, self.theta_star)

    @property
    def dimension(self) -> int:
        return self.theta_star.shape[0]

    def subgradient(self, theta) -> np.ndarray:
        return self._subgradient(_check_in_domain(self.domain, theta))

    def constants(self) -> ProblemConstants:
        sqrt_M = self._sqrt_M()
        m = float(np.min(self.hessian_diag))
        if m <= 1e-12:
            raise DegenerateProblemError(f"strong-convexity constant {m:.3e} "
                                         "<= 1e-12")
        return ProblemConstants(m=m, M=_square(sqrt_M),
                                sigma2=self.noise.sigma2,
                                L=self.domain.diameter(),
                                theta_star=self.theta_star)

    def _sqrt_M(self) -> float:
        """A bound over the domain on the deterministic subgradient's norm."""
        far = self.domain.farthest_distance(self.theta_star)
        return float(np.max(self.hessian_diag)) * far


@dataclass(frozen=True)
class Quadratic(_Diagonal):
    """f(theta) = 1/2 (theta - theta*)^T diag(h) (theta - theta*)."""

    hessian_diag: np.ndarray
    theta_star: np.ndarray
    domain: Domain
    noise: NoiseModel

    def value(self, theta) -> float:
        theta = _check_in_domain(self.domain, theta)
        delta = theta - self.theta_star
        return float(0.5 * np.sum(self.hessian_diag * delta * delta))

    def _subgradient(self, theta) -> np.ndarray:
        hessian_diag, theta_star = full_operands(
            self, theta, (self.hessian_diag, self.theta_star))
        return hessian_diag * (theta - theta_star)


@dataclass(frozen=True)
class QuadPlusL1(_Diagonal):
    """Quadratic plus an l1 term c * ||theta - theta*||_1 (non-smooth at theta*)."""

    hessian_diag: np.ndarray
    theta_star: np.ndarray
    l1_weight: float
    domain: Domain
    noise: NoiseModel

    def __post_init__(self):
        if self.l1_weight < 0:
            raise ValueError("l1_weight must be nonnegative")
        super().__post_init__()

    def value(self, theta) -> float:
        theta = _check_in_domain(self.domain, theta)
        delta = theta - self.theta_star
        quad = 0.5 * np.sum(self.hessian_diag * delta * delta)
        return float(quad + self.l1_weight * np.sum(np.abs(delta)))

    def _subgradient(self, theta) -> np.ndarray:
        # At a kink coordinate (theta_k == theta*_k) the l1 component is 0,
        # the minimal-norm deterministic selection.
        hessian_diag, theta_star = full_operands(
            self, theta, (self.hessian_diag, self.theta_star))
        delta = theta - theta_star
        return hessian_diag * delta + self.l1_weight * np.sign(delta)

    def _sqrt_M(self) -> float:
        return super()._sqrt_M() + self.l1_weight * np.sqrt(self.dimension)


@dataclass(frozen=True)
class ErmLeastSquares:
    """f(theta) = 1/(2N) sum_i (x_i^T theta - y_i)^2 over a fixed dataset.

    Noise is either additive (a NoiseModel on top of the exact gradient) or a
    uniformly drawn mini-batch gradient, which is unbiased by construction.
    """

    design: np.ndarray
    targets: np.ndarray
    domain: Domain
    noise: NoiseModel | Minibatch
    theta_star: np.ndarray = field(init=False)
    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _constants: ProblemConstants = field(init=False, repr=False, compare=False)

    # Overflow shows up below as a non-finite Gram matrix or constant, each
    # rejected by name, so numpy's warnings would only repeat it.
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        X = np.asarray(self.design, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("design must be N x d with N matching targets")
        if X.shape[0] < X.shape[1] + 1:
            raise ValueError("need at least d+1 rows")
        # One C-contiguous [X | y] table, so a mini-batch is one gather of
        # whole rows. design and targets are views of it, with the strides
        # of a CSV-loaded table: every BLAS call below keeps its bits.
        rows = np.empty((X.shape[0], X.shape[1] + 1))
        rows[:, :-1] = X
        rows[:, -1] = y
        X, y = rows[:, :-1], rows[:, -1]
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "design", X)
        object.__setattr__(self, "targets", y)

        n = X.shape[0]
        gram = (X.T @ X) / n
        if not np.all(np.isfinite(gram)):
            raise ValueError("(1/N) X^T X is not finite: the design "
                             "overflows the float range")
        rhs = (X.T @ y) / n
        if not np.all(np.isfinite(rhs)):
            raise ValueError("(1/N) X^T y is not finite: the targets "
                             "overflow the float range")
        eigenvalues = np.linalg.eigvalsh(gram)
        m = float(np.min(eigenvalues))
        if m <= 1e-12:
            raise DegenerateProblemError(
                f"(1/N) X^T X has smallest eigenvalue {m:.3e} <= 1e-12"
            )
        theta_star = np.linalg.solve(gram, rhs)
        residual = np.linalg.norm(gram @ theta_star - rhs)
        rhs_norm = max(np.linalg.norm(rhs), 1.0)
        if residual / rhs_norm > 1e-10:
            raise DegenerateProblemError("normal equations solve did not converge")
        object.__setattr__(self, "theta_star", theta_star)
        if not np.all(contains(self.domain, theta_star, DOMAIN_TOL)):
            raise ValueError("least-squares solution lies outside the domain")
        _check_interior(self.domain, theta_star)
        # grad f(theta) = A(theta - theta*) with A = gram; bound over D via
        # the operator norm and the farthest point from theta*.
        sqrt_M = (float(np.max(eigenvalues))
                  * self.domain.farthest_distance(theta_star))
        object.__setattr__(self, "_constants", ProblemConstants(
            m=m, M=_square(sqrt_M), sigma2=self._noise_sigma2(sqrt_M),
            L=self.domain.diameter(), theta_star=theta_star))

    def __getstate__(self):
        # design and targets are views of _rows; pickled as they are, each
        # would reach a worker process as a copy of its own.
        state = self.__dict__.copy()
        del state["design"], state["targets"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state, design=state["_rows"][:, :-1],
                             targets=state["_rows"][:, -1])

    @property
    def dimension(self) -> int:
        return self.design.shape[1]

    def value(self, theta) -> float:
        theta = _check_in_domain(self.domain, theta)
        r = self.design @ theta - self.targets
        return float(0.5 * np.mean(r * r))

    def subgradient(self, theta) -> np.ndarray:
        return self._subgradient(_check_in_domain(self.domain, theta))

    def _subgradient(self, theta) -> np.ndarray:
        resid = theta @ self.design.T - self.targets
        return (resid @ self.design) / self.design.shape[0]

    def per_sample_gradient(self, theta, indices) -> np.ndarray:
        """Mean gradient over the given sample indices; batched over leading axes."""
        theta = np.asarray(theta, dtype=float)
        rows = np.take(self._rows, indices, axis=0)     # (..., b, d+1)
        X_b, y_b = rows[..., :-1], rows[..., -1]
        resid = np.einsum("...bd,...d->...b", X_b, theta) - y_b
        return np.einsum("...b,...bd->...d", resid, X_b) / resid.shape[-1]

    def constants(self) -> ProblemConstants:
        return self._constants

    def _noise_sigma2(self, sqrt_M: float) -> float:
        if not isinstance(self.noise, Minibatch):
            return self.noise.sigma2
        # Upper bound on the mini-batch gradient variance over D.
        sup_per_sample = _sup_per_sample(self.design, self.targets, self.domain)
        return _square(sup_per_sample + sqrt_M) / self.noise.batch_size


def _sup_per_sample(X: np.ndarray, y: np.ndarray, domain: Domain) -> float:
    """max_i sup_{theta in D} ||x_i (x_i^T theta - y_i)||. Each per-sample
    gradient is linear in theta, so its norm is maximized over the domain
    in closed form: x_i^T theta ranges over [lo_i, hi_i] given by the
    support function. Each block of rows is evaluated at once, every row
    to the float a loop over the rows gives; fmax skips a NaN row as
    max(sup, v) did. Blocks of SUP_BLOCK cells keep the temporaries small;
    whole-design ones would set the peak memory of an ERM run."""
    sup = 0.0
    step = max(1, SUP_BLOCK // X.shape[1])
    for start in range(0, X.shape[0], step):
        X_b, y_b = X[start:start + step], y[start:start + step]
        lo = -domain.support(-X_b)
        hi = domain.support(X_b)
        a, b = np.abs(lo - y_b), np.abs(hi - y_b)
        resid = np.where(b > a, b, a)               # max(a, b) row by row
        norm = np.sqrt(np.vecdot(X_b, X_b))
        sup = np.fmax.reduce(norm * resid, initial=sup)
    return float(sup)


Problem = Quadratic | QuadPlusL1 | ErmLeastSquares


def subgradient_batch(problem: Problem, theta: np.ndarray) -> np.ndarray:
    """Deterministic subgradient for a batch of iterates, shape (..., d).

    Skips the domain check; the caller (the simulation engine) maintains
    feasibility by projecting every step.
    """
    return problem._subgradient(theta)


def noise_sample(problem: Problem, rng: np.random.Generator, n_draws: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Draw `n_draws` additive-noise vectors, shape (n_draws, d), into `out`
    when given (C-contiguous floats of that shape) and return it.

    Drawing a block of k vectors consumes the stream exactly like k
    single-draw calls, so replicate blocks can be generated chunk-wise.
    """
    if isinstance(problem.noise, Minibatch):
        raise ValueError("mini-batch problems have no additive noise; "
                         "use minibatch_indices")
    return problem.noise.sample(rng, n_draws, problem.dimension, out=out)


def index_dtype(n_rows: int) -> np.dtype:
    """The narrowest signed integer type that holds every index below
    n_rows: a chunk of mini-batch indices is R * b of them per step."""
    for dtype in (np.int8, np.int16, np.int32):
        if np.iinfo(dtype).max >= n_rows - 1:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def minibatch_indices(problem: ErmLeastSquares, rng: np.random.Generator,
                      n_draws: int, out: np.ndarray | None = None
                      ) -> np.ndarray:
    """Draw `n_draws` mini-batches of sample indices, shape
    (n_draws, batch_size), into `out` when given and return it; allocated,
    `out` has the index_dtype of the design's row count."""
    n_rows, batch = problem.design.shape[0], problem.noise.batch_size
    if out is None:
        out = np.empty((n_draws, batch), index_dtype(n_rows))
    # Generator.integers takes no `out`, and a narrower `dtype=` would draw
    # a different stream: the int64 draw is cast on the copy.
    out[...] = rng.integers(0, n_rows, size=(n_draws, batch))
    return out


def noise_kind(problem: Problem) -> tuple:
    """How the engine draws and applies the problem's noise, decided once:
    (draw, width, dtype, gradient). draw(problem, rng, k, out=None) returns
    k steps of noise, shape (k, width): additive vectors, or mini-batch
    sample indices. A given `out` of that shape and dtype is filled and
    returned.
    gradient(theta, noise) is the stochastic gradient at a (block, d) batch
    of iterates given one step's (block, width) noise."""
    if isinstance(problem.noise, Minibatch):
        return (minibatch_indices, problem.noise.batch_size,
                index_dtype(problem.design.shape[0]),
                problem.per_sample_gradient)

    def gradient(theta, noise):
        return subgradient_batch(problem, theta) + noise

    return noise_sample, problem.dimension, float, gradient


def load_erm_csv(path, domain: Domain, noise: NoiseModel | Minibatch) -> ErmLeastSquares:
    """Read a (features..., target) UTF-8 CSV into an ERM least-squares
    problem. np.loadtxt parses the file; a file it might read otherwise
    goes through the cell-by-cell scan."""
    data = _loadtxt(path)
    if data is None:
        data = _scan_csv(path)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need at least one feature column plus a target")
    return ErmLeastSquares(design=data[:, :-1], targets=data[:, -1],
                           domain=domain, noise=noise)


def _loadtxt(path) -> np.ndarray | None:
    """The table np.loadtxt parses from the file, or None for a file it
    refuses or reads as empty or non-finite, or that holds one of
    LOADTXT_SPACES. On every other file, _scan_csv gives the same floats."""
    with open(path, "rb") as fh:
        while chunk := fh.read(READ_CHUNK):
            if any(c in chunk for c in LOADTXT_SPACES):
                return None
    try:
        # A file object, not the path: np.loadtxt opens a path ending in
        # .gz as gzip, and fetches a URL.
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            # A file without rows warns; _scan_csv words that error.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    if data.size == 0 or not np.all(np.isfinite(data)):
        return None
    return data


def _scan_csv(path) -> np.ndarray:
    """Parse the file cell by cell through csv.reader and float(): the
    spellings only these accept (quotes, `1_000`, Unicode digits) and the
    one-line error naming the first bad row and cell."""
    rows = []
    i = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for i, row in enumerate(csv.reader(fh), 1):
                if not row:
                    continue
                parsed = []
                for j, cell in enumerate(row, 1):
                    try:
                        value = float(cell)
                    except ValueError:
                        value = None
                    if value is None or not math.isfinite(value):
                        kind = "non-numeric" if value is None else "non-finite"
                        raise ValueError(f"{path}: {kind} cell at row {i}, "
                                         f"column {j}: {cell!r}")
                    parsed.append(value)
                rows.append(parsed)
    except csv.Error as exc:    # a cell past csv.field_size_limit()
        raise ValueError(f"{path}: cannot read row {i + 1}: {exc}") from None
    except UnicodeDecodeError:
        raise ValueError(_decode_error(path)) from None
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent column counts {sorted(widths)}")
    return np.asarray(rows, dtype=float)


def _decode_error(path) -> str:
    """The error line for a file that is not UTF-8, naming the row of its
    first undecodable byte. The text reader decodes ahead of the row it
    hands out, so the row is found again from the raw bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = len((raw[:exc.start] + b"_").splitlines())
        return (f"{path}: cannot decode row {row} as UTF-8 "
                f"(byte {raw[exc.start]:#04x})")
    return f"{path}: cannot decode as UTF-8"
