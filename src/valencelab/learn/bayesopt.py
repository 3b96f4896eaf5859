"""Gaussian-process Bayesian optimization over small bounded boxes.

Maximizes a black-box objective. Starts from a Latin-hypercube design of
fixed size, then alternates GP fit / expected-improvement acquisition over
random multistart candidates. Everything is driven by one seeded generator,
so a given seed always yields the same trace.

The objective takes a batch: a list of settings in, a list of values out,
in the ask/tell shape of scikit-optimize's `Optimizer`. No design point
depends on a result, so the whole design is one batch; each acquisition
step is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ContractViolationError
from ..lazy import lazy_import

np = lazy_import("numpy")

DESIGN_SIZE = 5
EI_XI = 0.01
N_CANDIDATES = 512
N_LOCAL = 64
GP_NOISE = 1e-6     # first jitter on the GP kernel diagonal


@dataclass(frozen=True)
class Dim:
    lower: float
    upper: float
    kind: str = "float"  # float | logfloat | int

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ContractViolationError(
                f"dimension bounds must satisfy lower < upper, got "
                f"[{self.lower}, {self.upper}]")
        if self.kind not in ("float", "logfloat", "int"):
            raise ContractViolationError(f"unknown dimension kind {self.kind!r}")
        if self.kind == "logfloat" and self.lower <= 0:
            raise ContractViolationError("log-scale dimension needs lower > 0")

    def from_unit(self, u: float):
        u = min(max(u, 0.0), 1.0)
        if self.kind == "logfloat":
            lo, hi = math.log(self.lower), math.log(self.upper)
            return min(max(math.exp(lo + u * (hi - lo)), self.lower),
                       self.upper)
        v = self.lower + u * (self.upper - self.lower)
        if self.kind == "int":
            return int(min(max(round(v), self.lower), self.upper))
        return min(max(v, self.lower), self.upper)


@dataclass
class SearchSpace:
    dims: dict = field(default_factory=dict)  # name -> Dim, insertion order

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    def decode(self, u: np.ndarray) -> dict:
        return {name: dim.from_unit(float(u[i]))
                for i, (name, dim) in enumerate(self.dims.items())}


@dataclass
class OptResult:
    best_params: dict
    best_value: float
    trace: list  # (params dict, raw objective value) in evaluation order


class GaussianProcess:
    """Squared-exponential GP on the unit cube, fixed small noise."""

    def __init__(self, length_scale: float = 0.3):
        self.length_scale = length_scale

    def _kernel(self, A, B):
        d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-0.5 * d2 / self.length_scale ** 2)

    def fit(self, X, y):
        self.X_ = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.y_mean_ = y.mean()
        self.y_std_ = y.std()
        if self.y_std_ < 1e-12:
            self.y_std_ = 1.0
        self.y_ = (y - self.y_mean_) / self.y_std_
        K = self._kernel(self.X_, self.X_)
        noise = GP_NOISE
        # Escalate jitter until the factorization goes through.
        for _ in range(6):
            try:
                self.L_ = np.linalg.cholesky(K + noise * np.eye(len(K)))
                break
            except np.linalg.LinAlgError:
                noise *= 10.0
        else:
            raise ContractViolationError("kernel matrix not factorizable")
        self.noise_used_ = noise
        self.alpha_ = np.linalg.solve(
            self.L_.T, np.linalg.solve(self.L_, self.y_))
        return self

    def log_marginal_likelihood(self) -> float:
        n = len(self.y_)
        return float(-0.5 * self.y_ @ self.alpha_
                     - np.log(np.diag(self.L_)).sum()
                     - 0.5 * n * math.log(2 * math.pi))

    def predict(self, Xs):
        """Posterior mean and variance in the units of the fitted y."""
        mu, var = self.predict_standardized(Xs)
        return mu * self.y_std_ + self.y_mean_, var * self.y_std_ ** 2

    def predict_standardized(self, Xs):
        Xs = np.asarray(Xs, dtype=np.float64)
        Ks = self._kernel(Xs, self.X_)
        mu = Ks @ self.alpha_
        v = np.linalg.solve(self.L_, Ks.T)
        var = np.maximum(1.0 + self.noise_used_ - (v ** 2).sum(axis=0), 1e-12)
        return mu, var


def _norm_cdf(z):
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))


def _norm_pdf(z):
    return np.exp(-0.5 * z ** 2) / math.sqrt(2 * math.pi)


def _expected_improvement(mu, var, best):
    sigma = np.sqrt(var)
    diff = mu - best - EI_XI
    z = diff / sigma
    return diff * _norm_cdf(z) + sigma * _norm_pdf(z)


def _latin_hypercube(rng, n, d):
    u = np.empty((n, d))
    for j in range(d):
        strata = (np.arange(n) + rng.uniform(size=n)) / n
        u[:, j] = rng.permutation(strata)
    return u


def _fit_best_gp(X, y):
    best = None
    for ls in (0.1, 0.2, 0.3, 0.5):
        gp = GaussianProcess(length_scale=ls).fit(X, y)
        lml = gp.log_marginal_likelihood()
        if best is None or lml > best[0]:
            best = (lml, gp)
    return best[1]


def bayes_optimize(space: SearchSpace, objective, budget: int,
                   seed: int = 0) -> OptResult:
    """Maximize objective over the space within a fixed evaluation budget.

    objective maps a list of settings to a list of values, one per setting.
    """
    if space.n_dims == 0:
        raise ContractViolationError("search space has no dimensions")
    if budget < DESIGN_SIZE:
        raise ContractViolationError(
            f"budget {budget} below initial design size {DESIGN_SIZE}")
    rng = np.random.default_rng(seed)
    d = space.n_dims

    units = list(_latin_hypercube(rng, DESIGN_SIZE, d))
    design = [space.decode(u) for u in units]
    raw_values = [float(v) for v in objective(design)]
    trace = list(zip(design, raw_values, strict=True))

    def penalized(vals):
        arr = np.array(vals, dtype=np.float64)
        finite = np.isfinite(arr)
        if not finite.any():
            return np.zeros_like(arr)
        worst = arr[finite].min()
        spread = arr[finite].max() - worst
        # strictly below the worst, also where |worst| is too large for
        # the subtraction to move it
        arr[~finite] = min(worst - max(spread, 1.0),
                           np.nextafter(worst, -np.inf))
        return arr

    while len(trace) < budget:
        X = np.array(units)
        y = penalized(raw_values)
        gp = _fit_best_gp(X, y)
        y_std = (y - gp.y_mean_) / gp.y_std_
        best_std = y_std.max()

        cand = rng.uniform(size=(N_CANDIDATES, d))
        inc = units[int(np.argmax(y))]
        local = np.clip(
            inc + rng.normal(scale=0.05, size=(N_LOCAL, d)), 0.0, 1.0)
        cand = np.vstack([cand, local])
        mu, var = gp.predict_standardized(cand)
        ei = _expected_improvement(mu, var, best_std)
        u_next = cand[int(np.argmax(ei))]

        params = space.decode(u_next)
        (val,) = objective([params])
        val = float(val)
        units.append(u_next)
        trace.append((params, val))
        raw_values.append(val)

    # penalized puts non-finite values last; if all are, index 0 wins
    best_i = int(np.argmax(penalized(raw_values)))
    return OptResult(best_params=trace[best_i][0],
                     best_value=raw_values[best_i],
                     trace=trace)
