import hashlib
import json
import math

import numpy as np
import pytest

from valencelab.errors import ContractViolationError
from valencelab.learn.bayesopt import (
    DESIGN_SIZE,
    Dim,
    GaussianProcess,
    OptResult,
    SearchSpace,
    bayes_optimize,
)


def pointwise(f):
    """A batch objective that evaluates f at each setting in turn."""
    return lambda batch: [f(params) for params in batch]


@pointwise
def quadratic(params):
    return -(params["x"] - 0.3) ** 2


def test_finds_analytic_optimum():
    space = SearchSpace({"x": Dim(0.0, 1.0)})
    result = bayes_optimize(space, quadratic, budget=20, seed=0)
    assert abs(result.best_params["x"] - 0.3) <= 0.05
    assert len(result.trace) == 20


def test_budget_equal_to_design_size_returns_best_of_design():
    space = SearchSpace({"x": Dim(0.0, 1.0)})
    result = bayes_optimize(space, quadratic, budget=DESIGN_SIZE, seed=1)
    assert len(result.trace) == DESIGN_SIZE
    values = [v for _, v in result.trace]
    assert result.best_value == max(values)


def test_same_seed_identical_traces():
    space = SearchSpace({"x": Dim(0.0, 1.0), "y": Dim(-1.0, 1.0)})

    @pointwise
    def objective(p):
        return -(p["x"] - 0.5) ** 2 - p["y"] ** 2

    a = bayes_optimize(space, objective, budget=12, seed=42)
    b = bayes_optimize(space, objective, budget=12, seed=42)
    assert a.trace == b.trace
    assert a.best_params == b.best_params


def test_budget_below_design_size_rejected():
    space = SearchSpace({"x": Dim(0.0, 1.0)})
    with pytest.raises(ContractViolationError):
        bayes_optimize(space, quadratic, budget=DESIGN_SIZE - 1, seed=0)


def test_non_finite_objective_recorded_and_skipped():
    space = SearchSpace({"x": Dim(0.0, 1.0)})
    calls = []

    @pointwise
    def spiky(params):
        calls.append(params["x"])
        if len(calls) % 2 == 0:
            return float("nan")
        return -(params["x"] - 0.7) ** 2

    result = bayes_optimize(space, spiky, budget=10, seed=3)
    assert len(result.trace) == 10
    assert np.isfinite(result.best_value)
    # The incumbent never points at a non-finite evaluation.
    finite_best = max(v for _, v in result.trace if np.isfinite(v))
    assert result.best_value == finite_best


def test_integer_and_log_dimensions_decode_within_bounds():
    space = SearchSpace({
        "rounds": Dim(10, 200, "int"),
        "lr": Dim(1e-4, 1e-1, "logfloat"),
    })
    seen = []

    @pointwise
    def objective(p):
        seen.append(p)
        return float(p["rounds"]) * p["lr"]

    bayes_optimize(space, objective, budget=8, seed=5)
    for p in seen:
        assert isinstance(p["rounds"], int)
        assert 10 <= p["rounds"] <= 200
        assert 1e-4 <= p["lr"] <= 1e-1


def test_dim_bounds_validated():
    with pytest.raises(ContractViolationError):
        Dim(1.0, 1.0)
    with pytest.raises(ContractViolationError):
        Dim(-1.0, 1.0, "logfloat")
    with pytest.raises(ContractViolationError):
        Dim(0.0, 1.0, "mystery")


def test_gp_posterior_mean_interpolates_observations():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(12, 2))
    y = np.sin(3 * X[:, 0]) + X[:, 1]
    gp = GaussianProcess(length_scale=0.3).fit(X, y)
    mu, _ = gp.predict(X)
    assert np.max(np.abs(mu - y)) <= 1e-3


def test_result_shape():
    space = SearchSpace({"x": Dim(0.0, 1.0)})
    result = bayes_optimize(space, quadratic, budget=6, seed=9)
    assert isinstance(result, OptResult)
    for params, value in result.trace:
        assert set(params) == {"x"}
        assert isinstance(value, float)


def test_objective_gets_the_design_as_one_batch_then_one_setting_a_step():
    space = SearchSpace({"x": Dim(0.0, 1.0)})
    batches = []

    def objective(batch):
        batches.append(len(batch))
        return quadratic(batch)

    result = bayes_optimize(space, objective, budget=8, seed=2)
    assert batches == [DESIGN_SIZE, 1, 1, 1]
    assert len(result.trace) == 8


# Digest of a budget-8 trace over a float, a log-scale and an integer
# dimension, recorded while the objective still took one setting per call.
TRACE_GOLDEN = (
    "40b7348e61c28534038509720da7e27a7462514e4c0d0eb8c65275d583e7dda2")


def test_budget_8_trace_digest_is_pinned():
    space = SearchSpace({"x": Dim(0.0, 1.0), "lr": Dim(1e-4, 1e-1, "logfloat"),
                         "n": Dim(2, 40, "int")})

    @pointwise
    def objective(p):
        return (-(p["x"] - 0.4) ** 2 - (math.log10(p["lr"]) + 2.5) ** 2 / 9
                - abs(p["n"] - 17) / 40)

    result = bayes_optimize(space, objective, budget=8, seed=3)
    doc = [[params, value] for params, value in result.trace]
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()
                          ).hexdigest() == TRACE_GOLDEN
