"""Metric and U-test checks against independent brute-force oracles.

The oracles here deliberately take different computational routes from the
implementations: F1 via per-class loops over expanded label lists, MCC via
the covariance of one-hot indicator matrices, and the exact U distribution
via direct pair counting over enumerated group assignments.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valencelab.errors import ContractViolationError
from valencelab.evalstat import (
    ALPHA,
    ConfusionMatrix,
    confusion,
    f1_weighted,
    mann_whitney_u,
    mcc_multiclass,
    u_test_verdict,
)


def matrix_to_labels(counts):
    """Expand a confusion matrix into explicit (y_true, y_pred) lists."""
    y_true, y_pred = [], []
    for i, row in enumerate(counts):
        for j, n in enumerate(row):
            y_true.extend([i] * int(n))
            y_pred.extend([j] * int(n))
    return y_true, y_pred


def oracle_f1_weighted(y_true, y_pred, n_classes):
    total = len(y_true)
    score = 0.0
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        pred_c = sum(1 for p in y_pred if p == c)
        true_c = sum(1 for t in y_true if t == c)
        prec = tp / pred_c if pred_c else 0.0
        rec = tp / true_c if true_c else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        score += (true_c / total) * f1
    return score


def oracle_mcc_onehot(y_true, y_pred, n_classes):
    """Pearson correlation between flattened centered one-hot matrices."""
    n = len(y_true)
    x = np.zeros((n, n_classes))
    y = np.zeros((n, n_classes))
    x[np.arange(n), y_true] = 1.0
    y[np.arange(n), y_pred] = 1.0
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    cov_xy = (xc * yc).sum()
    cov_xx = (xc * xc).sum()
    cov_yy = (yc * yc).sum()
    if cov_xx == 0 or cov_yy == 0:
        return 0.0
    return cov_xy / math.sqrt(cov_xx * cov_yy)


def oracle_u_paircount(a, b):
    """U for sample a by counting wins (1) and ties (1/2) over all pairs."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def oracle_exact_p(a, b):
    """Two-sided exact p by enumeration, U computed via pair counting."""
    pooled = list(a) + list(b)
    n1 = len(a)
    mu = n1 * len(b) / 2.0
    obs = abs(oracle_u_paircount(a, b) - mu)
    hits = total = 0
    for combo in itertools.combinations(range(len(pooled)), n1):
        g1 = [pooled[i] for i in combo]
        g2 = [pooled[i] for i in range(len(pooled)) if i not in combo]
        if abs(oracle_u_paircount(g1, g2) - mu) >= obs - 1e-12:
            hits += 1
        total += 1
    return hits / total


class TestConfusion:
    def test_identity(self):
        m = confusion([0, 1, 2], [0, 1, 2], 3)
        assert np.array_equal(m.counts, np.eye(3, dtype=int))

    def test_empty(self):
        m = confusion([], [], 3)
        assert m.total == 0
        assert np.array_equal(m.counts, np.zeros((3, 3), dtype=int))

    def test_hand_tally(self):
        m = confusion([0, 0, 1], [0, 1, 1], 3)
        assert m.counts.tolist() == [[1, 1, 0], [0, 1, 0], [0, 0, 0]]

    def test_length_mismatch(self):
        with pytest.raises(ContractViolationError):
            confusion([0, 1], [0], 3)

    def test_out_of_range(self):
        with pytest.raises(ContractViolationError):
            confusion([0, 3], [0, 1], 3)


class TestF1Weighted:
    def test_perfect_diagonal(self):
        m = ConfusionMatrix(np.diag([5, 7, 9]))
        assert f1_weighted(m) == pytest.approx(1.0)

    def test_hand_computation(self):
        m = confusion([0, 0, 1], [0, 1, 1], 3)
        assert f1_weighted(m) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_division_convention(self):
        # class 2 never predicted and never true-positive: contributes 0
        m = ConfusionMatrix([[3, 0, 0], [0, 3, 0], [2, 0, 0]])
        y_true, y_pred = matrix_to_labels(m.counts)
        assert f1_weighted(m) == pytest.approx(oracle_f1_weighted(y_true, y_pred, 3))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ContractViolationError):
            f1_weighted(ConfusionMatrix(np.zeros((3, 3))))


class TestMCC:
    def test_perfect_diagonal(self):
        assert mcc_multiclass(ConfusionMatrix(np.diag([4, 4, 4]))) == pytest.approx(1.0)

    def test_single_column_zero_convention(self):
        m = ConfusionMatrix([[5, 0, 0], [5, 0, 0], [5, 0, 0]])
        assert mcc_multiclass(m) == 0.0

    def test_matches_onehot_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            counts = rng.integers(0, 12, size=(3, 3))
            if counts.sum() == 0:
                continue
            m = ConfusionMatrix(counts)
            y_true, y_pred = matrix_to_labels(counts)
            assert mcc_multiclass(m) == pytest.approx(
                oracle_mcc_onehot(y_true, y_pred, 3), abs=1e-12
            )

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=60
        )
    )
    def test_range_bounds(self, pairs):
        y_true = [t for t, _ in pairs]
        y_pred = [p for _, p in pairs]
        m = confusion(y_true, y_pred, 3)
        assert -1.0 - 1e-12 <= mcc_multiclass(m) <= 1.0 + 1e-12
        assert -1e-12 <= f1_weighted(m) <= 1.0 + 1e-12

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=40
        ),
        st.permutations([0, 1, 2]),
    )
    def test_relabeling_invariance(self, pairs, perm):
        y_true = [t for t, _ in pairs]
        y_pred = [p for _, p in pairs]
        m1 = confusion(y_true, y_pred, 3)
        m2 = confusion([perm[t] for t in y_true], [perm[p] for p in y_pred], 3)
        assert mcc_multiclass(m1) == pytest.approx(mcc_multiclass(m2), abs=1e-12)
        assert f1_weighted(m1) == pytest.approx(f1_weighted(m2), abs=1e-12)


class TestMannWhitney:
    def test_canonical_separated_case(self):
        u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        assert p == pytest.approx(0.1, abs=1e-12)

    def test_identical_multisets(self):
        _, p = mann_whitney_u([1, 2, 3, 4], [1, 2, 3, 4])
        assert p >= 0.99

    def test_empty_sample_rejected(self):
        with pytest.raises(ContractViolationError):
            mann_whitney_u([], [1.0])

    def test_exact_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for n1 in range(1, 6):
            for n2 in range(1, 6):
                a = list(rng.integers(1, 6, size=n1))
                b = list(rng.integers(1, 6, size=n2))
                u, p = mann_whitney_u(a, b)
                assert u == pytest.approx(oracle_u_paircount(a, b), abs=1e-12)
                assert p == pytest.approx(oracle_exact_p(a, b), abs=1e-9)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=6),
        st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=6),
    )
    def test_u_symmetry(self, a, b):
        ua, _ = mann_whitney_u(a, b)
        ub, _ = mann_whitney_u(b, a)
        assert ua + ub == pytest.approx(len(a) * len(b), abs=1e-9)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_exact_vs_normal_agreement(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=8)
        b = rng.normal(size=8)  # continuous draws: ties almost surely absent
        _, p_exact = mann_whitney_u(a, b, exact_limit=8)
        _, p_norm = mann_whitney_u(a, b, exact_limit=0)
        assert abs(p_exact - p_norm) <= 0.02

    def test_large_sample_uses_normal_path(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, size=31)
        b = rng.normal(0.8, 1.0, size=31)
        _, p = mann_whitney_u(a, b)
        assert 0.0 < p < 0.05

    def test_verdict_shape(self):
        out = u_test_verdict([1, 2, 3], [4, 5, 6])
        assert out["alpha"] == ALPHA == 0.05
        assert out["U"] == 0.0
        assert out["reject_h0"] is False  # p = 0.1 >= 0.05
        assert "H0" in out["verdict"]
