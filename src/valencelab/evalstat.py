"""Metrics and statistics for the model comparison study.

Confusion matrices, support-weighted F1, the multiclass (R_K) Matthews
correlation coefficient, and a Mann-Whitney U test with midrank tie
handling. Everything here is a pure function over plain arrays; nothing
mutates its inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ContractViolationError
from .lazy import lazy_import

np = lazy_import("numpy")

# Exact enumeration of the U distribution is used up to this sample size per
# group; beyond it the normal approximation (tie- and continuity-corrected)
# takes over.
EXACT_ENUMERATION_LIMIT = 8
# significance level of the model comparison's U tests
ALPHA = 0.05


@dataclass
class ConfusionMatrix:
    """K x K count matrix; rows are true classes, columns predicted."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ContractViolationError("confusion matrix must be square")
        if (self.counts < 0).any():
            raise ContractViolationError("confusion matrix entries must be >= 0")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(y_true, y_pred, n_classes: int) -> ConfusionMatrix:
    """Tally a confusion matrix from parallel label sequences.

    Labels must be integers in ``[0, n_classes)``. Empty inputs yield the
    zero matrix.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ContractViolationError(
            f"length mismatch: {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size and (
        y_true.min() < 0
        or y_pred.min() < 0
        or y_true.max() >= n_classes
        or y_pred.max() >= n_classes
    ):
        raise ContractViolationError("labels out of range")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return ConfusionMatrix(counts)


def f1_weighted(matrix: ConfusionMatrix) -> float:
    """Support-weighted mean of per-class F1; a class with P+R = 0 scores 0."""
    if matrix.total == 0:
        raise ContractViolationError("empty confusion matrix")
    c = matrix.counts.astype(np.float64)
    tp = np.diag(c)
    pred_tot = c.sum(axis=0)
    support = c.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_tot > 0, tp / pred_tot, 0.0)
        recall = np.where(support > 0, tp / support, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    return float(np.dot(f1, support) / support.sum())


def mcc_multiclass(matrix: ConfusionMatrix) -> float:
    """Multiclass Matthews correlation (the R_K statistic).

    ``(c*s - sum_k p_k*t_k) / sqrt((s^2 - sum p_k^2)(s^2 - sum t_k^2))``
    with c the trace, s the total, p_k column sums, t_k row sums. A zero
    denominator (all predictions or all truths in one class) returns 0.
    """
    if matrix.total == 0:
        raise ContractViolationError("empty confusion matrix")
    c = matrix.counts.astype(np.float64)
    s = c.sum()
    trace = np.trace(c)
    p = c.sum(axis=0)
    t = c.sum(axis=1)
    num = trace * s - float(np.dot(p, t))
    den_sq = (s * s - float(np.dot(p, p))) * (s * s - float(np.dot(t, t)))
    if den_sq <= 0.0:
        return 0.0
    return float(num / math.sqrt(den_sq))


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, ties receiving the mean of their rank span."""
    s = np.sort(values, kind="mergesort")
    return (np.searchsorted(s, values, "left")
            + np.searchsorted(s, values, "right") + 1) / 2


def _u_from_ranks(pooled: np.ndarray, n1: int) -> float:
    ranks = _midranks(pooled)
    r1 = ranks[:n1].sum()
    return r1 - n1 * (n1 + 1) / 2.0


def _exact_two_sided_p(pooled: np.ndarray, n1: int, u_obs: float) -> float:
    """Enumerate every assignment of the pooled values to group one.

    The two-sided p-value is the fraction of arrangements whose U lies at
    least as far from the null mean n1*n2/2 as the observed U.
    """
    n = len(pooled)
    mu = n1 * (n - n1) / 2.0
    # a value's midrank does not depend on which group holds it
    ranks = _midranks(pooled)
    combos = np.array(list(itertools.combinations(range(n), n1)))
    u = ranks[combos].sum(axis=1) - n1 * (n1 + 1) / 2.0
    hits = np.abs(u - mu) >= abs(u_obs - mu) - 1e-12
    return int(np.count_nonzero(hits)) / len(u)


def _normal_two_sided_p(pooled: np.ndarray, n1: int, u_obs: float) -> float:
    """Normal approximation with tie correction and continuity correction."""
    n = len(pooled)
    n2 = n - n1
    mu = n1 * n2 / 2.0
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(((tie_counts**3) - tie_counts).sum())
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:
        return 1.0  # all values identical: no evidence of any difference
    z = (abs(u_obs - mu) - 0.5) / math.sqrt(var)
    z = max(z, 0.0)
    p = 2.0 * 0.5 * math.erfc(z / math.sqrt(2.0))
    return min(p, 1.0)


def mann_whitney_u(a, b, exact_limit: int = EXACT_ENUMERATION_LIMIT):
    """Two-sided Mann-Whitney U test of samples ``a`` and ``b``.

    Returns ``(U, p)`` where U is the statistic for sample ``a`` computed
    from midranks. When both samples have at most ``exact_limit`` members
    the p-value is computed by exact enumeration over all
    C(n1+n2, n1) group assignments; otherwise by normal approximation.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ContractViolationError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    u_obs = _u_from_ranks(pooled, len(a))
    if len(a) <= exact_limit and len(b) <= exact_limit:
        p = _exact_two_sided_p(pooled, len(a), u_obs)
    else:
        p = _normal_two_sided_p(pooled, len(a), u_obs)
    return float(u_obs), float(p)


def u_test_verdict(a, b) -> dict:
    """U test plus the ALPHA-level verdict, shaped for the stats report."""
    u, p = mann_whitney_u(a, b)
    return {
        "U": u,
        "p": p,
        "alpha": ALPHA,
        "reject_h0": bool(p < ALPHA),
        "verdict": (
            "H0 can be rejected (p < alpha)"
            if p < ALPHA
            else "H0 cannot be rejected (p >= alpha)"
        ),
    }
