"""Density clustering contracts, frozen-seed fixtures."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from valencelab.errors import ContractViolationError, NoStructureError
from valencelab.learn import (
    ClusterModel,
    autodiscover_cluster_params,
    density_cluster,
    density_validity_index,
    fit_cluster_model,
)


def two_blob_fixture(seed=0):
    """Two tight blobs plus ten genuinely remote outliers."""
    rng = np.random.default_rng(seed)
    blob1 = rng.normal([0.0, 0.0], 0.25, size=(50, 2))
    blob2 = rng.normal([5.0, 5.0], 0.25, size=(50, 2))
    outliers = []
    while len(outliers) < 10:
        p = rng.uniform([-10.0, -10.0], [15.0, 15.0])
        if min(np.hypot(p[0], p[1]), np.hypot(p[0] - 5, p[1] - 5)) > 6.0:
            outliers.append(p)
    return np.vstack([blob1, blob2, np.array(outliers)])


def test_two_blobs_recovered_and_outliers_dropped():
    pts = two_blob_fixture(0)
    labels = density_cluster(pts, min_cluster_size=15, min_samples=15)
    assert len(set(labels.tolist()) - {-1}) == 2
    assert (labels[100:] == -1).sum() >= 8
    # Blob points stay clustered.
    assert (labels[:100] == -1).sum() <= 5


def test_blob_halves_share_a_label():
    pts = two_blob_fixture(1)
    labels = density_cluster(pts, 15, 15)
    first = labels[:50]
    second = labels[50:100]
    assert len(set(first[first >= 0].tolist())) == 1
    assert len(set(second[second >= 0].tolist())) == 1
    assert first[0] != second[0]


def test_identical_points_form_one_cluster_without_noise():
    pts = np.tile([2.5, -1.5], (40, 1))
    labels = density_cluster(pts, 10, 5)
    assert set(labels.tolist()) == {0}


def test_fewer_points_than_min_samples_all_noise():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    labels = density_cluster(pts, 2, 5)
    assert set(labels.tolist()) == {-1}


def test_clusters_meet_min_size():
    pts = two_blob_fixture(2)
    for mcs in (10, 15, 20):
        labels = density_cluster(pts, mcs, 10)
        for c in set(labels.tolist()) - {-1}:
            assert (labels == c).sum() >= mcs


def test_row_permutation_permutes_labels_consistently():
    pts = two_blob_fixture(3)
    labels = density_cluster(pts, 15, 15)
    rng = np.random.default_rng(4)
    perm = rng.permutation(len(pts))
    permuted_labels = density_cluster(pts[perm], 15, 15)
    # Same partition: noise maps to noise, cluster blocks map one-to-one.
    assert np.array_equal(permuted_labels == -1, labels[perm] == -1)
    mapping = {}
    for a, b in zip(labels[perm], permuted_labels):
        if a == -1:
            continue
        assert mapping.setdefault(a, b) == b
    assert len(set(mapping.values())) == len(mapping)


def test_autodiscover_on_blobs_lands_in_plausible_band():
    pts = two_blob_fixture(0)
    mcs, ms = autodiscover_cluster_params(pts, [5, 10, 15])
    assert 10 <= mcs <= 25
    labels = density_cluster(pts, mcs, ms)
    assert len(set(labels.tolist()) - {-1}) == 2


def test_autodiscover_single_blob_returns_scan_minimum():
    rng = np.random.default_rng(1)
    pts = rng.normal([2.0, -1.0], 0.2, size=(80, 2))
    mcs, ms = autodiscover_cluster_params(pts, [5, 10, 15])
    assert mcs == 10
    labels = density_cluster(pts, mcs, ms)
    assert len(set(labels.tolist()) - {-1}) == 1


def test_autodiscover_uniform_noise_raises():
    rng = np.random.default_rng(104)
    pts = rng.uniform(0, 10, size=(120, 2))
    with pytest.raises(NoStructureError):
        autodiscover_cluster_params(pts, [5, 10, 15])


def test_autodiscover_rejects_empty_grid():
    with pytest.raises(ContractViolationError):
        autodiscover_cluster_params(np.zeros((10, 2)), [])


def test_validity_prefers_separated_blobs_over_merged():
    pts = two_blob_fixture(5)
    good = density_cluster(pts, 15, 15)
    merged = np.zeros(len(pts), dtype=np.int64)
    assert density_validity_index(pts, good) > density_validity_index(pts, merged)


def test_validity_all_noise_is_worst():
    pts = two_blob_fixture(6)
    assert density_validity_index(pts, np.full(len(pts), -1)) == -1.0


def test_cluster_model_assignment():
    pts = two_blob_fixture(7)
    model = fit_cluster_model(pts, 15, 15)
    assert model.n_clusters == 2
    assert len(model.exemplars) > 0
    # Points near each blob center map to that blob's cluster.
    near_first = model.assign(np.array([[0.1, -0.1]]))[0]
    near_second = model.assign(np.array([[5.1, 4.9]]))[0]
    assert near_first != near_second


def test_assign_measures_far_points_without_overflow():
    model = ClusterModel(min_cluster_size=2, min_samples=1,
                         labels=np.zeros(0, dtype=np.int64),
                         exemplars=np.array([[0.0, 0.0], [1e10, 0.0]]),
                         exemplar_labels=np.array([0, 1]), n_clusters=2)
    # squaring 1e200 overflows, and 1e200 - 1e10 rounds to 1e200; the far
    # rows are ranked without either, the near rows as before. The norm of
    # (1.5e308, 1.5e308) overflows too.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = model.assign(np.array([[1e200, 0.0], [1e11, 0.0],
                                        [1.0, 0.0], [-1e200, 1e200],
                                        [1e200, -1e200], [1.5e308, 1.5e308],
                                        [-1.5e308, 1.5e308]]))
    assert labels.tolist() == [1, 1, 0, 0, 1, 1, 0]


def test_min_cluster_size_validated():
    with pytest.raises(ContractViolationError):
        density_cluster(np.zeros((10, 2)), 1, 5)


def _golden_scatters():
    """24 seeded scatters with clumps, rounding ties, duplicates and noise."""
    rng = np.random.default_rng(2024)
    for trial in range(24):
        k = 1 + trial % 4
        n = int(rng.integers(12, 110))
        if trial % 6 == 5:
            pts = rng.uniform(0.0, 10.0, size=(n, 2))
        else:
            centers = rng.uniform(0.0, 10.0, size=(k, 2))
            pts = (centers[rng.integers(0, k, size=n)]
                   + rng.normal(0.0, 0.4, size=(n, 2)))
        if trial % 3 == 1:
            pts = np.round(pts, 1)
        if trial % 5 == 2:
            pts = np.vstack([pts, pts[: n // 4]])
        yield trial, pts


def test_golden_clustering_digest():
    """Fitted models and discovered parameters are pinned bit for bit."""
    doc = []
    for trial, pts in _golden_scatters():
        for mcs in (2, 5, 10, 15):
            for ms in (1, 5, 10):
                doc.append({"trial": trial, "mcs": mcs, "ms": ms,
                            "model": fit_cluster_model(pts, mcs, ms).to_dict()})
        try:
            found = list(autodiscover_cluster_params(pts, (5, 10, 15)))
        except NoStructureError:
            found = None
        doc.append({"trial": trial, "discovered": found})
    assert len(doc) == 312
    assert sum(1 for e in doc if e.get("discovered")) == 16
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == (
        "e1ede6433878d30a7d3538d4c75b1c1d89ed4c26ada0ffabc5e09f921de028ce")
