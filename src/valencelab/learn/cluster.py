"""Density clustering of location coordinates, with parameter autodiscovery.

The pipeline is the classic hierarchical density one: core distances from
k-nearest neighbors, mutual-reachability transform, minimum spanning tree,
single-linkage dendrogram, condensation at min_cluster_size, and a
stability-maximizing cluster extraction. Partitions are scored with a
density-based relative validity index so the best (min_cluster_size,
min_samples) pair can be picked automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ContractViolationError, NoStructureError
from ..lazy import lazy_import

np = lazy_import("numpy")

# A candidate partition counts as usable structure only above this validity.
# Near-zero scores are what uniformly scattered points produce.
VALIDITY_FLOOR = 0.05

# Single-cluster partitions are scored by quadrat-count dispersion against
# the uniform null at the 1% point of the chi-square count statistic.
QUADRAT_ALPHA_Z = 2.326

MCS_LADDER = (10, 15, 20, 25)
EXEMPLARS_PER_CLUSTER = 5

_EPS = 1e-12


def _pairwise(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def _mst_edges(weights: np.ndarray):
    """Prim's algorithm on a dense weight matrix; returns (u, v, w) edges."""
    n = weights.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = weights[0].copy()
    best_from = np.zeros(n, dtype=np.int64)
    edges = []
    for _ in range(n - 1):
        best_masked = np.where(in_tree, np.inf, best)
        v = int(np.argmin(best_masked))
        edges.append((int(best_from[v]), v, float(best[v])))
        in_tree[v] = True
        closer = weights[v] < best
        best[closer] = weights[v][closer]
        best_from[closer] = v
    return edges


@dataclass
class _CondensedCluster:
    birth_lambda: float
    parent: int = -1
    children: list = field(default_factory=list)
    fallouts: list = field(default_factory=list)  # (point, lambda)
    death_lambda: float = 0.0
    size: int = 0


def _single_linkage(mrd: np.ndarray):
    """Union-find merge tree over MST edges, smallest distance first.

    Returns (children, dists, sizes) where internal node n+i merges
    children[i] at distance dists[i].
    """
    n = mrd.shape[0]
    edges = sorted(_mst_edges(mrd), key=lambda e: e[2])
    parent = list(range(2 * n - 1))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    children = []
    dists = []
    sizes = list([1] * n)
    for u, v, w in edges:
        ru, rv = find(u), find(v)
        new = n + len(children)
        parent[ru] = new
        parent[rv] = new
        children.append((ru, rv))
        dists.append(w)
        sizes.append(sizes[ru] + sizes[rv])
    return children, dists, sizes


def _leaf_points(node: int, n: int, children) -> list:
    out = []
    stack = [node]
    while stack:
        x = stack.pop()
        if x < n:
            out.append(x)
        else:
            a, b = children[x - n]
            stack.append(a)
            stack.append(b)
    return out


def _condense(n: int, children, dists, sizes, min_cluster_size: int):
    """Collapse the dendrogram into clusters of at least min_cluster_size.

    Returns the clusters as a list indexed by id; every child has a larger
    id than its parent.
    """
    root_node = n + len(children) - 1
    clusters = [_CondensedCluster(birth_lambda=0.0)]
    # (dendrogram node, condensed cluster id)
    stack = [(root_node, 0)]
    while stack:
        node, cid = stack.pop()
        cl = clusters[cid]
        a, b = children[node - n]
        lam = 1.0 / max(dists[node - n], _EPS)
        big_a = sizes[a] >= min_cluster_size
        big_b = sizes[b] >= min_cluster_size
        if big_a and big_b:
            cl.death_lambda = lam
            for child in (a, b):
                cl.children.append(len(clusters))
                stack.append((child, len(clusters)))
                clusters.append(_CondensedCluster(birth_lambda=lam, parent=cid))
        else:
            for child, big in ((a, big_a), (b, big_b)):
                if big:
                    stack.append((child, cid))
                else:
                    for p in _leaf_points(child, n, children):
                        cl.fallouts.append((p, lam))
    # Children first: each cluster's size is complete before it is added to
    # its parent's. A cluster that never truly split dies when its last
    # point falls out.
    for cl in reversed(clusters):
        cl.size += len(cl.fallouts)
        if not cl.children:
            cl.death_lambda = max((lam for _, lam in cl.fallouts),
                                  default=cl.birth_lambda)
        if cl.parent != -1:
            clusters[cl.parent].size += cl.size
    return clusters


def _label_points(n: int, clusters):
    """Excess-of-mass selection (the root is an eligible candidate), then
    each point goes to the selected ancestor of its fallout cluster.

    Membership additionally requires the point to persist strictly past the
    cluster's birth density; stragglers that detach right at (or before) the
    split that created the cluster stay noise.
    """
    # Children first: a cluster is kept when its stability is at least the
    # summed score of its children.
    keep = [False] * len(clusters)
    score = [0.0] * len(clusters)
    for cid in range(len(clusters) - 1, -1, -1):
        cl = clusters[cid]
        stability = sum(min(lam, cl.death_lambda) - cl.birth_lambda
                        for _, lam in cl.fallouts)
        if cl.children:
            passed = cl.size - len(cl.fallouts)
            stability += passed * (cl.death_lambda - cl.birth_lambda)
        child_sum = sum(score[k] for k in cl.children)
        keep[cid] = not cl.children or stability >= child_sum
        score[cid] = stability if keep[cid] else child_sum
    # Parents first: a kept cluster is selected unless an ancestor already
    # is; every other cluster's points go to its parent's owner. Selected
    # ids come up in sorted order and are numbered as they do.
    owner = [-1] * len(clusters)
    compact = {}
    labels = np.full(n, -1, dtype=np.int64)
    lambdas = np.zeros(n, dtype=np.float64)
    for cid, cl in enumerate(clusters):
        sel = owner[cl.parent] if cid else -1
        if sel == -1 and keep[cid]:
            sel = cid
            compact[cid] = len(compact)
        owner[cid] = sel
        for p, lam in cl.fallouts:
            lambdas[p] = lam
            if sel != -1 and lam > clusters[sel].birth_lambda:
                labels[p] = compact[sel]
    return labels, lambdas


def _cluster_full(points, min_cluster_size, min_samples):
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if min_cluster_size < 2:
        raise ContractViolationError("min_cluster_size must be at least 2")
    if min_samples < 1:
        raise ContractViolationError("min_samples must be at least 1")
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    if n < min_samples or n < min_cluster_size:
        return np.full(n, -1, dtype=np.int64), np.zeros(n)
    dist = _pairwise(points)
    if dist.max() <= 0.0:
        return np.zeros(n, dtype=np.int64), np.full(n, 1.0 / _EPS)
    core = np.partition(dist, min_samples - 1, axis=1)[:, min_samples - 1]
    mrd = np.maximum(dist, np.maximum(core[:, None], core[None, :]))
    np.fill_diagonal(mrd, 0.0)
    children, dists, sizes = _single_linkage(mrd)
    return _label_points(
        n, _condense(n, children, dists, sizes, min_cluster_size))


def density_cluster(points, min_cluster_size: int, min_samples: int):
    """Cluster 2-D coordinates; label −1 marks low-density noise."""
    labels, _ = _cluster_full(points, min_cluster_size, min_samples)
    return labels


# -- validity scoring --------------------------------------------------------


def quadrat_dispersion(points: np.ndarray):
    """Index of dispersion of grid-cell counts over the bounding box.

    Uniform scatter gives variance/mean near 1 at any scale; a clump
    concentrated inside its own extent gives a much larger index. Returns
    (index, critical_index) where the critical value is the 1% point of the
    chi-square count statistic under the uniform null (Wilson-Hilferty
    approximation).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    grid = max(2, min(4, int(np.sqrt(max(n, 1) / 5.0))))
    m = grid ** 2
    lo = points.min(axis=0)
    span = np.maximum(points.max(axis=0) - lo, _EPS)
    cells = np.floor((points - lo) / span * grid).astype(np.int64)
    cells = np.clip(cells, 0, grid - 1)
    flat = cells[:, 0] * grid + cells[:, 1]
    counts = np.bincount(flat, minlength=m).astype(np.float64)
    mean = counts.mean()
    if mean <= 0:
        return 1.0, 1.0
    index = float(counts.var() / mean)
    k = m - 1
    chi2_crit = k * (1.0 - 2.0 / (9.0 * k)
                     + QUADRAT_ALPHA_Z * np.sqrt(2.0 / (9.0 * k))) ** 3
    return index, float(chi2_crit / k)


def _apts_core(points, dim):
    """All-points core distance within one cluster."""
    n = points.shape[0]
    if n < 2:
        return np.zeros(n)
    dist = np.maximum(_pairwise(points), _EPS)
    np.fill_diagonal(dist, np.inf)
    inv = (1.0 / dist) ** dim
    mean_inv = inv.sum(axis=1) / (n - 1)
    return mean_inv ** (-1.0 / dim)


def density_validity_index(points, labels) -> float:
    """Relative validity of a partition, in [-1, 1]; higher is better.

    Partitions with two or more clusters get the density-based validity
    score (sparseness vs separation under mutual reachability). A lone
    cluster cannot be scored by separation, so it is scored by aggregation
    strength against the uniform null instead.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    cluster_ids = np.unique(labels[labels >= 0])
    n_total = len(labels)
    if n_total == 0 or cluster_ids.size == 0:
        return -1.0
    if cluster_ids.size == 1:
        members = points[labels == cluster_ids[0]]
        index, crit = quadrat_dispersion(members)
        score = (index - crit) / (3.0 * crit)
        # separation is unobservable with one cluster: cap at half scale
        # so a merged partition never outranks a truly separated one
        return float(np.clip(score, -1.0, 0.5))

    dim = points.shape[1]
    member_idx = {c: np.where(labels == c)[0] for c in cluster_ids}
    cores = np.zeros(n_total)
    sparseness = {}
    for c, idx in member_idx.items():
        pts = points[idx]
        apts = _apts_core(pts, dim)
        cores[idx] = apts
        if len(idx) < 2:
            sparseness[c] = 0.0
            continue
        d = _pairwise(pts)
        mrd = np.maximum(d, np.maximum(apts[:, None], apts[None, :]))
        np.fill_diagonal(mrd, 0.0)
        edges = _mst_edges(mrd)
        sparseness[c] = max(w for _, _, w in edges)

    full_d = _pairwise(points)
    validity = 0.0
    for c in cluster_ids:
        idx_c = member_idx[c]
        sep = np.inf
        for o in cluster_ids:
            if o == c:
                continue
            idx_o = member_idx[o]
            block = full_d[np.ix_(idx_c, idx_o)]
            mrd_block = np.maximum(
                block, np.maximum(cores[idx_c][:, None], cores[idx_o][None, :]))
            sep = min(sep, float(mrd_block.min()))
        dsc = sparseness[c]
        denom = max(sep, dsc)
        v = 0.0 if denom <= 0 else (sep - dsc) / denom
        validity += (len(idx_c) / n_total) * v
    return float(validity)


def autodiscover_cluster_params(points, min_samples_grid):
    """Scan (min_samples, min_cluster_size) pairs, return the best-scoring.

    Ties break toward smaller min_cluster_size, then smaller min_samples.
    Raises NoStructureError when no candidate partition shows usable
    structure.
    """
    grid = list(min_samples_grid)
    if not grid:
        raise ContractViolationError("min_samples grid is empty")
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    mcs_candidates = [c for c in MCS_LADDER if c <= max(2, n // 2)]
    if not mcs_candidates:
        mcs_candidates = [max(2, n // 2)]
    best = None
    for ms in sorted(grid):
        for mcs in mcs_candidates:
            labels = density_cluster(points, mcs, ms)
            if (labels >= 0).sum() == 0:
                continue
            score = density_validity_index(points, labels)
            if score <= VALIDITY_FLOOR:
                continue
            key = (-score, mcs, ms)
            if best is None or key < best[0]:
                best = (key, mcs, ms)
    if best is None:
        raise NoStructureError(
            "no parameter choice produced clusters with usable structure")
    return best[1], best[2]


# -- fitted model -------------------------------------------------------------


# every finite double is a whole multiple of 2**-1074
_EXACT_SCALE = 2 ** 1074


def _exact(v: float) -> int:
    """v * 2**1074 as an integer, without rounding."""
    num, den = float(v).as_integer_ratio()
    return num * (_EXACT_SCALE // den)


def _exact_nearest(point, exemplars, exemplar_labels):
    """The label of the exemplar at the least exact squared distance from
    a finite point, the first of equals."""
    p = [_exact(v) for v in point]
    d = [sum((a - _exact(b)) ** 2 for a, b in zip(p, e)) for e in exemplars]
    return exemplar_labels[d.index(min(d))]


def nearest_exemplar(x: float, y: float, exemplars,
                     exemplar_labels) -> int:
    """`ClusterModel.assign` of the one finite point (x, y), in plain
    Python: the label of the nearest exemplar, the first of equals, -1
    without exemplars.

    Each distance is rounded in the order `assign` rounds it, so the two
    agree bit for bit; a point `assign` finds too far to square is ranked
    by exact squared distance in both."""
    d = []
    for ex, ey in exemplars:
        dx, dy = x - ex, y - ey
        d.append(math.sqrt(dx * dx + dy * dy))
    if not d:
        return -1
    if math.inf in d:
        return int(_exact_nearest((x, y), exemplars, exemplar_labels))
    return int(exemplar_labels[d.index(min(d))])


@dataclass
class ClusterModel:
    """Fitted partition plus exemplars for assigning unseen coordinates."""

    min_cluster_size: int
    min_samples: int
    labels: np.ndarray
    exemplars: np.ndarray          # stacked exemplar coordinates
    exemplar_labels: np.ndarray    # cluster id per exemplar row
    n_clusters: int

    def assign(self, points) -> np.ndarray:
        """Nearest-exemplar cluster id for each row of points."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[None, :]
        if self.exemplars.size == 0:
            return np.full(points.shape[0], -1, dtype=np.int64)
        with np.errstate(over="ignore"):
            d = np.sqrt(((points[:, None, :] - self.exemplars[None, :, :])
                         ** 2).sum(axis=2))
        labels = self.exemplar_labels[d.argmin(axis=1)]
        # Past about 1e154 a square overflows to inf, and the differences
        # round exemplars together: such a row is ranked exactly
        far = np.isinf(d).any(axis=1) & np.isfinite(points).all(axis=1)
        for i in np.flatnonzero(far):
            labels[i] = _exact_nearest(points[i], self.exemplars,
                                       self.exemplar_labels)
        return labels

    def to_dict(self) -> dict:
        return {
            "min_cluster_size": int(self.min_cluster_size),
            "min_samples": int(self.min_samples),
            "labels": [int(v) for v in self.labels],
            "exemplars": [[float(x) for x in row] for row in self.exemplars],
            "exemplar_labels": [int(v) for v in self.exemplar_labels],
            "n_clusters": int(self.n_clusters),
        }


def fit_cluster_model(points, min_cluster_size: int,
                      min_samples: int) -> ClusterModel:
    """Run the clustering and keep the densest members as exemplars."""
    points = np.asarray(points, dtype=np.float64)
    labels, lambdas = _cluster_full(points, min_cluster_size, min_samples)
    cluster_ids = np.unique(labels[labels >= 0])
    ex_rows = []
    ex_labels = []
    for c in cluster_ids:
        idx = np.where(labels == c)[0]
        order = sorted(idx, key=lambda i: (-lambdas[i], i))
        for i in order[:EXEMPLARS_PER_CLUSTER]:
            ex_rows.append(points[i])
            ex_labels.append(int(c))
    exemplars = (np.array(ex_rows, dtype=np.float64)
                 if ex_rows else np.empty((0, points.shape[1])))
    return ClusterModel(
        min_cluster_size=min_cluster_size,
        min_samples=min_samples,
        labels=labels,
        exemplars=exemplars,
        exemplar_labels=np.array(ex_labels, dtype=np.int64),
        n_clusters=int(cluster_ids.size),
    )
