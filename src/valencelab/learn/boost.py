"""Multiclass gradient boosting with second-order leaf weights.

One regression tree per class per round, fit to softmax gradients. Splits
are exact greedy over quantized feature values; depth-limited; no histogram
approximation beyond the quantization itself.

`GradientBoostedTrees.fit_folds` fits several models that share their
settings (the folds of one cross-validation pass) in lockstep: the rows of
all folds are concatenated, and every tree of a round, over folds and
classes, grows level by level with one histogram per level. Each cell of a
histogram sums its rows in ascending row order, and each leaf sums its rows
with numpy's own `sum`, so every model equals a fit on its fold alone,
bit for bit. `fit` is the one-fold case.
"""

from __future__ import annotations

import mmap

import numpy as np

from ..errors import ContractViolationError
from .linear import softmax

MAX_BINS = 256
ROUTE_CELLS = 1 << 11   # (tree, row) pairs routed per block in predict
NODE_ROOM = 1 << 22     # most nodes a fold's first node buffer is sized for


def leaf_weight(G, H, lam):
    """Second-order optimal leaf value for summed gradient G, hessian H."""
    return -G / (H + lam)


def split_gain(GL, HL, GR, HR, lam):
    """Loss reduction of a split, before any learning-rate shrinkage."""
    def half_sq(G, H):
        return G * G / (H + lam)
    return 0.5 * (half_sq(GL, HL) + half_sq(GR, HR) - half_sq(GL + GR, HL + HR))


def _mapped(shape, dtype) -> np.ndarray:
    """A zeroed array in its own anonymous memory mapping. Pages are
    committed only when written, and all of them return to the system
    when the last view of the array goes."""
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def _copied(head: np.ndarray, shape) -> np.ndarray:
    """A larger mapped array that starts with a copy of head."""
    out = _mapped(shape, head.dtype)
    out[..., :head.shape[-1]] = head
    return out


class _Forest:
    """All trees of one model as flat node arrays.

    Tree t = round * n_classes + class owns nodes start[t]:start[t + 1],
    in growth order, so a split node's right child is the next node and
    `left` holds the index of its left child. feature == -1 marks a leaf.
    """

    def __init__(self, feature, split_bin, left, value, start,
                 n_classes: int):
        self.feature = feature
        self.split_bin = split_bin
        self.left = left
        self.value = value
        self.start = start
        self.n_classes = n_classes

    @classmethod
    def from_trees(cls, trees: list, n_classes: int) -> "_Forest":
        flat = [t for rnd in trees for t in rnd]
        start = np.cumsum([0] + [len(t["feature"]) for t in flat])
        local = np.arange(start[-1]) - np.repeat(start[:-1], np.diff(start))

        def column(name, dtype=np.int64):
            return np.array([v for t in flat for v in t[name]], dtype=dtype)

        feature = column("feature")
        inner = feature >= 0
        if np.any(column("right")[inner] != local[inner] + 1):
            raise ContractViolationError("tree nodes are not in growth order")
        left = column("left")
        return cls(feature, column("split_bin"),
                   np.where(inner, left - local + np.arange(left.size), -1),
                   column("value", np.float64), start, n_classes)

    def to_trees(self) -> list:
        trees = []
        for a, b in zip(self.start[:-1], self.start[1:]):
            inner = self.feature[a:b] >= 0
            trees.append({
                "feature": self.feature[a:b].tolist(),
                "split_bin": self.split_bin[a:b].tolist(),
                "left": np.where(inner, self.left[a:b] - a, -1).tolist(),
                "right": np.where(inner, np.arange(1, b - a + 1), -1).tolist(),
                "value": self.value[a:b].tolist(),
            })
        K = self.n_classes
        return [trees[r:r + K] for r in range(0, len(trees), K)]

    def margins(self, Xb: np.ndarray) -> np.ndarray:
        """Summed leaf values per row and class, rounds added in order.

        Rows go through a block of rounds' trees at once; the block size
        bounds the (trees, rows) work arrays near ROUTE_CELLS entries.
        """
        K, n = self.n_classes, Xb.shape[0]
        rows = np.arange(n)
        block = K * max(1, ROUTE_CELLS // max(1, K * n))
        roots = self.start[:-1]
        total = np.zeros((1, K, n))
        for first in range(0, roots.size, block):
            node = np.repeat(roots[first:first + block, None], n, axis=1)
            while True:
                feature = self.feature[node]
                inner = feature >= 0
                if not inner.any():
                    break
                # a leaf reads column -1 here; its node stays put below
                go_left = Xb[rows, feature] <= self.split_bin[node]
                node = np.where(inner, np.where(go_left, self.left[node],
                                                node + 1), node)
            values = self.value[node].reshape(len(node) // K, K, n)
            # reducing axis 0 adds the rounds one at a time, in order
            total = np.add.reduce(np.concatenate([total, values]), axis=0,
                                  keepdims=True)
        return total[0].T


class GradientBoostedTrees:
    def __init__(self, n_rounds: int = 80, max_depth: int = 3,
                 learning_rate: float = 0.3, subsample: float = 1.0,
                 leaf_l2: float = 1.0, min_child_hessian: float = 1e-3,
                 seed: int = 0):
        self.n_rounds = int(n_rounds)
        self.max_depth = int(max_depth)
        self.learning_rate = float(learning_rate)
        self.subsample = float(subsample)
        self.leaf_l2 = float(leaf_l2)
        self.min_child_hessian = float(min_child_hessian)
        self.seed = int(seed)
        self.forest_ = None
        self.bin_values_ = []       # per feature, sorted training values
        self.gain_sums_ = None
        self.loss_curve_ = []       # length n_rounds + 1, entry 0 pre-training
        self.n_classes_ = 0

    def _settings(self) -> tuple:
        return (self.n_rounds, self.max_depth, self.learning_rate,
                self.subsample, self.leaf_l2, self.min_child_hessian)

    # -- binning -----------------------------------------------------------

    def _fit_bins(self, X: np.ndarray):
        self.bin_values_ = []
        for f in range(X.shape[1]):
            uniq = np.unique(X[:, f])
            if uniq.size > MAX_BINS:
                qs = np.quantile(X[:, f], np.linspace(0, 1, MAX_BINS))
                uniq = np.unique(qs)
            self.bin_values_.append(uniq)

    def _bin(self, X: np.ndarray) -> np.ndarray:
        Xb = np.empty(X.shape, dtype=np.int64)
        for f, uniq in enumerate(self.bin_values_):
            codes = np.searchsorted(uniq, X[:, f], side="right") - 1
            Xb[:, f] = np.clip(codes, 0, uniq.size - 1)
        return Xb

    # -- boosting ----------------------------------------------------------

    def fit(self, X, y, n_classes: int):
        self.fit_folds([self], [X], [y], n_classes)
        return self

    @classmethod
    def fit_folds(cls, models, Xs, ys, n_classes: int):
        """Fit models[i] on (Xs[i], ys[i]) for every i, in lockstep.

        The models must share every setting but the seed. Folds whose
        features bin to the same count share one lockstep pass.
        """
        if len({m._settings() for m in models}) > 1:
            raise ContractViolationError("lockstep models differ in settings")
        passes = {}
        for model, X, y in zip(models, Xs, ys):
            X = np.asarray(X, dtype=np.float64)
            if X.shape[0] == 0:
                raise ContractViolationError("empty training set")
            model._fit_bins(X)
            n_bins = max(2, max(u.size for u in model.bin_values_))
            passes.setdefault(n_bins, []).append(
                (model, model._bin(X), np.asarray(y, dtype=np.int64)))
        for n_bins, members in passes.items():
            _Lockstep(members, n_classes, n_bins).run()
        return models

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        return softmax(self.forest_.margins(self._bin(X)))

    def predict(self, X):
        return self.predict_proba(X).argmax(axis=1)

    def to_payload(self) -> dict:
        return {
            "trees": self.forest_.to_trees(),
            "bin_values": [u.tolist() for u in self.bin_values_],
            "gain_sums": self.gain_sums_.tolist(),
        }

    def load_payload(self, payload: dict, n_classes: int):
        self.forest_ = _Forest.from_trees(payload["trees"], n_classes)
        self.bin_values_ = [np.array(u, dtype=np.float64)
                            for u in payload["bin_values"]]
        self.gain_sums_ = np.array(payload["gain_sums"], dtype=np.float64)
        self.n_classes_ = n_classes
        return self

    def importance_shares(self) -> np.ndarray:
        total = self.gain_sums_.sum()
        if total <= 0:
            return np.zeros_like(self.gain_sums_)
        return self.gain_sums_ / total


class _Lockstep:
    """One boosting pass over the concatenated rows of several folds.

    An entry is one (class, row) pair, numbered class-major, so the entries
    of every tree stay in ascending row order through each partition.
    Trees are numbered fold-major: tree t = fold * n_classes + class. Rows
    left out by subsampling still follow every split, so each round's leaf
    partition updates all margins directly.
    """

    def __init__(self, members, n_classes: int, n_bins: int):
        self.models = [m for m, _, _ in members]
        head = self.models[0]
        self.n_rounds = head.n_rounds
        self.depth = head.max_depth
        self.lr = head.learning_rate
        self.subsample = head.subsample
        self.lam = head.leaf_l2
        self.min_h = head.min_child_hessian
        self.sizes = np.array([len(y) for _, _, y in members])
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        Xb = np.concatenate([Xb for _, Xb, _ in members])
        self.y = np.concatenate([y for _, _, y in members])
        self.K = n_classes
        self.B = n_bins
        self.N, self.F = Xb.shape
        fold_of_row = np.repeat(np.arange(len(members)), self.sizes)
        self.entries = np.arange(self.K * self.N)
        row = self.entries % self.N
        self.tree_of_entry = (fold_of_row[row] * self.K
                              + self.entries // self.N)
        self.entry_bins = Xb[row]
        # bin codes shifted so feature f owns histogram cells f*B .. f*B+B-1
        self.entry_codes = self.entry_bins + np.arange(self.F) * self.B

    def run(self):
        N, K = self.N, self.K
        rngs = [np.random.default_rng(m.seed) for m in self.models]
        m_sub = [max(1, int(round(self.subsample * n))) for n in self.sizes]
        onehot = np.zeros((N, K), dtype=np.float64)
        onehot[np.arange(N), self.y] = 1.0
        margins = np.zeros((N, K), dtype=np.float64)
        probs = softmax(margins)
        curves = [[loss] for loss in self._losses(probs)]
        gains = np.zeros((len(self.models), self.F), dtype=np.float64)
        sampled = np.ones(N, dtype=bool)
        # A tree holds at most min(2^(depth+1), 2m) - 1 nodes for m sampled
        # rows. Each fold's nodes go into one mapped buffer of that bound, up
        # to NODE_ROOM, doubled when full: the k forests of a lockstep fit
        # are alive at once, and mapped buffers neither fragment the heap
        # nor keep their pages after the models go.
        room = [min(NODE_ROOM, self.n_rounds * K
                    * (min(2 ** (self.depth + 1), 2 * m) - 1)) for m in m_sub]
        links = [_mapped((3, r), np.int64) for r in room]
        values = [_mapped(r, np.float64) for r in room]
        tree_sizes = np.empty((len(self.models), self.n_rounds * K),
                              dtype=np.int64)
        filled = [0] * len(self.models)
        for r in range(self.n_rounds):
            g = probs - onehot
            h = probs * (1.0 - probs)
            for rng, m, n, off in zip(rngs, m_sub, self.sizes, self.offsets):
                if m < n:
                    sampled[off:off + n] = False
                    sampled[off + rng.choice(n, size=m, replace=False)] = True
            gh = np.stack([g.T.ravel(), h.T.ravel()])      # per entry
            leaf_values, (round_links, round_values, bounds) = self._grow(
                gh, np.tile(sampled, K), gains)
            margins += leaf_values.reshape(K, N).T
            probs = softmax(margins)
            for curve, loss in zip(curves, self._losses(probs)):
                curve.append(loss)
            for j in range(len(self.models)):
                trees = bounds[j * K:(j + 1) * K + 1]
                at = slice(filled[j], filled[j] + trees[-1] - trees[0])
                if at.stop > values[j].size:
                    size = max(at.stop, 2 * values[j].size)
                    links[j] = _copied(links[j][:, :filled[j]], (3, size))
                    values[j] = _copied(values[j][:filled[j]], size)
                links[j][:, at] = round_links[:, trees[0]:trees[-1]]
                values[j][at] = round_values[trees[0]:trees[-1]]
                tree_sizes[j, r * K:(r + 1) * K] = np.diff(trees)
                filled[j] = at.stop
        for j, model in enumerate(self.models):
            model.forest_ = self._forest(links[j][:, :filled[j]],
                                         values[j][:filled[j]], tree_sizes[j])
            model.gain_sums_ = gains[j].copy()
            model.loss_curve_ = curves[j]
            model.n_classes_ = K

    def _losses(self, probs):
        logp = np.log(probs[np.arange(self.N), self.y] + 1e-12)
        return [float(-logp[a:b].mean())
                for a, b in zip(self.offsets[:-1], self.offsets[1:])]

    def _forest(self, links, values, tree_sizes) -> _Forest:
        """One fold's forest from its nodes, trees in order."""
        start = np.concatenate([[0], np.cumsum(tree_sizes)])
        feature, split_bin, left = links
        # tree-local left child ids become indices into the fold's arrays
        owner = np.repeat(start[:-1], tree_sizes)
        left[:] = np.where(left >= 0, left + owner, -1)
        return _Forest(feature, split_bin, left, values, start, self.K)

    def _grow(self, gh, sampled, gains):
        """Grow one round's trees, all of one depth at a time.

        Every entry keeps its place in each per-entry array, so those have
        one size all round: an entry already in a leaf points at the extra
        node n_nodes, which is never split. Returns each entry's leaf value
        and the round's node table. Split gains are added to `gains` in the
        trees' depth-first order.
        """
        weights = np.repeat(gh, self.F, axis=1)     # per (entry, feature)
        node = self.tree_of_entry
        n_nodes = gains.shape[0] * self.K
        leaf_of_entry = np.full(self.entries.size, -1, dtype=np.int64)
        n_leaves = 0
        levels = []
        for depth in range(self.depth + 1):
            sampled_node = np.where(sampled, node, n_nodes)
            counts = np.bincount(sampled_node, minlength=n_nodes + 1)
            counts[n_nodes] = 0
            feat = np.full(n_nodes + 1, -1, dtype=np.int64)
            split_bin = np.full(n_nodes + 1, -1, dtype=np.int64)
            gain = np.zeros(n_nodes + 1, dtype=np.float64)
            if depth < self.depth:
                self._best_splits(weights, sampled_node, counts,
                                  feat, split_bin, gain)
            split = feat >= 0
            leaf = ~split
            leaf[n_nodes] = False
            leaf_id = np.where(leaf, n_leaves + np.cumsum(leaf) - 1, -1)
            n_leaves += int(leaf.sum())
            leaf_of_entry = np.where(leaf[node], leaf_id[node], leaf_of_entry)
            levels.append((feat[:-1], split_bin[:-1], gain[:-1], leaf_id[:-1]))
            if not split.any():
                break
            go_right = (self.entry_bins[self.entries, feat[node]]
                        > split_bin[node])
            # children of the s-th split node are 2s (left) and 2s + 1
            n_split = int(split.sum())
            node = np.where(split[node],
                            2 * (np.cumsum(split) - 1)[node] + go_right,
                            2 * n_split)
            n_nodes = 2 * n_split
        values = self._leaf_values(gh, sampled, leaf_of_entry, n_leaves)
        return values[leaf_of_entry], self._replay(levels, values, gains)

    def _best_splits(self, weights, sampled_node, counts,
                     feat, split_bin, gain):
        """Best split of every node with two or more sampled rows, from one
        histogram over all of them. Fills feat, split_bin and gain in place
        where a split helps."""
        cand = np.flatnonzero(counts >= 2)
        if cand.size == 0:
            return
        F, B = self.F, self.B
        # one histogram slot per candidate node; the rest collect every
        # other entry. Rounding the slot count up to a power of two keeps
        # the work arrays to a few sizes, which the allocator reuses.
        n_slots = 1 << cand.size.bit_length()
        slot = np.full(counts.size, cand.size, dtype=np.int64)
        slot[cand] = np.arange(cand.size)
        codes = ((slot[sampled_node] * (F * B))[:, None]
                 + self.entry_codes).ravel()
        size = n_slots * F * B
        gs = np.bincount(codes, weights=weights[0],
                         minlength=size).reshape(-1, F, B)
        hs = np.bincount(codes, weights=weights[1],
                         minlength=size).reshape(-1, F, B)
        cs = np.bincount(codes, minlength=size).reshape(-1, F, B)
        del codes
        G_tot = gs[:, 0].sum(axis=1)
        H_tot = hs[:, 0].sum(axis=1)
        for hist in (gs, hs, cs):
            np.cumsum(hist, axis=2, out=hist)   # cell b now sums bins 0..b
        GL, HL, CL = gs[:, :, :-1], hs[:, :, :-1], cs[:, :, :-1]
        GR = G_tot[:, None, None] - GL
        HR = H_tot[:, None, None] - HL
        lam = self.lam
        # empty or zero-hessian prefixes divide by zero at lam = 0; every
        # such lane is masked below, so silence just those warnings.
        # float_power squares the parent total with libm pow, as a numpy
        # scalar's ** does, where an array's ** 2 would multiply.
        with np.errstate(divide="ignore", invalid="ignore"):
            parent = np.float_power(G_tot, 2) / (H_tot + lam)
            score = GL ** 2 / (HL + lam)
            score += GR ** 2 / (HR + lam)
            score -= parent[:, None, None]
            score *= 0.5
        rows = np.zeros(n_slots, dtype=np.int64)     # sampled rows per slot
        rows[:cand.size] = counts[cand]
        ok = ((CL >= 1) & (CL < rows[:, None, None])
              & (HL >= self.min_h) & (HR >= self.min_h) & np.isfinite(score))
        score[~ok] = -np.inf
        score = score.reshape(n_slots, -1)[:cand.size]
        flat = score.argmax(axis=1)
        best = score[np.arange(cand.size), flat]
        good = np.isfinite(best) & (best > 1e-12)
        feat[cand[good]] = flat[good] // (B - 1)
        split_bin[cand[good]] = flat[good] % (B - 1)
        gain[cand[good]] = best[good]

    def _leaf_values(self, gh, sampled, leaf_of_entry, n_leaves):
        """Each leaf's weight from its sampled entries' gradient sums.

        Leaves of one size are summed as the rows of one matrix, which numpy
        adds exactly as it adds each leaf's own vector.
        """
        ents = np.flatnonzero(sampled)
        leaf = leaf_of_entry[ents]
        # grouped by leaf, ascending inside each: sort the unique keys
        ents = np.sort(leaf * sampled.size + ents) % sampled.size
        sizes = np.bincount(leaf, minlength=n_leaves)
        starts = np.cumsum(sizes) - sizes
        sums = np.zeros((2, n_leaves), dtype=np.float64)
        for size in np.unique(sizes):
            which = np.flatnonzero(sizes == size)
            take = ents[starts[which][:, None] + np.arange(size)]
            # np.take lays each leaf's values out contiguously, as the sum
            # must see them; gh[:, take] would interleave g and h
            sums[:, which] = np.take(gh, take, axis=1).sum(axis=2)
        return self.lr * leaf_weight(sums[0], sums[1], self.lam)

    def _replay(self, levels, values, gains):
        """The round's nodes, numbered as depth-first growth numbers them:
        a node, then its right subtree, then its left one.

        Returns the node links (rows feature, split_bin, and the left
        child's id local to its tree), the node values, and each tree's
        first node (trees in order, plus the end).
        """
        subtree = [None] * len(levels)
        below = None
        for d in reversed(range(len(levels))):
            split = levels[d][0] >= 0
            size = np.ones(split.size, dtype=np.int64)
            if below is not None:
                size[split] += below[0::2] + below[1::2]
            subtree[d] = below = size
        ids = [np.zeros(subtree[0].size, dtype=np.int64)]
        trees = [np.arange(subtree[0].size)]
        for d in range(len(levels) - 1):
            split = levels[d][0] >= 0
            parent = ids[d][split]
            child = np.empty(2 * parent.size, dtype=np.int64)
            child[1::2] = parent + 1
            child[0::2] = parent + 1 + subtree[d + 1][1::2]
            ids.append(child)
            trees.append(np.repeat(trees[d][split], 2))
        bounds = np.concatenate([[0], np.cumsum(subtree[0])])
        links = np.full((3, bounds[-1]), -1, dtype=np.int64)
        node_values = np.zeros(bounds[-1], dtype=np.float64)
        node_gains = np.zeros(bounds[-1], dtype=np.float64)
        for d, (feat, split_bin, gain, leaf_id) in enumerate(levels):
            pos = bounds[trees[d]] + ids[d]
            split = feat >= 0
            node_values[pos[~split]] = values[leaf_id[~split]]
            if split.any():
                links[0, pos[split]] = feat[split]
                links[1, pos[split]] = split_bin[split]
                links[2, pos[split]] = ids[d + 1][0::2]
                node_gains[pos[split]] = gain[split]
        # split gains, added in node order as growth adds them
        inner = links[0] >= 0
        fold = np.repeat(np.arange(subtree[0].size) // self.K, subtree[0])
        np.add.at(gains, (fold[inner], links[0, inner]), node_gains[inner])
        return links, node_values, bounds
