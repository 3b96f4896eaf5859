"""Multiclass gradient boosting with second-order leaf weights.

One regression tree per class per round, fit to softmax gradients. Splits
are exact greedy over quantized feature values; depth-limited; no histogram
approximation beyond the quantization itself.

`GradientBoostedTrees.fit_folds` fits several models in lockstep (the
folds of every hyperparameter set of a tuner batch): the rows of all folds
are concatenated, and every tree of a round, over folds and classes, grows
level by level with one histogram per level. Each model keeps its own
settings, applied elementwise. Each cell of a histogram sums its rows in
ascending row order, and each leaf sums its rows with numpy's own `sum`,
so every model equals a fit on its fold alone, bit for bit. `fit` is the
one-fold case.
"""

from __future__ import annotations

from ..errors import ContractViolationError
from ..lazy import lazy_import
from .linear import softmax

np = lazy_import("numpy")

MAX_BINS = 256
ROUTE_CELLS = 1 << 11   # (tree, row) pairs routed per block in predict


def leaf_weight(G, H, lam):
    """Second-order optimal leaf value for summed gradient G, hessian H."""
    return -G / (H + lam)


class _Forest:
    """All trees of one model as flat node arrays.

    Tree t = round * n_classes + class owns nodes start[t]:start[t + 1],
    in growth order, so a split node's right child is the next node and
    `left` holds the index of its left child. feature == -1 marks a leaf.
    """

    def __init__(self, feature, split_bin, left, value, sizes,
                 n_classes: int):
        """Trees of sizes[t] nodes each, in order; `left` holds each split
        node's left child id local to its tree."""
        self.start = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        self.feature = feature
        self.split_bin = split_bin
        self.left = np.where(feature >= 0,
                             left + np.repeat(self.start[:-1], sizes), -1)
        self.value = value
        self.n_classes = n_classes

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
        """Each value's bin: the last bin value at or below it, else bin 0.
        searchsorted returns at most uniq.size (NaN included), so after the
        shift only the lower clamp can bind, and one clamp serves all
        features."""
        Xb = np.empty(X.shape, dtype=np.int64)
        for f, uniq in enumerate(self.bin_values_):
            Xb[:, f] = uniq.searchsorted(X[:, f], side="right")
        Xb -= 1
        np.maximum(Xb, 0, out=Xb)
        return Xb

    # -- boosting ----------------------------------------------------------

    def fit(self, X, y, n_classes: int):
        self.fit_folds([self], [X], [y], n_classes)
        return self

    @classmethod
    def fit_folds(cls, models, Xs, ys, n_classes: int):
        """Fit models[i] on (Xs[i], ys[i]) for every i, in lockstep.

        Models may differ in any setting. Every fold's histograms hold the
        largest bin count of any fold; the bins above a fold's own count
        hold none of its rows, so no split there is ever taken.
        """
        members = []
        for model, X, y in zip(models, Xs, ys):
            X = np.asarray(X, dtype=np.float64)
            if X.shape[0] == 0:
                raise ContractViolationError("empty training set")
            model._fit_bins(X)
            members.append(
                (model, model._bin(X), np.asarray(y, dtype=np.int64)))
        n_bins = max(2, max(u.size for m in models for u in m.bin_values_))
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

    def importance_shares(self) -> np.ndarray:
        total = self.gain_sums_.sum()
        if total <= 0:
            return np.zeros_like(self.gain_sums_)
        return self.gain_sums_ / total


class _Lockstep:
    """One boosting pass over the concatenated rows of several folds.

    Every model keeps its own settings, applied elementwise: a node splits
    only while it is shallower than its model's max_depth, and each
    histogram slot and leaf reads its model's leaf_l2, min_child_hessian
    and learning_rate. Models are ordered by n_rounds, most first, so the
    models still boosting are a leading slice, and a finished model leaves
    the pass with its rows.

    An entry is one (class, row) pair, numbered class-major, so the entries
    of every tree stay in ascending row order through each partition.
    Trees are numbered fold-major: tree t = fold * n_classes + class. Rows
    left out by subsampling still follow every split, so each round's leaf
    partition updates all margins directly.
    """

    def __init__(self, members, n_classes: int, n_bins: int):
        members = sorted(members, key=lambda m: -m[0].n_rounds)
        self.models = [m for m, _, _ in members]
        self.sizes = np.array([len(y) for _, _, y in members])
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.Xb = np.concatenate([Xb for _, Xb, _ in members])
        self.y = np.concatenate([y for _, _, y in members])
        self.K = n_classes
        self.B = n_bins
        self.F = self.Xb.shape[1]
        self.rounds = np.array([m.n_rounds for m in self.models])

        def per_tree(name):
            return np.repeat([getattr(m, name) for m in self.models],
                             n_classes)
        self.depth = per_tree("max_depth")
        self.lr = per_tree("learning_rate")
        self.lam = per_tree("leaf_l2")
        self.min_h = per_tree("min_child_hessian")
        self._boosting(len(self.models))

    def _boosting(self, n_models: int):
        """Per-entry arrays for the rows of the first n_models models."""
        self.n_models = n_models
        self.N = N = int(self.offsets[n_models])
        fold_of_row = np.repeat(np.arange(n_models), self.sizes[:n_models])
        self.entries = np.arange(self.K * N)
        row = self.entries % N
        self.tree_of_entry = fold_of_row[row] * self.K + self.entries // N
        self.entry_bins = self.Xb[row]
        # bin codes shifted so feature f owns histogram cells f*B .. f*B+B-1
        self.entry_codes = self.entry_bins + np.arange(self.F) * self.B

    def run(self):
        K, n_rows = self.K, self.N
        rngs = [np.random.default_rng(m.seed) for m in self.models]
        m_sub = [max(1, int(round(m.subsample * n)))
                 for m, n in zip(self.models, self.sizes)]
        onehot = np.zeros((n_rows, K), dtype=np.float64)
        onehot[np.arange(n_rows), self.y] = 1.0
        margins = np.zeros((n_rows, K), dtype=np.float64)
        probs = softmax(margins)
        curves = [[loss] for loss in self._losses(probs)]
        gains = np.zeros((len(self.models), self.F), dtype=np.float64)
        sampled = np.ones(n_rows, dtype=bool)
        empty = (np.empty((3, 0), dtype=np.int64), np.empty(0),
                 np.empty(0, dtype=np.int64))
        nodes = [[empty] for _ in self.models]  # per model, per round
        for r in range(self.rounds[0]):
            n_models = int((self.rounds > r).sum())
            if n_models < self.n_models:
                self._boosting(n_models)
            N = self.N
            probs = probs[:N]
            g = probs - onehot[:N]
            h = probs * (1.0 - probs)
            for rng, m, n, off in zip(rngs[:n_models], m_sub, self.sizes,
                                      self.offsets):
                if m < n:
                    sampled[off:off + n] = False
                    sampled[off + rng.choice(n, size=m, replace=False)] = True
            gh = np.stack([g.T.ravel(), h.T.ravel()])      # per entry
            leaf_values, (links, values, bounds) = self._grow(
                gh, np.tile(sampled[:N], K), gains)
            margins[:N] += leaf_values.reshape(K, N).T
            probs = softmax(margins[:N])
            for curve, loss in zip(curves, self._losses(probs)):
                curve.append(loss)
            # trees are fold-major: model j's are trees j*K .. (j+1)*K - 1
            for j in range(n_models):
                a, b = bounds[j * K], bounds[(j + 1) * K]
                nodes[j].append((links[:, a:b], values[a:b],
                                 np.diff(bounds[j * K:(j + 1) * K + 1])))
        for j, model in enumerate(self.models):
            links, values, sizes = (np.concatenate(part, axis=-1)
                                    for part in zip(*nodes[j]))
            model.forest_ = _Forest(*links, values, sizes, K)
            model.gain_sums_ = gains[j].copy()
            model.loss_curve_ = curves[j]

    def _losses(self, probs):
        """Each boosting model's mean log loss."""
        logp = np.log(probs[np.arange(self.N), self.y[:self.N]] + 1e-12)
        bounds = self.offsets[:self.n_models + 1]
        return [float(-logp[a:b].mean())
                for a, b in zip(bounds[:-1], bounds[1:])]

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
        n_nodes = self.n_models * self.K
        node_tree = np.arange(n_nodes)      # the tree of each node
        leaf_of_entry = np.full(self.entries.size, -1, dtype=np.int64)
        leaf_trees = []
        n_leaves = 0
        levels = []
        for depth in range(int(self.depth[:n_nodes].max()) + 1):
            sampled_node = np.where(sampled, node, n_nodes)
            counts = np.bincount(sampled_node, minlength=n_nodes + 1)
            feat = np.full(n_nodes + 1, -1, dtype=np.int64)
            split_bin = np.full(n_nodes + 1, -1, dtype=np.int64)
            gain = np.zeros(n_nodes + 1, dtype=np.float64)
            cand = np.flatnonzero((counts[:-1] >= 2)
                                  & (self.depth[node_tree] > depth))
            if cand.size:
                self._best_splits(weights, sampled_node, counts, cand,
                                  node_tree[cand], feat, split_bin, gain)
            split = feat >= 0
            leaf = ~split
            leaf[n_nodes] = False
            leaf_id = np.where(leaf, n_leaves + np.cumsum(leaf) - 1, -1)
            n_leaves += int(leaf.sum())
            leaf_trees.append(node_tree[leaf[:-1]])
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
            node_tree = np.repeat(node_tree[split[:-1]], 2)
            n_nodes = 2 * n_split
        values = self._leaf_values(gh, sampled, leaf_of_entry,
                                   np.concatenate(leaf_trees))
        return values[leaf_of_entry], self._replay(levels, values, gains)

    def _best_splits(self, weights, sampled_node, counts, cand, cand_tree,
                     feat, split_bin, gain):
        """Best split of each candidate node (cand, of trees cand_tree),
        from one histogram over all of them. Fills feat, split_bin and gain
        in place where a split helps."""
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
        # cell b now sums bins 0..b; the last cell is not read. One add per
        # bin over every slot adds in np.cumsum's order, and costs far less
        # than np.cumsum's loop over rows when bins are few.
        for b in range(1, B - 1):
            for hist in (gs, hs, cs):
                hist[:, :, b] += hist[:, :, b - 1]
        GL, HL, CL = gs[:, :, :-1], hs[:, :, :-1], cs[:, :, :-1]
        GR = G_tot[:, None, None] - GL
        HR = H_tot[:, None, None] - HL

        def per_slot(setting):
            """Each slot's model setting; spare slots hold no rows."""
            out = np.zeros((n_slots, 1, 1), dtype=np.float64)
            out[:cand.size, 0, 0] = setting[cand_tree]
            return out

        lam = per_slot(self.lam)
        min_h = per_slot(self.min_h)
        # empty or zero-hessian prefixes divide by zero at lam = 0; every
        # such lane is masked below, so silence just those warnings.
        # float_power squares the parent total with libm pow, as a numpy
        # scalar's ** does, where an array's ** 2 would multiply.
        with np.errstate(divide="ignore", invalid="ignore"):
            parent = np.float_power(G_tot, 2) / (H_tot + lam[:, 0, 0])
            score = GL ** 2 / (HL + lam)
            score += GR ** 2 / (HR + lam)
            score -= parent[:, None, None]
            score *= 0.5
        rows = np.zeros(n_slots, dtype=np.int64)     # sampled rows per slot
        rows[:cand.size] = counts[cand]
        ok = ((CL >= 1) & (CL < rows[:, None, None])
              & (HL >= min_h) & (HR >= min_h) & np.isfinite(score))
        score[~ok] = -np.inf
        score = score.reshape(n_slots, -1)[:cand.size]
        flat = score.argmax(axis=1)
        best = score[np.arange(cand.size), flat]
        good = np.isfinite(best) & (best > 1e-12)
        feat[cand[good]] = flat[good] // (B - 1)
        split_bin[cand[good]] = flat[good] % (B - 1)
        gain[cand[good]] = best[good]

    def _leaf_values(self, gh, sampled, leaf_of_entry, leaf_tree):
        """Each leaf's weight from its sampled entries' gradient sums, with
        the settings of its tree's model.

        Leaves of one size are summed as the rows of one matrix, which numpy
        adds exactly as it adds each leaf's own vector.
        """
        ents = np.flatnonzero(sampled)
        leaf = leaf_of_entry[ents]
        # grouped by leaf, ascending inside each: sort the unique keys
        ents = np.sort(leaf * sampled.size + ents) % sampled.size
        sizes = np.bincount(leaf, minlength=leaf_tree.size)
        starts = np.cumsum(sizes) - sizes
        sums = np.zeros((2, leaf_tree.size), dtype=np.float64)
        for size in np.unique(sizes):
            which = np.flatnonzero(sizes == size)
            take = ents[starts[which][:, None] + np.arange(size)]
            # np.take lays each leaf's values out contiguously, as the sum
            # must see them; gh[:, take] would interleave g and h
            sums[:, which] = np.take(gh, take, axis=1).sum(axis=2)
        return self.lr[leaf_tree] * leaf_weight(sums[0], sums[1],
                                                self.lam[leaf_tree])

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
