"""Random forest classifier built from scratch: greedy Gini trees on
bootstrap row resamples with random per-split feature candidates.

Each tree is five parallel arrays indexed by preorder node id; a leaf has
feature -1.  Split search scores every boundary of every candidate feature
in one array sweep per node, and prediction walks all trees and rows
together one level at a time.

All ties break deterministically: best splits keep the first candidate in
ascending feature order, and class votes go to the lowest class index.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np

from .errors import InputError
from .metrics import check_labels


def gini_impurity(label_counts):
    """1 - sum((count_k / total)^2) over classes."""
    counts = np.asarray(label_counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise InputError("gini impurity of an empty node is undefined")
    p = counts / total
    return float(1.0 - np.sum(p * p))


def plurality(votes, n_classes):
    """Most frequent class in each column of votes [n_voters, B]; ties go to
    the lowest class index."""
    votes = np.asarray(votes, dtype=np.int64)
    b = votes.shape[1]
    cells = (np.arange(b) * n_classes + votes).ravel()
    return np.bincount(cells, minlength=b * n_classes).reshape(b, n_classes).argmax(axis=1)


@dataclass
class DecisionTree:
    """Parallel node arrays in preorder.  Internal nodes send x to left when
    x[feature] <= threshold; leaves have feature, left and right -1 and carry
    label (-1 on internal nodes)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray


def _best_split(features, labels, candidates, n_classes):
    """Lowest weighted-Gini (feature, threshold) over candidate features.

    Thresholds are midpoints between consecutive distinct sorted values.
    Every boundary of every candidate is scored at once; the winner is the
    one a candidate-major scan keeping the first score that improves on the
    best by more than 1e-15 would pick.  Returns None when no candidate
    splits the node.
    """
    n = len(labels)
    cols = features[:, candidates]  # [n, k]
    order = np.argsort(cols, axis=0, kind="stable")
    sv = np.take_along_axis(cols, order, axis=0)
    # left-side class counts after each split position: [n-1, k, C]
    left = np.cumsum(labels[order][:, :, None] == np.arange(n_classes), axis=0)
    total = left[-1]
    left = left[:-1]
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    pl = left / nl[:, :, None]
    pr = (total - left) / nr[:, :, None]
    gl = 1.0 - np.sum(pl * pl, axis=2)
    gr = 1.0 - np.sum(pr * pr, axis=2)
    score = (nl * gl + nr * gr) / n
    score[sv[1:] <= sv[:-1]] = np.inf  # no boundary between equal values
    best = _first_improvement(score.T.ravel())  # candidate-major, split position minor
    if best < 0:
        return None
    f, i = divmod(best, n - 1)
    return int(candidates[f]), float((sv[i, f] + sv[i + 1, f]) / 2.0)


def _first_improvement(flat):
    """Index at which a scan of flat in order, keeping the first score that
    improves on the best so far by more than 1e-15, ends; -1 if no score is
    below inf.

    Only a strict prefix minimum, a score below every score before it, can
    pass that test: each earlier score either became the best, which only
    falls, or failed the test against a best no lower than the current one.
    So only those positions are scanned.
    """
    prior = np.minimum.accumulate(np.concatenate(([np.inf], flat))[:-1])
    at = np.flatnonzero(flat < prior)
    best, best_score = -1, np.inf
    for i, score in zip(at.tolist(), flat[at].tolist()):
        if score < best_score - 1e-15:
            best, best_score = i, score
    return best


def _grow(features, labels, n_classes, max_depth, n_candidates, rng, nodes, depth):
    """Append the subtree's node rows [feature, threshold, left, right, label]
    to nodes in preorder; returns its root id."""
    node_id = len(nodes)
    counts = np.bincount(labels, minlength=n_classes)
    nodes.append([-1, 0.0, -1, -1, int(counts.argmax())])  # a leaf unless it splits
    if depth >= max_depth or np.count_nonzero(counts) <= 1:
        return node_id
    d = features.shape[1]
    if n_candidates >= d:
        candidates = np.arange(d)
    else:
        candidates = np.sort(rng.choice(d, size=n_candidates, replace=False))
    split = _best_split(features, labels, candidates, n_classes)
    if split is None:
        return node_id
    f, thr = split
    mask = features[:, f] <= thr
    left = _grow(features[mask], labels[mask], n_classes, max_depth, n_candidates,
                 rng, nodes, depth + 1)
    right = _grow(features[~mask], labels[~mask], n_classes, max_depth, n_candidates,
                  rng, nodes, depth + 1)
    nodes[node_id] = [f, thr, left, right, -1]
    return node_id


@dataclass
class RandomForest:
    trees: list
    n_classes: int
    n_features: int

    def predict(self, features):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise InputError(
                f"expected [B, {self.n_features}] features, got shape {features.shape}"
            )
        # all trees as one node table; child ids shifted by each tree's offset
        sizes = [len(t.feature) for t in self.trees]
        roots = np.cumsum([0] + sizes[:-1])
        shift = np.repeat(roots, sizes)
        feature = np.concatenate([t.feature for t in self.trees])
        threshold = np.concatenate([t.threshold for t in self.trees])
        left = np.concatenate([t.left for t in self.trees]) + shift
        right = np.concatenate([t.right for t in self.trees]) + shift
        label = np.concatenate([t.label for t in self.trees])
        # [n_trees, B] node ids, every row starting at its tree's root
        node = np.repeat(roots[:, None], features.shape[0], axis=1)
        internal = feature >= 0
        active = np.flatnonzero(internal[node])
        while active.size:
            at = node.flat[active]
            x = features[active % features.shape[0], feature[at]]
            nxt = np.where(x <= threshold[at], left[at], right[at])
            node.flat[active] = nxt
            active = active[internal[nxt]]
        return plurality(label[node], self.n_classes)


def _grow_tree(features, labels, n_classes, max_depth, n_candidates, bootstrap, seed, k):
    """Tree k of a forest, seeded by (seed, k) alone."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
    if bootstrap:
        rows = rng.integers(0, len(labels), size=len(labels))
    else:
        rows = np.arange(len(labels))
    nodes = []
    _grow(features[rows], labels[rows], n_classes, max_depth, n_candidates, rng, nodes, 0)
    feature, threshold, left, right, label = zip(*nodes)
    return DecisionTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        label=np.array(label, dtype=np.int64))


def fit_forest(features, labels, n_trees=100, max_depth=12, seed=0,
               n_candidates=None, bootstrap=True, n_classes=None, trainers=None):
    """Fit a forest of Gini trees.

    n_candidates defaults to ceil(sqrt(d)); bootstrap=False uses every row
    once per tree (handy for oracle comparisons).  With trainers (a
    bagging.Trainers) the trees k != 0 (mod P) grow on its forked workers;
    each tree depends on (seed, k) alone, so the forest is the same.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0 or features.shape[1] == 0:
        raise InputError(f"features must be a non-empty 2-d matrix, got shape {features.shape}")
    if len(labels) != len(features):
        raise InputError("features and labels disagree in length")
    if n_trees < 1:
        raise InputError(f"n_trees must be >= 1, got {n_trees}")
    # without n_classes, any non-negative whole number is a label
    labels = check_labels(labels, math.inf if n_classes is None else n_classes)
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    d = features.shape[1]
    if n_candidates is None:
        n_candidates = math.ceil(math.sqrt(d))
    grow = functools.partial(_grow_tree, features, labels, n_classes, max_depth, n_candidates,
                             bootstrap, seed)
    if trainers is None:
        trees = [grow(k) for k in range(n_trees)]
    else:
        trees = trainers.run(n_trees, grow, grow,
                             "forest tree {k}: its process ended without a result")
    return RandomForest(trees=trees, n_classes=n_classes, n_features=d)
