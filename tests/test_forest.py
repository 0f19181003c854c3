import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baggedcnn import forest
from baggedcnn.errors import InputError, LabelError


class TestGini:
    def test_pure_node(self):
        assert forest.gini_impurity([5, 0, 0]) == 0.0

    def test_even_two_class(self):
        assert forest.gini_impurity([10, 10]) == pytest.approx(0.5)

    def test_hand_value(self):
        assert forest.gini_impurity([2, 1, 1]) == pytest.approx(0.625)

    def test_empty_node(self):
        with pytest.raises(InputError):
            forest.gini_impurity([0, 0])


def exhaustive_tree_predict(features, labels, x, max_depth):
    """Independent oracle: brute-force greedy Gini tree over all features and
    all midpoint thresholds, no sampling."""
    def grow(rows, depth):
        ys = labels[rows]
        counts = np.bincount(ys, minlength=labels.max() + 1)
        majority = int(counts.argmax())
        if depth >= max_depth or len(set(ys.tolist())) <= 1:
            return ("leaf", majority)
        best = None
        for f in range(features.shape[1]):
            vals = sorted(set(features[rows, f].tolist()))
            for lo, hi in zip(vals, vals[1:]):
                thr = (lo + hi) / 2
                left = [r for r in rows if features[r, f] <= thr]
                right = [r for r in rows if features[r, f] > thr]
                gl = forest.gini_impurity(np.bincount(labels[left], minlength=counts.size))
                gr = forest.gini_impurity(np.bincount(labels[right], minlength=counts.size))
                score = (len(left) * gl + len(right) * gr) / len(rows)
                if best is None or score < best[0] - 1e-15:
                    best = (score, f, thr, left, right)
        if best is None:
            return ("leaf", majority)
        _, f, thr, left, right = best
        return ("split", f, thr, grow(left, depth + 1), grow(right, depth + 1))

    node = grow(list(range(len(labels))), 0)
    while node[0] == "split":
        _, f, thr, l, r = node
        node = l if x[f] <= thr else r
    return node[1]


class TestFitForest:
    def test_perfectly_separable_single_feature(self):
        features = np.array([[0.1], [0.2], [0.8], [0.9]])
        labels = np.array([0, 0, 1, 1])
        rf = forest.fit_forest(features, labels, n_trees=5, max_depth=3, seed=0)
        assert rf.predict(features).tolist() == [0, 0, 1, 1]

    def test_depth_zero_majority_leaf(self):
        features = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([1, 1, 0])
        rf = forest.fit_forest(features, labels, n_trees=3, max_depth=0, seed=0,
                               bootstrap=False)
        for tree in rf.trees:
            assert len(tree.feature) == 1
            assert tree.feature[0] == -1
            assert tree.label[0] == 1

    def test_deterministic(self, rng):
        features = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        a = forest.fit_forest(features, labels, n_trees=10, max_depth=4, seed=9)
        b = forest.fit_forest(features, labels, n_trees=10, max_depth=4, seed=9)
        x = rng.normal(size=(20, 4))
        assert np.array_equal(a.predict(x), b.predict(x))

    def test_tie_break_lowest_class(self):
        # two trees voting for different classes -> lowest index wins
        features = np.array([[0.0], [1.0]])
        labels = np.array([1, 0])
        rf = forest.fit_forest(features, labels, n_trees=2, max_depth=0, seed=0,
                               bootstrap=False)
        # both trees are majority leaves over {0, 1} tied counts -> class 0
        assert rf.predict(np.array([[0.5]]))[0] == 0

    def test_empty_features(self):
        with pytest.raises(InputError):
            forest.fit_forest(np.zeros((3, 0)), np.zeros(3, dtype=int))

    @pytest.mark.parametrize("n_trees", [0, -1])
    def test_no_trees_rejected(self, n_trees):
        with pytest.raises(InputError, match="n_trees"):
            forest.fit_forest(np.zeros((3, 1)), np.array([0, 1, 0]), n_trees=n_trees)

    @pytest.mark.parametrize("labels,n_classes,match", [
        ([0, 1, 5], 2, "5 out of range"),  # would grow leaves holding label 5
        ([0, -1, 1], None, "-1 out of range"),
        ([0.0, 1.9, 1.2], None, "not a whole number"),  # would be truncated
        ([0.0, 1.9, 1.2], 3, "not a whole number"),
        ([0.0, np.nan, 1.0], None, "not a whole number"),
    ])
    def test_bad_labels_refused(self, labels, n_classes, match):
        with pytest.raises(LabelError, match=match):
            forest.fit_forest(np.arange(3.0)[:, None], labels, n_trees=2, n_classes=n_classes)

    def test_whole_float_labels_infer_classes(self):
        rf = forest.fit_forest(np.arange(3.0)[:, None], [0.0, 2.0, 1.0], n_trees=2,
                               bootstrap=False)
        assert rf.n_classes == 3
        assert all(t.label.dtype == np.int64 for t in rf.trees)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_exhaustive_oracle(self, seed):
        # single tree, full candidates, identity resample vs brute-force oracle
        rng = np.random.default_rng(seed)
        features = np.round(rng.normal(size=(40, 3)), 2)
        labels = rng.integers(0, 3, size=40)
        rf = forest.fit_forest(features, labels, n_trees=1, max_depth=3, seed=0,
                               n_candidates=3, bootstrap=False)
        queries = rng.normal(size=(30, 3))
        ours = rf.predict(queries)
        oracle = [exhaustive_tree_predict(features, labels, x, 3) for x in queries]
        assert ours.tolist() == oracle

    def test_training_accuracy_on_memorizable_set(self, rng):
        features = rng.normal(size=(50, 5))
        labels = rng.integers(0, 2, size=50)
        rf = forest.fit_forest(features, labels, n_trees=1, max_depth=20, seed=0,
                               n_candidates=5, bootstrap=False)
        # distinct continuous features: a deep tree memorizes the set
        assert (rf.predict(features) == labels).all()


def reference_best_split(features, labels, candidates, n_classes):
    """Slow reference for forest._best_split: scores one boundary at a time
    with the scalar gini_impurity, keeping the first score that improves on
    the best by more than 1e-15."""
    best = None
    best_score = np.inf
    n = len(labels)
    for f in candidates:
        col = features[:, f]
        order = np.argsort(col, kind="stable")
        sv, sl = col[order], labels[order]
        onehot = np.zeros((n, n_classes), dtype=np.int64)
        onehot[np.arange(n), sl] = 1
        cum = np.cumsum(onehot, axis=0)
        total = cum[-1]
        boundary = np.nonzero(sv[1:] > sv[:-1])[0]  # split after position i
        for i in boundary:
            left = cum[i]
            right = total - left
            nl = i + 1
            nr = n - nl
            score = (nl * forest.gini_impurity(left) + nr * forest.gini_impurity(right)) / n
            if score < best_score - 1e-15:
                best_score = score
                best = (int(f), float((sv[i] + sv[i + 1]) / 2.0))
    return best


def reference_first_improvement(flat):
    """Slow reference for forest._first_improvement: the scan that searches
    the rest of the scores after each improvement."""
    best_score, best, start = np.inf, -1, 0
    while True:
        better = np.flatnonzero(flat[start:] < best_score - 1e-15)
        if better.size == 0:
            break
        best = start + int(better[0])
        best_score = flat[best]
        start = best + 1
    return best


@st.composite
def near_tie_scores(draw):
    """Scores a few ulps apart around a few levels, with inf gaps: steps
    below 1e-15 pass or fail the test depending on the level."""
    levels = draw(st.lists(st.sampled_from([0.0, 1e-16, 0.1, 0.25, 0.5, 0.75, 1.0]),
                           min_size=1, max_size=4))
    cells = draw(st.lists(st.tuples(st.integers(0, len(levels) - 1), st.integers(-12, 12),
                                    st.booleans()), max_size=40))
    flat = []
    for level, ulps, gap in cells:
        x = levels[level]
        for _ in range(abs(ulps)):
            x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
        flat.append(np.inf if gap else x)
    return np.array(flat, dtype=np.float64)


def reference_predict(rf, features):
    """Slow reference for RandomForest.predict: walk each tree for each row,
    then count votes per row."""
    out = []
    for x in features:
        votes = []
        for t in rf.trees:
            i = 0
            while t.feature[i] >= 0:
                i = t.left[i] if x[t.feature[i]] <= t.threshold[i] else t.right[i]
            votes.append(t.label[i])
        out.append(int(np.bincount(votes, minlength=rf.n_classes).argmax()))
    return out


@st.composite
def tie_heavy_problem(draw):
    """Rounded features (many equal values) and labels for a small forest."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    c = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    features = np.round(rng.normal(size=(n, d)), draw(st.integers(0, 1)))
    labels = rng.integers(0, c, size=n)
    return features, labels, c, seed


class TestFastPaths:
    @settings(max_examples=60, deadline=None)
    @given(problem=tie_heavy_problem(), max_depth=st.integers(0, 8),
           n_candidates=st.integers(1, 6))
    def test_split_sweep_grows_reference_trees(self, problem, max_depth, n_candidates):
        features, labels, c, seed = problem
        kwargs = dict(n_trees=3, max_depth=max_depth, seed=seed,
                      n_candidates=n_candidates, n_classes=c)
        fast = forest.fit_forest(features, labels, **kwargs)
        with mock.patch.object(forest, "_best_split", reference_best_split):
            slow = forest.fit_forest(features, labels, **kwargs)
        for a, b in zip(fast.trees, slow.trees):
            for field in ("feature", "threshold", "left", "right", "label"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field

    @settings(max_examples=300, deadline=None)
    @given(flat=near_tie_scores())
    def test_prefix_minimum_scan_equals_the_full_scan(self, flat):
        assert forest._first_improvement(flat) == reference_first_improvement(flat)

    def test_tied_scores_keep_first_improvement(self):
        # both features split the node equally well: the first candidate wins
        features = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        args = (features, labels, np.array([0, 1]), 2)
        assert forest._best_split(*args) == reference_best_split(*args) == (0, 0.5)

    @settings(max_examples=30, deadline=None)
    @given(problem=tie_heavy_problem(), max_depth=st.integers(0, 8))
    def test_predict_matches_per_row_walk(self, problem, max_depth):
        features, labels, c, seed = problem
        rf = forest.fit_forest(features, labels, n_trees=7, max_depth=max_depth,
                               seed=seed, n_classes=c)
        queries = np.round(np.random.default_rng(seed).normal(
            size=(25, features.shape[1])), 1)
        assert rf.predict(queries).tolist() == reference_predict(rf, queries)

    def test_predict_no_rows(self):
        rf = forest.fit_forest(np.array([[0.0], [1.0]]), np.array([0, 1]), n_trees=2)
        assert rf.predict(np.zeros((0, 1))).shape == (0,)


def recursive_grow(features, labels, n_classes, max_depth, n_candidates, rng, nodes, depth):
    """The recursive tree growth forest._grow replaced: appends the subtree's
    node rows to nodes in preorder and returns its root id."""
    node_id = len(nodes)
    counts = np.bincount(labels, minlength=n_classes)
    nodes.append([-1, 0.0, -1, -1, int(counts.argmax())])
    if depth >= max_depth or np.count_nonzero(counts) <= 1:
        return node_id
    d = features.shape[1]
    if n_candidates >= d:
        candidates = np.arange(d)
    else:
        candidates = np.sort(rng.choice(d, size=n_candidates, replace=False))
    split = forest._best_split(features, labels, candidates, n_classes)
    if split is None:
        return node_id
    f, thr = split
    mask = features[:, f] <= thr
    left = recursive_grow(features[mask], labels[mask], n_classes, max_depth, n_candidates,
                          rng, nodes, depth + 1)
    right = recursive_grow(features[~mask], labels[~mask], n_classes, max_depth, n_candidates,
                           rng, nodes, depth + 1)
    nodes[node_id] = [f, thr, left, right, -1]
    return node_id


class TestGrowthWithoutRecursion:
    @settings(max_examples=80, deadline=None)
    @given(problem=tie_heavy_problem(), max_depth=st.integers(0, 12),
           n_candidates=st.integers(1, 6), bootstrap=st.booleans())
    def test_trees_equal_the_recursive_reference(self, problem, max_depth, n_candidates,
                                                 bootstrap):
        features, labels, c, seed = problem
        rf = forest.fit_forest(features, labels, n_trees=3, max_depth=max_depth, seed=seed,
                               n_candidates=n_candidates, bootstrap=bootstrap, n_classes=c)
        for k, tree in enumerate(rf.trees):
            rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
            rows = (rng.integers(0, len(labels), size=len(labels)) if bootstrap
                    else np.arange(len(labels)))
            nodes = []
            recursive_grow(features[rows], labels[rows], c, max_depth, n_candidates, rng,
                           nodes, 0)
            ref = [np.array(column) for column in zip(*nodes)]
            for field, want in zip(("feature", "threshold", "left", "right", "label"), ref):
                got = getattr(tree, field)
                assert got.tolist() == want.tolist(), field

    def test_a_chain_deeper_than_the_recursion_limit(self):
        # alternating labels on a sorted feature: every split peels off the
        # first row into a leaf, a chain of 2999 internal nodes
        labels = np.arange(3000) % 2
        rf = forest.fit_forest(np.arange(3000.)[:, None], labels, n_trees=1,
                               max_depth=100000, bootstrap=False)
        tree = rf.trees[0]
        depth, node = 0, 0
        while tree.feature[node] >= 0:
            assert tree.feature[tree.left[node]] < 0
            node, depth = tree.right[node], depth + 1
        assert depth == 2999
        assert rf.predict(np.arange(3000.)[:, None]).tolist() == labels.tolist()
