"""Plain-Python reference builder for single extremely randomized trees.

Replays a recorded draw trace (feature subsets and thresholds) through an
independent implementation: lists and pure-Python arithmetic, no numpy.
Used to check the production builder node for node.
"""

import math


class RecordingSampler:
    """Wraps a sampler and records every draw it hands out."""

    def __init__(self, inner):
        self.inner = inner
        self.feature_draws = []
        self.threshold_draws = []

    def choose_features(self, candidates, k):
        chosen = self.inner.choose_features(candidates, k)
        self.feature_draws.append(list(chosen))
        return chosen

    def draw_threshold(self, lo, hi):
        t = self.inner.draw_threshold(lo, hi)
        self.threshold_draws.append(t)
        return t


class Trace:
    """Replays recorded draws in order."""

    def __init__(self, feature_draws, threshold_draws):
        self._features = iter(feature_draws)
        self._thresholds = iter(threshold_draws)

    def next_features(self):
        return next(self._features)

    def next_threshold(self):
        return next(self._thresholds)

    def exhausted(self):
        return next(self._features, None) is None and next(self._thresholds, None) is None


def _variance(values):
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def _has_interior_float(lo, hi):
    return lo < hi and math.nextafter(lo, hi) < hi


def reference_grow(rows, targets, min_samples_split, trace):
    """Grow one tree over (rows, targets), replaying draws from ``trace``.

    ``rows`` is a list of feature-value lists. Nodes are visited depth
    first, left before right, exactly like the production builder. Returns
    nested tuples: ("leaf", value, count) or
    ("split", feature, threshold, left, right).
    """
    n = len(targets)
    n_features = len(rows[0])
    if n < min_samples_split or min(targets) == max(targets):
        return ("leaf", sum(targets) / n, n)
    splittable = []
    for j in range(n_features):
        col = [r[j] for r in rows]
        if _has_interior_float(min(col), max(col)):
            splittable.append(j)
    if not splittable:
        return ("leaf", sum(targets) / n, n)

    chosen = trace.next_features()
    assert sorted(chosen) == sorted(
        set(chosen)
    ) and set(chosen) <= set(splittable), "trace features disagree with candidate set"

    parent_var = _variance(targets)
    best = None
    best_score = -math.inf
    for j in chosen:
        threshold = trace.next_threshold()
        left = [t for r, t in zip(rows, targets) if r[j] < threshold]
        right = [t for r, t in zip(rows, targets) if r[j] >= threshold]
        assert left and right, "threshold failed to separate the node sample"
        score = parent_var - (
            len(left) * _variance(left) + len(right) * _variance(right)
        ) / n
        if score > best_score:
            best_score = score
            best = (j, threshold)

    j, threshold = best
    left_rows = [(r, t) for r, t in zip(rows, targets) if r[j] < threshold]
    right_rows = [(r, t) for r, t in zip(rows, targets) if r[j] >= threshold]
    left = reference_grow(
        [r for r, _ in left_rows], [t for _, t in left_rows], min_samples_split, trace
    )
    right = reference_grow(
        [r for r, _ in right_rows], [t for _, t in right_rows], min_samples_split, trace
    )
    return ("split", j, threshold, left, right)


def assert_trees_equal(tree, ref):
    """Exact structural comparison of a production tree and a reference tree.

    Walks the production node arrays from the root (node 0) alongside the
    reference's nested tuples; the walk must reach every node in the arrays.
    """
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    value, count = tree.value.tolist(), tree.count.tolist()
    reached = set()
    pending = [(0, ref)]
    while pending:
        node, expected = pending.pop()
        reached.add(node)
        if feature[node] < 0:
            kind, ref_value, ref_count = expected
            assert kind == "leaf", f"production leaf where reference has {kind}"
            assert value[node] == ref_value, f"leaf value {value[node]!r} != {ref_value!r}"
            assert count[node] == ref_count
            continue
        kind, ref_feature, ref_threshold, ref_left, ref_right = expected
        assert kind == "split", f"production split where reference has {kind}"
        assert feature[node] == ref_feature
        assert threshold[node] == ref_threshold
        pending += [(right[node], ref_right), (left[node], ref_left)]
    all_nodes = set(range(len(feature)))
    assert reached == all_nodes, f"the walk misses nodes {sorted(all_nodes - reached)}"
