"""Extremely randomized regression trees, built from scratch.

Every tree trains on the full sample (no bootstrapping). At each node a
random subset of the non-constant features is drawn, one candidate
threshold per feature is drawn uniformly inside that feature's (min, max)
over the node sample, and the candidate with the highest variance reduction
wins (ties go to the earliest-drawn candidate). Predictions average the
reached leaf values across trees.

A fitted tree is a set of parallel node arrays (:class:`Tree`); the JSON
model document encodes each one as nested ``leaf``/``split`` objects.
:class:`ExtraTreesModel` and :class:`ExtraTreesParams` check their own
invariants; :func:`model_from_dict` only decodes, and maps their
:class:`InvalidParamsError` to :class:`InvalidModelError`.

Determinism contract: all randomness flows from numpy's PCG64 bit
generator. Tree ``i`` draws from ``PCG64(seed ^ i)``, and the trees are
built one after another in index order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    InvalidModelError,
    InvalidParamsError,
    MissingFeatureError,
    TooShortError,
)
from .timeseries import FeatureTable, _read_only

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExtraTreesParams:
    """Ensemble hyperparameters.

    ``k_features=None`` means "use every feature available at fit time",
    the recommended choice for regression, as is ``min_samples_split=5``.
    """

    n_trees: int = 100
    k_features: int | None = None
    min_samples_split: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise InvalidParamsError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.k_features is not None and self.k_features < 1:
            raise InvalidParamsError(f"k_features must be >= 1, got {self.k_features}")
        if self.min_samples_split < 2:
            raise InvalidParamsError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        if not 0 <= self.seed < 2**64:
            raise InvalidParamsError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class Tree:
    """One fitted tree as parallel node arrays, numbered in build order.

    Node 0 is the root and every node precedes its children (depth first,
    left child first). A split node ``i`` sends rows with
    ``x[feature[i]] < threshold[i]`` to ``left[i]`` and the rest to
    ``right[i]``. A leaf has ``feature``, ``left`` and ``right`` equal to -1
    and predicts ``value[i]``, the mean target of its ``count[i]`` training
    rows. ``threshold`` is NaN at leaves and ``value`` is NaN at splits.
    Each array is stored as a read-only view of a private copy.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    count: np.ndarray

    def __post_init__(self) -> None:
        for name in ("feature", "left", "right", "count"):
            object.__setattr__(self, name, _read_only(getattr(self, name), np.intp))
        for name in ("threshold", "value"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    def leaf_values(self, rows: list[list[float]]) -> list[float]:
        """Value of the leaf each row reaches."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right, value = self.left.tolist(), self.right.tolist(), self.value.tolist()
        out = []
        for x in rows:
            node = 0
            while feature[node] >= 0:
                node = left[node] if x[feature[node]] < threshold[node] else right[node]
            out.append(value[node])
        return out


class _TreeBuilder:
    """Node lists filled in depth-first, left-first order, then frozen."""

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.count: list[int] = []

    def add(
        self,
        parent: int,
        is_left: bool,
        feature: int,
        threshold: float,
        value: float,
        count: int,
    ) -> int:
        """Append a node, link it under ``parent`` (-1 for the root), return its id."""
        node = len(self.feature)
        if parent >= 0:
            (self.left if is_left else self.right)[parent] = node
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        self.count.append(count)
        return node

    def freeze(self) -> Tree:
        return Tree(self.feature, self.threshold, self.left, self.right, self.value, self.count)


class RandomSplitSampler:
    """Split randomness drawn from a numpy Generator (PCG64 in production)."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def choose_features(self, candidates: list[int], k: int) -> list[int]:
        """Draw ``k`` distinct entries of ``candidates`` uniformly, in draw order.

        Partial Fisher-Yates: selection ``i`` swaps in a uniform pick among
        the ``len(candidates) - i`` entries not yet chosen. One
        ``Generator.integers`` call with all ``k`` bounds draws the same
        values as ``k`` scalar calls.
        """
        pool = list(candidates)
        offsets = self.rng.integers(0, np.arange(len(pool), len(pool) - k, -1))
        for i, offset in enumerate(offsets.tolist()):
            j = i + offset
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def draw_threshold(self, lo: float, hi: float) -> float:
        """Uniform draw strictly inside (lo, hi).

        ``lo + (hi - lo) * random()`` is the arithmetic of
        ``Generator.uniform(lo, hi)``, so both give the same bits; a draw
        that lands on an endpoint is redrawn.
        """
        while True:
            t = lo + (hi - lo) * self.rng.random()
            if lo < t < hi:
                return t


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    k_features: int,
    min_samples_split: int,
    sampler: RandomSplitSampler,
) -> Tree:
    """Build one extremely randomized tree over the full sample.

    Nodes are expanded depth-first, left child before right child; the
    sampler is consulted once per node for the feature subset and once per
    candidate feature for its threshold, in that order. Tests rely on this
    visit order to replay recorded draws.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    return _build(X, y, k_features, min_samples_split, sampler, np.zeros(X.shape[1]))


def _build(
    X: np.ndarray,
    y: np.ndarray,
    k: int,
    min_split: int,
    sampler: RandomSplitSampler,
    acc: np.ndarray,
) -> Tree:
    """Grow one tree over C-contiguous float64 ``X`` and ``y``; each split
    adds its variance reduction, weighted by the fraction of rows passing
    through the node, to the winning feature's slot of ``acc``.

    ``order`` is a permutation of the row indices in which every node owns
    a contiguous run. A split partitions its run stably, so each node's rows
    stay in training-row order: a node's sums add the same numbers in the
    same order as sums over the boolean-mask subset of the training rows,
    and so round to the same bits.
    """
    n_total, p = X.shape
    # [X | y | -X | -y]: one column-wise minimum over a node's rows gives
    # every column's min and (negated) max; never needed when the root is a leaf
    signed = np.hstack((X, y[:, None], -X, -y[:, None])) if n_total >= min_split else None
    order = np.arange(n_total)
    nodes = _TreeBuilder()
    stack = [(0, n_total, -1, True)]
    while stack:
        start, end, parent, is_left = stack.pop()
        n = end - start
        rows = order[start:end]
        yn = y.take(rows)
        if n < min_split:
            nodes.add(parent, is_left, -1, math.nan, float(yn.sum()) / n, n)
            continue
        xn = signed.take(rows, axis=0)
        ext = np.minimum.reduce(xn, axis=0).tolist()
        lo, hi = ext[:p], [-v for v in ext[p + 1 : 2 * p + 1]]
        # a feature qualifies when some float lies strictly between its min
        # and max over the node sample, so a threshold can separate the rows
        candidates = [j for j in range(p) if math.nextafter(lo[j], hi[j]) < hi[j]]
        if ext[p] == -ext[-1] or not candidates:
            nodes.add(parent, is_left, -1, math.nan, float(yn.sum()) / n, n)
            continue

        chosen = sampler.choose_features(candidates, min(k, len(candidates)))
        thresholds = [sampler.draw_threshold(lo[j], hi[j]) for j in chosen]

        # variance reduction of every candidate, written in terms of each
        # side's row count, sum and sum of squares. The BLAS products below
        # sum in an order that depends on the masks' memory layout, so the
        # bits rest on building them exactly this way (golden test).
        masks = xn[:, chosen] < thresholds  # (n, k)
        y_sum, ysq_sum = float(yn.sum()), float(yn @ yn)
        counts = masks.sum(axis=0).tolist()
        sums = (yn @ masks).tolist()
        squares = ((yn * yn) @ masks).tolist()
        parent_var = (ysq_sum - y_sum**2 / n) / n
        for i, (n_left, left_sum, left_sq) in enumerate(zip(counts, sums, squares)):
            sse_left = left_sq - left_sum * left_sum / n_left
            right_sum = y_sum - left_sum
            sse_right = (ysq_sum - left_sq) - right_sum * right_sum / (n - n_left)
            score = parent_var - (sse_left + sse_right) / n
            # the first maximum wins, so ties keep the earliest-drawn
            # candidate; as in np.argmax, the first NaN beats any number
            if i == 0 or score > best_score or (score != score and best_score == best_score):
                best, best_score, best_left = i, score, n_left

        # reductions are nonnegative in exact arithmetic; guard float rounding
        acc[chosen[best]] += (n / n_total) * max(best_score, 0.0)
        node = nodes.add(parent, is_left, chosen[best], thresholds[best], math.nan, n)
        mask = masks[:, best]
        rows[:] = np.concatenate((rows[mask], rows[~mask]))
        mid = start + best_left
        stack.append((mid, end, node, False))
        stack.append((start, mid, node, True))
    return nodes.freeze()


@dataclass(frozen=True, eq=False)
class ExtraTreesModel:
    """A fitted ensemble: one tree per ``params.n_trees``, the hyperparameters,
    and one finite importance per feature name."""

    trees: tuple[Tree, ...]
    params: ExtraTreesParams
    feature_names: tuple[str, ...]
    importances: np.ndarray

    def __post_init__(self) -> None:
        if len(self.trees) != self.params.n_trees:
            raise InvalidParamsError(
                f"model has {len(self.trees)} trees for n_trees={self.params.n_trees}"
            )
        importances = _read_only(self.importances)
        if importances.shape != (len(self.feature_names),):
            raise InvalidParamsError(
                f"{importances.size} importances for {len(self.feature_names)} feature names"
            )
        if not np.all(np.isfinite(importances)):
            raise InvalidParamsError("importances must be finite")
        object.__setattr__(self, "importances", importances)

    def to_json(self) -> str:
        return json.dumps(model_to_dict(self))

    @classmethod
    def from_json(cls, text: str) -> "ExtraTreesModel":
        return model_from_dict(json.loads(text))


def fit(
    table: FeatureTable, params: ExtraTreesParams, n_threads: int | None = None
) -> ExtraTreesModel:
    """Train an ensemble on a table's feature columns against its target.

    Trees are built one after another on the calling thread. ``n_threads``
    is accepted for compatibility and ignored.
    """
    if table.target is None:
        raise InvalidParamsError("fit requires the table's target to be set")
    names = table.feature_names
    if not names:
        raise InvalidParamsError("fit requires at least one feature column")
    if len(table) < 2:
        raise TooShortError(f"fit requires at least 2 rows, got {len(table)}")

    X = table.matrix(names)
    y = table.target_values()

    k = params.k_features if params.k_features is not None else X.shape[1]
    if k > X.shape[1]:
        raise InvalidParamsError(
            f"k_features={k} exceeds the {X.shape[1]} available features"
        )

    trees = []
    # each tree's importances are summed on their own, then added in tree
    # order; normalized across the whole ensemble (all zero when no split exists)
    acc = np.zeros(X.shape[1], dtype=np.float64)
    for i in range(params.n_trees):
        sampler = RandomSplitSampler(np.random.Generator(np.random.PCG64(params.seed ^ i)))
        tree_acc = np.zeros(X.shape[1], dtype=np.float64)
        trees.append(_build(X, y, k, params.min_samples_split, sampler, tree_acc))
        acc += tree_acc
    total = acc.sum()
    importances = acc / total if total > 0 else acc
    return ExtraTreesModel(tuple(trees), params, names, importances)


def predict(model: ExtraTreesModel, rows: FeatureTable) -> np.ndarray:
    """Mean leaf value across trees, per row of ``rows``.

    Leaf values are added tree by tree, starting from 0.0, so every row's
    sum rounds the same way however many rows are predicted together.
    """
    missing = [n for n in model.feature_names if n not in rows.columns]
    if missing:
        raise MissingFeatureError(f"rows lack fitted feature columns: {missing}")
    X = rows.matrix(model.feature_names).tolist()
    out = np.zeros(len(X), dtype=np.float64)
    for tree in model.trees:
        out += tree.leaf_values(X)
    return out / len(model.trees)


def feature_importances(model: ExtraTreesModel) -> dict[str, float]:
    """Importances keyed by feature name; sum to 1 unless no split exists."""
    return {name: float(v) for name, v in zip(model.feature_names, model.importances)}


def _tree_to_dict(tree: Tree) -> dict:
    """A tree's nested document. Children come after their parent in node
    order, so walking the nodes backwards encodes each child first."""
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    value, count = tree.value.tolist(), tree.count.tolist()
    docs = [None] * len(feature)
    for i in reversed(range(len(feature))):
        if feature[i] < 0:
            docs[i] = {"kind": "leaf", "value": value[i], "count": count[i]}
        else:
            docs[i] = {
                "kind": "split",
                "feature_index": feature[i],
                "threshold": threshold[i],
                "left": docs[left[i]],
                "right": docs[right[i]],
            }
    return docs[0]


def model_to_dict(model: ExtraTreesModel) -> dict:
    """Versioned JSON-ready encoding of a fitted model."""
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "params": asdict(model.params),
        "feature_names": list(model.feature_names),
        "importances": [float(v) for v in model.importances],
        "trees": [_tree_to_dict(t) for t in model.trees],
    }


def _finite(value, what: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise InvalidModelError(f"{what} must be finite, got {value!r}")
    return number


def _tree_from_dict(doc: dict, n_features: int) -> Tree:
    nodes = _TreeBuilder()
    stack = [(doc, -1, True)]
    while stack:
        d, parent, is_left = stack.pop()
        kind = d["kind"]
        if kind == "leaf":
            value = _finite(d["value"], "leaf value")
            nodes.add(parent, is_left, -1, math.nan, value, int(d["count"]))
        elif kind == "split":
            feature = int(d["feature_index"])
            if not 0 <= feature < n_features:
                raise InvalidModelError(
                    f"feature_index {feature} is outside the {n_features} feature names"
                )
            threshold = _finite(d["threshold"], "split threshold")
            node = nodes.add(parent, is_left, feature, threshold, math.nan, 0)
            stack.append((d["right"], node, False))
            stack.append((d["left"], node, True))
        else:
            raise InvalidModelError(f"unknown node kind: {kind!r}")
    # documents store counts at leaves only; a split's is its children's total
    for i in reversed(range(len(nodes.count))):
        if nodes.feature[i] >= 0:
            nodes.count[i] = nodes.count[nodes.left[i]] + nodes.count[nodes.right[i]]
    return nodes.freeze()


def model_from_dict(d: dict) -> ExtraTreesModel:
    """Decode :func:`model_to_dict` output; malformed documents raise
    :class:`InvalidModelError`, and so does a model its types reject."""
    if not isinstance(d, dict):
        raise InvalidModelError(f"a model document is an object, got {type(d).__name__}")
    if d.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise InvalidModelError(f"unsupported model schema_version: {d.get('schema_version')}")
    try:
        p = d["params"]
        params = ExtraTreesParams(
            n_trees=int(p["n_trees"]),
            k_features=None if p["k_features"] is None else int(p["k_features"]),
            min_samples_split=int(p["min_samples_split"]),
            seed=int(p["seed"]),
        )
        names = tuple(d["feature_names"])
        if not all(isinstance(name, str) for name in names):
            raise InvalidModelError("feature names must be strings")
        trees = tuple(_tree_from_dict(t, len(names)) for t in d["trees"])
        return ExtraTreesModel(trees, params, names, d["importances"])
    except InvalidModelError:
        raise
    except KeyError as exc:
        raise InvalidModelError(f"model document lacks key {exc}") from None
    except (TypeError, ValueError, InvalidParamsError) as exc:
        raise InvalidModelError(f"malformed model document: {exc}") from None
