"""Extremely randomized regression trees, built from scratch.

Every tree trains on the full sample (no bootstrapping). At each node a
random subset of the non-constant features is drawn, one candidate
threshold per feature is drawn uniformly inside that feature's (min, max)
over the node sample, and the candidate with the highest variance reduction
wins (ties go to the earliest-drawn candidate). Predictions average the
reached leaf values across trees.

A fitted tree is four parallel pre-order node arrays (:class:`Tree`), the
layout the lockstep builder writes and the decoder reads back; the JSON
model document encodes each one as nested ``leaf``/``split`` objects.
:class:`ExtraTreesModel` and :class:`ExtraTreesParams` check their own
invariants; :func:`model_from_dict` only decodes, and maps their
:class:`InvalidParamsError` to :class:`InvalidModelError`.

Determinism contract: all randomness flows from numpy's PCG64 bit
generator. Tree ``i`` draws from ``PCG64(seed ^ i)``, a stream that starts
fresh. :func:`fit` grows its trees in lockstep, each step expanding the
next node of every unfinished tree as batched numpy; a split partitions its
node's rows by a stable sort, so they stay in training-row order. Each tree
still visits its nodes depth first, left child first, and its draws are
replayed from its own stream's raw words in the order of per-node
``Generator`` calls (:class:`_Replay`), so every tree has the bits of a
build of that tree alone (:func:`grow_tree`). The replay is only a fast
path: a node whose draws meet a Lemire rejection or a threshold on an
endpoint is drawn by the tree's own ``Generator``, handed its stream at the
replay's position. Four sums whose bits depend on how they are called stay
one call per node: the target sum (``np.add.reduce``), the sum of squares
(``y @ y``) and the two mask products (``y @ masks`` and
``(y * y) @ masks``), see :meth:`_Lockstep._expand`.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (
    InvalidModelError,
    InvalidParamsError,
    MissingFeatureError,
    NonFiniteError,
    TooShortError,
)
from .timeseries import FeatureTable, _read_only

MODEL_SCHEMA_VERSION = 1
# rows a step of the lockstep builder gathers at once, which bounds its
# temporary arrays; and PCG64 words buffered per tree between refills
_ROW_CAP = 1024
_WORDS = 128


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
        for name in ("n_trees", "k_features", "min_samples_split", "seed"):
            value = getattr(self, name)
            if value is not None or name != "k_features":
                object.__setattr__(self, name, _integer(value, name))
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


def _integer(value, what: str, error: type[Exception] = InvalidParamsError) -> int:
    """``value`` as a plain ``int``: anything ``operator.index`` takes but a ``bool``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class Tree:
    """One fitted tree as four parallel node arrays in pre-order.

    Node 0 is the root and every node precedes its children (depth first,
    left child first), so the left child of split ``i`` is ``i + 1``. A
    split node ``i`` sends rows with ``x[feature[i]] < number[i]`` to
    ``i + 1`` and the rest to ``right[i]``. A leaf has ``feature`` and
    ``right`` equal to -1 and predicts ``number[i]``, the mean target of its
    ``count[i]`` training rows. Each array is stored as a read-only copy
    over an immutable buffer. ``threshold`` (NaN at leaves), ``value`` (NaN
    at splits) and ``left`` (-1 at leaves) are read-only arrays derived on
    access.
    """

    feature: np.ndarray
    number: np.ndarray
    right: np.ndarray
    count: np.ndarray

    def __post_init__(self) -> None:
        for name in ("feature", "right", "count"):
            object.__setattr__(self, name, _read_only(getattr(self, name), np.intp))
        object.__setattr__(self, "number", _read_only(self.number))

    @property
    def threshold(self) -> np.ndarray:
        return _read_only(np.where(self.feature >= 0, self.number, math.nan))

    @property
    def value(self) -> np.ndarray:
        return _read_only(np.where(self.feature >= 0, math.nan, self.number))

    @property
    def left(self) -> np.ndarray:
        left = np.where(self.feature >= 0, np.arange(1, self.feature.size + 1), -1)
        return _read_only(left, np.intp)

    def leaf_values(self, rows: list[list[float]]) -> list[float]:
        """Value of the leaf each row reaches."""
        feature, number, right = self.feature.tolist(), self.number.tolist(), self.right.tolist()
        out = []
        for x in rows:
            node = 0
            while feature[node] >= 0:
                node = node + 1 if x[feature[node]] < number[node] else right[node]
            out.append(number[node])
        return out


def _fisher_yates(pool: list, offsets: list[int]) -> list:
    """Pick ``i`` swaps ``pool[i]`` with ``pool[i + offsets[i]]``; returns the picks."""
    for i, offset in enumerate(offsets):
        j = i + offset
        pool[i], pool[j] = pool[j], pool[i]
    return pool[: len(offsets)]


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
        offsets = self.rng.integers(0, np.arange(len(candidates), len(candidates) - k, -1))
        return _fisher_yates(list(candidates), offsets.tolist())

    def draw_threshold(self, lo: float, hi: float) -> float:
        """Uniform draw strictly inside (lo, hi).

        ``lo + (hi - lo) * random()`` is the arithmetic of
        ``Generator.uniform(lo, hi)``, so both give the same bits; a draw
        that lands on an endpoint is redrawn.
        """
        return _draw_inside(self.rng, lo, hi)


def _draw_inside(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``lo + (hi - lo) * rng.random()``, redrawn until strictly inside (lo, hi)."""
    while True:
        t = lo + (hi - lo) * rng.random()
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
    [tree], _ = _grow(X, y, 1, k_features, min_samples_split, _SamplerDraws(sampler))
    return tree


class _SamplerDraws:
    """Split draws taken from a sampler, one call per node and threshold."""

    def __init__(self, sampler: RandomSplitSampler):
        self.sampler = sampler

    def choose(self, trees, candidates, m, kk) -> np.ndarray:
        width = kk.max()
        return np.array(
            [
                self.sampler.choose_features(c, k) + [0] * (width - k)
                for c, k in zip(candidates, kk.tolist())
            ]
        )

    def thresholds(self, trees, lo, hi, kk) -> np.ndarray:
        out = np.zeros(lo.shape)
        for s, (los, his, k) in enumerate(zip(lo.tolist(), hi.tolist(), kk.tolist())):
            out[s, :k] = [self.sampler.draw_threshold(a, b) for a, b in zip(los[:k], his[:k])]
        return out


class _Replay:
    """Each tree's PCG64 stream, replayed in vectors from buffered raw words.

    Gives the values, in the same order, that :class:`RandomSplitSampler`
    calls on a ``Generator`` over the same bit generators would give.
    ``Generator.integers`` takes a bound below 2**32 by Lemire's rule on
    32-bit half-words: the low half of a fresh word first, its high half
    kept for the next 32-bit draw; a bound of 1 draws nothing.
    ``Generator.random`` takes a whole word as ``(w >> 11) * 2**-53`` and
    leaves a kept half alone. A node whose draws may meet a Lemire
    rejection, or whose threshold lands on an endpoint, is drawn by its
    tree's own ``Generator`` at the replay's position (:meth:`_slow`).
    Every stream starts fresh, as ``PCG64(seed)`` leaves it: no half kept.
    """

    def __init__(self, bit_generators: list, reserve: int):
        self.bit_generators = bit_generators
        # at least ``reserve`` words ready after a refill
        self.size = _WORDS + reserve
        self.words = np.zeros((len(bit_generators), self.size), dtype=np.uint64)
        # per tree: the next unused word, whether a half is kept, and the
        # last high half drawn
        self.pos = np.full(len(bit_generators), self.size)
        self.kept = np.zeros(len(bit_generators), dtype=np.intp)
        self.high = np.zeros(len(bit_generators), dtype=np.uint64)

    def _refill(self, trees: np.ndarray, need) -> None:
        """Make at least ``need`` unused words ready for each of ``trees``."""
        for t in trees[self.size - self.pos[trees] < need].tolist():
            keep = self.size - self.pos[t]
            self.words[t, :keep] = self.words[t, self.pos[t] :]
            self.words[t, keep:] = self.bit_generators[t].random_raw(self.pos[t])
            self.pos[t] = 0

    def _hand_back(self, t: int) -> None:
        """Leave tree ``t``'s bit generator where per-node calls would have left it."""
        bg = self.bit_generators[t]
        bg.advance(int(self.pos[t]) - self.size)  # back over the unused words
        state = bg.state
        state["has_uint32"], state["uinteger"] = int(self.kept[t]), int(self.high[t])
        bg.state = state

    def _slow(self, t: int, draw):
        """``draw(generator)`` on tree ``t``'s own ``Generator`` at the
        replay's position; the replay goes on from where that leaves the stream."""
        self._hand_back(t)
        bg = self.bit_generators[t]
        out = draw(np.random.Generator(bg))
        state = bg.state
        self.kept[t], self.high[t] = state["has_uint32"], state["uinteger"]
        self.pos[t] = self.size  # the buffer is spent: the next refill reads fresh words
        return out

    def offsets(self, trees: np.ndarray, m: np.ndarray, kk: np.ndarray) -> np.ndarray:
        """Partial Fisher-Yates offsets: pick ``i`` of node ``s`` draws
        below ``m[s] - i``, for ``i < kk[s]``; zero past ``kk[s]``."""
        i = np.arange(kk.max())
        draws = np.minimum(kk, m - 1)  # picks with a bound above 1
        drawn = i < draws[:, None]
        self._refill(trees, (draws + 1) // 2)
        # half-words in draw order: the kept one (number 2 * pos - 1), then
        # the low and high halves of each word from ``pos`` on
        half = (2 * self.pos[trees] - self.kept[trees])[:, None] + i
        fresh = half >= 2 * self.pos[trees][:, None]
        words = self.words[trees[:, None], np.where(drawn & fresh, half >> 1, 0)]
        u = (words >> ((half & 1) * 32).astype(np.uint64)) & np.uint64(0xFFFFFFFF)
        u = np.where(fresh, u, self.high[trees][:, None])
        bound = np.where(drawn, m[:, None] - i, 1).astype(np.uint64)
        product = u * bound
        out = (product >> np.uint64(32)).astype(np.intp)
        # Lemire rejects a draw whose low half is below 2**32 % bound, so
        # below bound: a node with such a drawn pick is drawn by its Generator
        redo = (drawn & ((product & np.uint64(0xFFFFFFFF)) < bound)).any(axis=1)

        done = ~redo & (draws > 0)
        t, last = trees[done], half[done, 0] + draws[done] - 1
        # the last high half drawn is new unless the kept half was the only draw
        new_high = fresh[done, 0] | (draws[done] > 1)
        self.high[t] = np.where(new_high, self.words[t, last >> 1] >> np.uint64(32), self.high[t])
        self.pos[t], self.kept[t] = (last >> 1) + 1, 1 - (last & 1)
        for s in np.flatnonzero(redo).tolist():
            n, k = int(m[s]), int(kk[s])
            bounds = np.arange(n, n - k, -1)
            out[s, :k] = self._slow(int(trees[s]), lambda rng: rng.integers(0, bounds))
        return out

    def choose(self, trees, candidates, m, kk) -> np.ndarray:
        """``RandomSplitSampler.choose_features(candidates[s], kk[s])`` for
        each node ``s`` (``m[s]`` candidates), padded with zeros."""
        offsets, width = self.offsets(trees, m, kk).tolist(), kk.max()
        return np.array(
            [
                _fisher_yates(c, o[:k]) + [0] * (width - k)
                for c, o, k in zip(candidates, offsets, kk.tolist())
            ]
        )

    def thresholds(self, trees, lo, hi, kk) -> np.ndarray:
        """``RandomSplitSampler.draw_threshold(lo[s, i], hi[s, i])`` for
        ``i < kk[s]``; entries past ``kk[s]`` mean nothing."""
        i = np.arange(lo.shape[1])
        drawn = i < kk[:, None]
        self._refill(trees, kk)
        at = np.where(drawn, self.pos[trees][:, None] + i, 0)
        out = lo + (hi - lo) * ((self.words[trees[:, None], at] >> np.uint64(11)) * 2.0**-53)
        redraw = (drawn & ~((lo < out) & (out < hi))).any(axis=1)
        self.pos[trees[~redraw]] += kk[~redraw]
        for s in np.flatnonzero(redraw).tolist():
            ranges = list(zip(lo[s, : kk[s]].tolist(), hi[s, : kk[s]].tolist()))
            out[s, : kk[s]] = self._slow(
                int(trees[s]), lambda rng: [_draw_inside(rng, a, b) for a, b in ranges]
            )
        return out


def _grow(X, y, n_trees, k, min_split, draws) -> tuple[list[Tree], np.ndarray]:
    """Grow ``n_trees`` trees over C-contiguous float64 ``X`` and ``y``,
    with split draws from ``draws``. Returns the trees and, per tree, each
    feature's summed variance reductions, each split's weighted by the
    fraction of rows passing through its node.
    """
    n_total, p = X.shape
    if n_total < min_split:  # every root is a leaf
        leaf = Tree([-1], [np.add.reduce(y) / n_total], [-1], [n_total])
        return [leaf] * n_trees, np.zeros((n_trees, p))
    forest = _Lockstep(X, y, n_trees, k, min_split, draws)
    while forest.step():
        pass
    return forest.trees(), forest.importance


def _widen(a: np.ndarray, fill) -> np.ndarray:
    """``a`` with its second axis doubled, the new entries ``fill``."""
    return np.concatenate((a, np.full_like(a, fill)), axis=1)


class _Lockstep:
    """Trees grown together: each step expands the next node of every
    unfinished tree, as batched numpy over chunks of about ``_ROW_CAP`` rows.

    A tree's nodes are still taken depth first, left child first, so its
    draws, splits and importance sums come in the order of a build of that
    tree alone. A node's id is its tree's node count when it is taken: the
    left child of split ``i`` is ``i + 1``, and a right child is linked to
    its parent when it is taken.

    ``order[t]`` is a permutation of the row indices in which every node of
    tree ``t`` owns a contiguous run. A split partitions its run by a stable
    sort, left rows first, so each node's rows stay in training-row order:
    a node's sums add the same numbers in the same order as sums over the
    boolean-mask subset of the training rows, and so round to the same bits.
    """

    def __init__(self, X, y, n_trees, k, min_split, draws):
        n_total, p = X.shape
        self.k, self.min_split, self.draws = k, min_split, draws
        # the one training matrix: the features, then the target
        self.Xy = np.hstack((X, y[:, None]))
        # node arrays, widened as the trees grow: ``number`` is a split's
        # threshold or a leaf's value, and left children are implied
        self.feature = np.full((n_trees, 32), -1, dtype=np.int32)
        self.right = np.full((n_trees, 32), -1, dtype=np.int32)
        self.count = np.zeros((n_trees, 32), dtype=np.int32)
        self.number = np.zeros((n_trees, 32))
        self.nodes = np.zeros(n_trees, dtype=np.intp)
        self.importance = np.zeros((n_trees, p))
        self.order = np.empty((n_trees, n_total), dtype=np.intp)
        self.order[:] = np.arange(n_total)
        # pending nodes, (start, end, parent if a right child else -1)
        self.stack = np.empty((n_trees, 8, 3), dtype=np.intp)
        self.stack[:, 0] = (0, n_total, -1)
        self.depth = np.ones(n_trees, dtype=np.intp)

    def trees(self) -> list[Tree]:
        arrays = self.feature, self.number, self.right, self.count
        return [
            Tree(*(a[t, :size] for a in arrays)) for t, size in enumerate(self.nodes.tolist())
        ]

    def step(self) -> bool:
        """Take and expand the next node of every unfinished tree; False
        when every tree is finished."""
        trees = np.flatnonzero(self.depth)
        if not trees.size:
            return False
        self.depth[trees] -= 1
        start, end, parent = self.stack[trees, self.depth[trees]].T
        node = self.nodes[trees]
        self.nodes[trees] += 1
        if node.max() == self.feature.shape[1]:
            self.feature, self.right = _widen(self.feature, -1), _widen(self.right, -1)
            self.count, self.number = _widen(self.count, 0), _widen(self.number, 0)
        linked = parent >= 0
        self.right[trees[linked], parent[linked]] = node[linked]
        n = end - start
        self.count[trees, node] = n
        # trees are independent, so any grouping gives the same trees
        chunk = (np.cumsum(n) - n) // _ROW_CAP
        for part in np.split(np.arange(trees.size), np.flatnonzero(np.diff(chunk)) + 1):
            self._expand(trees[part], node[part], start[part], n[part])
        return True

    def _expand(self, trees, node, start, n) -> None:
        """Make each node a leaf, or split it and push its children."""
        Xy, n_total, p = self.Xy, self.order.shape[1], self.Xy.shape[1] - 1
        first = np.cumsum(n) - n  # each node's first row among the gathered ones
        segment = np.repeat(np.arange(n.size), n)
        at = np.repeat(trees * n_total + start - first, n) + np.arange(segment.size)
        rows = self.order.reshape(-1)[at]
        yn = Xy[rows, p]
        xy = Xy[rows]
        lo, hi = np.minimum.reduceat(xy, first, axis=0), np.maximum.reduceat(xy, first, axis=0)
        del xy
        # a feature qualifies when some float lies strictly between its min
        # and max over the node sample, so a threshold can separate the rows
        qualifies = np.nextafter(lo[:, :p], hi[:, :p]) < hi[:, :p]
        m = qualifies.sum(axis=1)
        split = (n >= self.min_split) & (lo[:, p] != hi[:, p]) & (m > 0)

        # each node's target sum, for its leaf value or its split scores
        runs = zip(first.tolist(), n.tolist())
        y_sum = np.array([np.add.reduce(yn[a : a + c]) for a, c in runs])
        leaf = ~split
        self.number[trees[leaf], node[leaf]] = y_sum[leaf] / n[leaf]
        if not split.any():
            return

        keep = split[segment]
        rows, yn, at = rows[keep], yn[keep], at[keep]
        trees, node, start, n, lo, hi, m, y_sum = (
            v[split] for v in (trees, node, start, n, lo, hi, m, y_sum)
        )
        first = np.cumsum(n) - n
        segment = np.repeat(np.arange(n.size), n)
        kk = np.minimum(self.k, m)
        # each node's qualifying features, in feature order
        features, ends = np.nonzero(qualifies[split])[1].tolist(), np.cumsum(m).tolist()
        candidates = [features[e - c : e] for e, c in zip(ends, m.tolist())]
        chosen = self.draws.choose(trees, candidates, m, kk)
        s = np.arange(n.size)
        thresholds = self.draws.thresholds(
            trees, lo[s[:, None], chosen], hi[s[:, None], chosen], kk
        )

        # variance reduction of every candidate, written in terms of each
        # side's row count, sum and sum of squares
        drawn = np.arange(chosen.shape[1]) < kk[:, None]
        below = Xy.reshape(-1).take(rows[:, None] * (p + 1) + chosen[segment]) < thresholds[segment]
        # 1 past a node's kk keeps the padding's divisions finite
        n_left = np.where(drawn, np.add.reduceat(below, first, axis=0, dtype=np.intp), 1)
        # Sums whose bits depend on how they are called stay one call per
        # node, on views: the BLAS products add in an order that depends on
        # the shapes, so each node's masks are a C-contiguous float64
        # (rows, kk) block, as in a build of one node at a time.
        masks = below[drawn[segment]].astype(np.float64)
        block = np.cumsum(n * kk) - n * kk
        ysq = yn * yn
        ysq_sum, left_sum, left_sq = [], [], []
        for a, c, b, w in zip(first.tolist(), n.tolist(), block.tolist(), kk.tolist()):
            yv, mv = yn[a : a + c], masks[b : b + c * w].reshape(c, w)
            ysq_sum.append(yv @ yv)
            left_sum.append(yv @ mv)
            left_sq.append(ysq[a : a + c] @ mv)
        ysq_sum = np.array(ysq_sum)
        # Python's ** (C pow) here, as numpy's square can round differently
        parent_var = np.array(
            [(q - t**2 / c) / c for t, q, c in zip(y_sum.tolist(), ysq_sum.tolist(), n.tolist())]
        )
        sums, squares = np.zeros(drawn.shape), np.zeros(drawn.shape)
        sums[drawn], squares[drawn] = np.concatenate(left_sum), np.concatenate(left_sq)
        y_sum, ysq_sum, rows_n = y_sum[:, None], ysq_sum[:, None], n[:, None]
        sse_left = squares - sums * sums / n_left
        right_sum = y_sum - sums
        sse_right = (ysq_sum - squares) - right_sum * right_sum / (rows_n - n_left)
        score = parent_var[:, None] - (sse_left + sse_right) / rows_n
        # the first maximum wins, so ties keep the earliest-drawn candidate
        best = np.where(drawn, score, -math.inf).argmax(axis=1)

        feature, best_score = chosen[s, best], score[s, best]
        self.feature[trees, node] = feature
        self.number[trees, node] = thresholds[s, best]
        # reductions are nonnegative in exact arithmetic; guard float rounding
        self.importance[trees, feature] += (n / n_total) * np.where(
            best_score < 0.0, 0.0, best_score
        )
        # a stable sort by node, then side, partitions each node's rows in
        # place, left rows first
        goes_left = below[np.arange(rows.size), best[segment]]
        self.order.reshape(-1)[at] = rows[np.lexsort((~goes_left, segment))]
        mid = start + n_left[s, best]
        depth = self.depth[trees]
        if depth.max() + 2 > self.stack.shape[1]:
            self.stack = _widen(self.stack, 0)
        self.stack[trees, depth] = np.stack((mid, start + n, node), axis=1)
        self.stack[trees, depth + 1] = np.stack((start, mid, np.full_like(node, -1)), axis=1)
        self.depth[trees] += 2


@dataclass(frozen=True, eq=False)
class ExtraTreesModel:
    """A fitted ensemble: one tree per ``params.n_trees``, the hyperparameters,
    distinct feature names and one finite importance per name."""

    trees: tuple[Tree, ...]
    params: ExtraTreesParams
    feature_names: tuple[str, ...]
    importances: np.ndarray

    def __post_init__(self) -> None:
        if len(self.trees) != self.params.n_trees:
            raise InvalidParamsError(
                f"model has {len(self.trees)} trees for n_trees={self.params.n_trees}"
            )
        if len(set(self.feature_names)) < len(self.feature_names):
            raise InvalidParamsError(f"feature names repeat: {list(self.feature_names)}")
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
        """Decode :meth:`to_json` output; text that is not JSON, or that nests
        deeper than the decoder recurses, raises :class:`InvalidModelError`."""
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise InvalidModelError(f"model document is not decodable JSON: {exc}") from None
        return model_from_dict(doc)


def fit(
    table: FeatureTable, params: ExtraTreesParams, n_threads: int | None = None
) -> ExtraTreesModel:
    """Train an ensemble on a table's feature columns against its target.

    Trees are grown together on the calling thread. ``n_threads`` is
    accepted for compatibility and ignored. Raises :class:`NonFiniteError`
    when the targets are too large for a node's sums of squares to stay
    finite, or when a feature's range (its maximum minus its minimum) is
    not a finite float.
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

    # every node's sums, squares and scores stay finite while 4 * s**2 does;
    # s is at most n * max|target|, so the exact sum is taken only when that
    # bound comes near the limit
    if not len(y) * float(np.abs(y).max()) < 1e150:
        try:
            scale = math.fsum(np.abs(y).tolist())
            finite = math.isfinite(4 * scale * scale)
        except OverflowError:  # fsum overflowed
            finite = False
        if not finite:
            raise NonFiniteError(
                "fit targets are too large: 4 * (sum of |target|)**2 overflows a float"
            )
    # a threshold is drawn strictly inside a node's range, so every column's
    # range must be finite; the table's range bounds them all and is about
    # four times cheaper to take than the columns' (row-major ``X``), so the
    # columns are checked only when it is not finite
    with np.errstate(over="ignore"):
        if not math.isfinite(X.max() - X.min()):
            spans = (X.max(axis=0) - X.min(axis=0)).tolist()
            wide = [name for name, span in zip(names, spans) if not math.isfinite(span)]
            if wide:
                raise NonFiniteError(
                    f"fit features are too wide: max - min overflows a float for {', '.join(wide)}"
                )

    replay = _Replay([np.random.PCG64(params.seed ^ i) for i in range(params.n_trees)], k)
    trees, per_tree = _grow(X, y, params.n_trees, k, params.min_samples_split, replay)
    # each tree's importances are summed on their own, then added in tree
    # order; normalized across the whole ensemble (all zero when no split exists)
    acc = np.zeros(X.shape[1], dtype=np.float64)
    for tree_acc in per_tree:
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
    feature, number = tree.feature.tolist(), tree.number.tolist()
    right, count = tree.right.tolist(), tree.count.tolist()
    docs = [None] * len(feature)
    for i in reversed(range(len(feature))):
        if feature[i] < 0:
            docs[i] = {"kind": "leaf", "value": number[i], "count": count[i]}
        else:
            docs[i] = {
                "kind": "split",
                "feature_index": feature[i],
                "threshold": number[i],
                "left": docs[i + 1],
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
    """A JSON number (an ``int`` or a ``float``, not a ``bool``) as a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidModelError(f"{what} must be a number, got {value!r}")
    number = float(value)  # an integer beyond the float range raises OverflowError
    if not math.isfinite(number):
        raise InvalidModelError(f"{what} must be finite, got {value!r}")
    return number


def _tree_from_dict(doc: dict, n_features: int) -> Tree:
    feature, number, right, count = [], [], [], []
    stack = [(doc, -1)]  # pending nodes, with their parent if a right child
    while stack:
        d, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        kind = d["kind"]
        if kind == "leaf":
            number.append(_finite(d["value"], "leaf value"))
            count.append(_integer(d["count"], "leaf count"))
            if count[-1] < 1:
                raise InvalidModelError(f"leaf count must be at least 1, got {count[-1]}")
            feature.append(-1)
        elif kind == "split":
            index = _integer(d["feature_index"], "feature_index")
            if not 0 <= index < n_features:
                raise InvalidModelError(
                    f"feature_index {index} is outside the {n_features} feature names"
                )
            number.append(_finite(d["threshold"], "split threshold"))
            count.append(0)
            feature.append(index)
            stack.append((d["right"], node))
            stack.append((d["left"], -1))
        else:
            raise InvalidModelError(f"unknown node kind: {kind!r}")
        right.append(-1)
    # documents store counts at leaves only; a split's is its children's total
    for i in reversed(range(len(feature))):
        if feature[i] >= 0:
            count[i] = count[i + 1] + count[right[i]]
    return Tree(feature, number, right, count)


def model_from_dict(d: dict) -> ExtraTreesModel:
    """Decode :func:`model_to_dict` output; malformed documents raise
    :class:`InvalidModelError`, and so does a model its types reject."""
    if not isinstance(d, dict):
        raise InvalidModelError(f"a model document is an object, got {type(d).__name__}")
    if d.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise InvalidModelError(f"unsupported model schema_version: {d.get('schema_version')}")
    try:
        p = d["params"]
        params = ExtraTreesParams(**{f.name: p[f.name] for f in fields(ExtraTreesParams)})
        names = d["feature_names"]
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise InvalidModelError("feature names must be a list of strings")
        trees = tuple(_tree_from_dict(t, len(names)) for t in d["trees"])
        importances = [_finite(v, "importance") for v in d["importances"]]
        return ExtraTreesModel(trees, params, tuple(names), importances)
    except InvalidModelError:
        raise
    except KeyError as exc:
        raise InvalidModelError(f"model document lacks key {exc}") from None
    except (TypeError, ValueError, OverflowError, InvalidParamsError) as exc:
        raise InvalidModelError(f"malformed model document: {exc}") from None
