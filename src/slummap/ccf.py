"""Canonical correlation forests for binary pixel classification.

Each tree splits on oblique hyperplanes: at every node a random feature
subset is drawn, canonical correlation analysis is run on a bootstrap
resample of the node's rows (the projection bootstrap), all node rows are
projected onto the leading canonical direction, and the threshold with the
best information gain over that projection is taken. Trees train on the full
training set; randomness enters only through the per-node feature subsets
and bootstraps, drawn from per-tree PCG32 streams keyed by
``(master_seed, FOREST_STREAM, tree_index)``. RNG is consumed in depth-first
node order (left subtree first), subset before bootstrap, which makes
training a pure function of (data, seed).

A tree is a set of arrays over its nodes in that preorder (see CcTree); a
leaf scores the rows routed to it with the class frequencies of its counts.

This module holds the classifier alone; :mod:`slummap.experiment` writes and
reads the model file.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .pool import fork_map, release_free_heap
from .rng import FOREST_STREAM, Pcg32, stream

RIDGE = 1e-9
# Seconds of serial tree growing that pay for a fork. Forked shares run
# slower than serial ones (copy-on-write faults on both sides, and reaping):
# on a 2-core Xeon, 10 trees over 2 processes lost wall time on a 64² glcm
# scene (9 trees at tree 0's pace: 18 ms), broke even at 128² (50 ms) and
# gained from 256² up (0.23 s). The constant sits in that gap.
_FORK_BREAK_EVEN_S = 0.1


class DegenerateDataError(ValueError):
    """Data cannot support the requested fit (single class, identical rows)."""


_NodeView = namedtuple("_NodeView", "is_leaf")  # a node, as CcTree.nodes shows it


@dataclass
class CcTree:
    """One tree as arrays over its N nodes in preorder. A split i sends a row x
    to its left child, node i + 1, if x[feature[i]] @ projection[i] <=
    threshold[i], else to its right child, past the left subtree. A leaf holds
    the class counts of its training rows, not both 0, and zero split fields; a
    split holds counts (0, 0). The leaves fix the shape: no child index is kept."""

    feature: np.ndarray  # (N, lambda) int64
    projection: np.ndarray  # (N, lambda) float64
    threshold: np.ndarray  # (N,) float64
    class_counts: np.ndarray  # (N, 2) int64

    @property
    def nodes(self) -> list[_NodeView]:
        # Read only by perfbench's node and leaf counts; ROADMAP item 7 deletes it.
        return [_NodeView(leaf) for leaf in self.class_counts.any(axis=1).tolist()]


@dataclass
class CcfModel:
    trees: list[CcTree]
    feature_names: list[str]
    training_params: dict

    def __post_init__(self):
        if not self.trees:
            raise ValueError("a model needs at least one tree")


@dataclass(frozen=True)
class ForestParams:
    """Classifier settings, carried from the [forest] config section to grow_tree."""

    n_trees: int = 10
    min_node_size: int = 2
    n_candidate_features: int | None = None  # None = ceil(sqrt(d))

    def __post_init__(self):
        for name in ("n_trees", "min_node_size", "n_candidate_features"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "n_candidate_features" and value is None):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.min_node_size < 1:
            raise ValueError("min_node_size must be >= 1")
        if self.n_candidate_features is not None and self.n_candidate_features < 1:
            raise ValueError("n_candidate_features must be >= 1, or unset for ceil(sqrt(d))")

    def resolve_lambda(self, d: int) -> int:
        if self.n_candidate_features:
            lam = self.n_candidate_features
        else:
            lam = math.isqrt(d)  # exact ceil(sqrt(d))
            if lam * lam < d:
                lam += 1
        return max(1, min(lam, d))


# ---------------------------------------------------------------------------
# CCA
# ---------------------------------------------------------------------------


def _inv_sqrt(s: np.ndarray, floor: float) -> np.ndarray:
    w, v = np.linalg.eigh(s)
    # The ridge guarantees eigenvalues >= floor mathematically; clamp what
    # rounding pushed below it.
    w = np.maximum(w, floor)
    return (v / np.sqrt(w)) @ v.T


def cca_fit(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Leading canonical direction between features x and 0/1 labels, shape (d,).

    Covariance-block formulation: the labels become one-hot (n, 2) columns,
    both auto-covariance blocks get ``RIDGE`` added to their diagonals, the
    cross-covariance is whitened on both sides and decomposed by SVD. With
    two classes this is the Fisher LDA direction ``(Sxx + RIDGE*I)^-1 (mu1 -
    mu0)`` up to scale. The sign is canonicalized so the first nonzero
    coefficient is positive. The centred one-hot block is read off a 2x2
    table, as the column means of 0/1 values are exact counts over n.

    The column means of x and the products round according to the memory
    layout of x; grow_tree always passes a column-major sample, and the
    pinned models depend on that.

    Raises DegenerateDataError when all rows of x are identical or only one
    class is present.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels).astype(np.intp, copy=False)
    if x.ndim != 2 or labels.ndim != 1 or x.shape[0] != labels.shape[0]:
        raise ValueError("x must be (n, d) and labels (n,) with matching n")
    n, d = x.shape
    if n < 2:
        raise DegenerateDataError("need at least two rows")
    if (x[:, 0] == x[0, 0]).all() and (x == x[0]).all():
        raise DegenerateDataError("all rows of x are identical")
    lo, hi = labels.min(), labels.max()
    if lo < 0 or hi > 1:
        raise ValueError("labels must be 0 or 1")
    if lo == hi:
        raise DegenerateDataError("only one class present in labels")

    # The one-hot columns hold exact counts, so their means are [n0, n1] / n
    # and each centred row is a row of eye(2) less those means.
    n1 = np.count_nonzero(labels)
    yc = (np.eye(2) - np.array([n - n1, n1]) / n).take(labels, axis=0)
    xc = x - x.mean(axis=0)
    sxx = xc.T @ xc / (n - 1) + RIDGE * np.eye(d)
    syy = yc.T @ yc / (n - 1) + RIDGE * np.eye(2)
    sxy = xc.T @ yc / (n - 1)

    isx = _inv_sqrt(sxx, RIDGE)
    isy = _inv_sqrt(syy, RIDGE)
    u, _, _ = np.linalg.svd(isx @ sxy @ isy)
    # A (d, 1) product, not a matrix-vector one: the pinned outputs rely on
    # its rounding.
    w = (isx @ u[:, :1])[:, 0]
    nonzero = np.nonzero(w)[0]
    if nonzero.size and w[nonzero[0]] < 0:
        w = -w
    return w


# ---------------------------------------------------------------------------
# tree induction
# ---------------------------------------------------------------------------


def _entropy_terms(counts: np.ndarray) -> np.ndarray:
    """c ln c per count; +0.0 at c = 0, where ln(max(c, 1)) is 0."""
    c = np.asarray(counts, dtype=np.float64)
    return c * np.log(np.maximum(c, 1.0))


def _weighted_child_entropy(terms, nl, n0l, n1l, n0r, n1r, n: int) -> np.ndarray:
    """Sum over children of (n_child/n) * H(child), in nats, vectorized.

    The counts are integer arrays and terms[c] = c ln c (an _entropy_terms
    table over 0..n); the left child holds nl = n0l + n1l rows, the right one
    n - nl."""
    hl = terms[nl] - (terms[n0l] + terms[n1l])
    hr = terms[n - nl] - (terms[n0r] + terms[n1r])
    return (hl + hr) / n


def _node_entropy(n0: int, n1: int) -> float:
    n = n0 + n1
    h = n * math.log(n)
    for c in (n0, n1):
        if c > 0:
            h -= c * math.log(c)
    return h / n


def _best_split(z: np.ndarray, labels: np.ndarray, terms: np.ndarray) -> float | None:
    """Threshold of the best split over midpoints of consecutive distinct values.

    The split maximizes the Shannon entropy reduction (gain, in nats); ties
    resolve to the lowest threshold. The returned threshold t satisfies:
    (z <= t) reproduces the scored partition exactly. Returns None when no
    split has positive gain. ``terms`` is an _entropy_terms table over at
    least 0..len(z).

    The sort need not be stable: the class counts left of a boundary between
    two distinct values do not depend on how equal values are ordered, so
    neither do the gains or the threshold.
    """
    n = z.shape[0]
    order = np.argsort(z)
    zs = z[order]
    boundaries = np.nonzero(zs[1:] > zs[:-1])[0]
    if boundaries.size == 0:
        return None
    prefix1 = np.cumsum(labels[order], dtype=np.int64)
    n1 = int(prefix1[-1])
    n0 = n - n1
    n1l = prefix1[boundaries]
    nl = boundaries + 1
    n0l = nl - n1l
    n1r = n1 - n1l
    n0r = (n - nl) - n1r
    gains = _node_entropy(n0, n1) - _weighted_child_entropy(terms, nl, n0l, n1l, n0r, n1r, n)
    best = int(np.argmax(gains))
    if gains[best] <= 0.0:
        return None
    i = int(boundaries[best])
    thr = (zs[i] + zs[i + 1]) / 2.0
    if thr >= zs[i + 1]:  # midpoint rounded up to the right value
        thr = float(zs[i])
    return float(thr)


def _rows_identical(xt: np.ndarray, idx: np.ndarray) -> bool:
    """Whether rows idx of xt.T agree in every feature, read one column at a time."""
    first = idx[0]
    return all((column.take(idx) == column[first]).all() for column in xt)


def grow_tree(
    x: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    rng: Pcg32,
) -> CcTree:
    """Induce one canonical correlation tree on (x, y).

    Stops at pure nodes, nodes below the minimum size, and nodes whose rows
    are identical across all features; every other degeneracy (single-class
    bootstrap, constant sampled subset, no positive-gain threshold) also
    resolves to a leaf. Splitting projects all node rows on the leading
    canonical direction of a bootstrap resample; rows with projection <=
    threshold go left.

    Every gather reads xt, the (d, n) row-major transpose of x, which is a
    view when x is column-major (train_forest passes it so) and a copy
    otherwise. A node's lambda columns, and their bootstrap sample, come out
    as (lambda, m) row-major blocks, so cca_fit and the projection read their
    (m, lambda) transposes: column-major, strides (8, 8m). The axis-0 means
    and BLAS products round by layout, and the pinned models rest on this one.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y).astype(np.uint8).ravel()
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be (n, d) with one label per row")
    if x.shape[0] < 1:
        raise ValueError("need at least one row")
    n_rows, d = x.shape
    lam = params.resolve_lambda(d)
    xt = np.ascontiguousarray(x.T)
    terms = _entropy_terms(np.arange(n_rows + 1))

    # One row per node in preorder, in CcTree's field order.
    nodes: list[list] = []
    no_feature, no_projection = np.zeros(lam, dtype=np.int64), np.zeros(lam)
    stack = [np.arange(n_rows)]  # the row indices of the nodes still to grow
    while stack:
        idx = stack.pop()
        y_node = y[idx]
        n = idx.shape[0]
        n1 = int(y_node.sum())
        nodes.append([no_feature, no_projection, 0.0, (n - n1, n1)])  # a leaf
        if n1 in (0, n) or n < params.min_node_size or _rows_identical(xt, idx):
            continue

        subset = np.sort(rng.sample_without_replacement(d, lam))
        boot = rng.bootstrap_indices(n)
        x_sub = xt.take(subset[:, None] * n_rows + idx)  # (lam, n) row-major
        try:
            w = cca_fit(x_sub.take(boot, axis=1).T, y_node[boot])
        except DegenerateDataError:
            try:
                w = cca_fit(x_sub.T, y_node)
            except DegenerateDataError:
                continue
        z = x_sub.T @ w
        split = _best_split(z, y_node, terms)
        if split is None:
            continue
        mask = z <= split
        nodes[-1] = [subset, w, split, (0, 0)]
        stack += [idx[~mask], idx[mask]]  # right, then left, grown next as node + 1
    return CcTree(*(np.array(column) for column in zip(*nodes)))


def tree_depth(tree: CcTree) -> int:
    # Read only by perfbench's depth count; ROADMAP item 7 deletes it.
    deepest, pending = 0, [0]  # the depths of the nodes to come, the next one last
    for leaf in tree.class_counts.any(axis=1).tolist():
        depth = pending.pop()
        deepest = max(deepest, depth)
        if not leaf:
            pending += [depth + 1] * 2
    return deepest


def apply_tree(tree: CcTree, x: np.ndarray) -> np.ndarray:
    """Leaf node index reached by every row of x.

    The walk takes the nodes in preorder, each popping its rows off a stack its
    parent pushed, and counts its way past the subtrees of a split no row reaches.

    A split projects its rows' lambda columns as one (rows, lambda)
    column-major block, as indexing x along axis 1 gives it; the BLAS product
    rounds by layout, and the pinned maps rest on this one. Each node builds
    the block by the gather that copies fewer values, and none copies all
    of x: a node holding at most lambda / d of the rows takes its rows
    first, then its columns; one holding more takes its columns first, then
    its rows; one holding every row (the root) takes its columns alone.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    few = n * tree.feature.shape[1] // d  # up to this many rows, rows first copies less
    threshold = tree.threshold.tolist()
    out = np.empty(n, dtype=np.int64)
    pending, skip = [np.arange(n)], 0  # the rows of the nodes to come, the next one's last
    for node, leaf in enumerate(tree.class_counts.any(axis=1).tolist()):
        if skip:  # the subtrees still open below a split no row reaches
            skip += -1 if leaf else 1
            continue
        rows = pending.pop()
        if leaf:
            out[rows] = node
        elif rows.size == 0:
            skip = 2
        else:
            if rows.size <= few:
                block = x[rows][:, tree.feature[node]]
            elif rows.size < n:
                block = x[:, tree.feature[node]].T.take(rows, axis=1).T
            else:
                block = x[:, tree.feature[node]]
            z = block @ tree.projection[node]
            mask = z <= threshold[node]
            pending += [rows[~mask], rows[mask]]  # right, then left: node + 1
    return out


def _tree_probabilities(tree: CcTree, x: np.ndarray) -> np.ndarray:
    """Class frequencies n0 / (n0 + n1) and n1 / (n0 + n1) of the leaf each row reaches."""
    counts = tree.class_counts  # zero at splits, so their frequencies come out 0
    return (counts / np.maximum(counts.sum(axis=1, keepdims=True), 1))[apply_tree(tree, x)]


# ---------------------------------------------------------------------------
# forest
# ---------------------------------------------------------------------------


def train_forest(
    x: np.ndarray,
    y: np.ndarray,
    params: ForestParams = ForestParams(),
    master_seed: int = 0,
    feature_names: list[str] | None = None,
    jobs: int = 1,
) -> CcfModel:
    """Train params.n_trees canonical correlation trees, each on the full data.

    There is no forest-level bagging; diversity comes from per-node feature
    subsampling and projection bootstraps. Tree t draws from the stream keyed
    by (master_seed, FOREST_STREAM, t), so identical inputs and seed give a
    bit-identical model. The caller grows tree 0 first and times it. If the
    other trees would take longer than _FORK_BREAK_EVEN_S at that pace, they
    are split between up to ``jobs`` processes, the caller and children
    forked for this call, the caller taking the smaller share; otherwise the
    caller grows them too. Each tree is the same either way, so the choice,
    which depends on the host's speed, never reaches the model.

    Every tree reads x column-major. Pass it so (run_experiment scales into
    that layout) and no copy of x is made; any other x is copied to it here,
    before the fork.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y).astype(np.uint8).ravel()
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be (n, d) with one label per row")
    if x.shape[0] < 2:
        raise DegenerateDataError("need at least two training rows")
    if y.min() == y.max():
        raise DegenerateDataError("training set holds a single class")
    d = x.shape[1]
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(d)]
    if len(feature_names) != d:
        raise ValueError("feature_names length must match feature count")
    x = np.asfortranarray(x)  # grow_tree gathers from its transpose
    tasks = [(x, y, params, stream(master_seed, FOREST_STREAM, t)) for t in range(params.n_trees)]
    start = time.perf_counter()
    trees = [grow_tree(*tasks[0])]
    rest = tasks[1:]
    if (time.perf_counter() - start) * len(rest) < _FORK_BREAK_EVEN_S:
        jobs = 1
    trees += fork_map(grow_tree, rest, jobs)
    release_free_heap()
    return CcfModel(trees, list(feature_names), training_params(params, d, master_seed))


def training_params(params: ForestParams, d: int, master_seed: int) -> dict:
    """What a model records of its training on d features, as the model file holds it."""
    return dict(n_trees=params.n_trees, n_candidate_features=params.resolve_lambda(d),
                min_node_size=params.min_node_size, master_seed=master_seed)


def predict(model: CcfModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Route rows down every tree and average the leaf distributions.

    Returns (labels, probabilities); exact posterior ties go to class 0
    (non-slum).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(model.feature_names):
        got = x.shape[1] if x.ndim == 2 else None
        raise ValueError(
            f"feature dimension mismatch: model expects {len(model.feature_names)}, got {got}"
        )
    probs = np.zeros((x.shape[0], 2), dtype=np.float64)
    for tree in model.trees:
        probs += _tree_probabilities(tree, x)
    probs /= len(model.trees)
    labels = (probs[:, 1] > probs[:, 0]).astype(np.uint8)
    return labels, probs
