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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .pool import fork_map
from .rng import FOREST_STREAM, Pcg32, stream

RIDGE = 1e-9


class DegenerateDataError(ValueError):
    """Data cannot support the requested fit (single class, identical rows)."""


_NodeView = namedtuple("_NodeView", "is_leaf")  # a node, as CcTree.nodes shows it


@dataclass
class CcTree:
    """One tree as arrays over its N nodes in preorder. At a split i, a row x
    goes to child left[i] if x[feature[i]] @ projection[i] <= threshold[i],
    else to right[i]; both come after i. A leaf has left = right = -1 and the
    class counts of its training rows. Split fields are zero at leaves and
    counts zero at splits, so a tree has exactly one encoding."""

    feature: np.ndarray  # (N, lambda) int64
    projection: np.ndarray  # (N, lambda) float64
    threshold: np.ndarray  # (N,) float64
    left: np.ndarray  # (N,) int64
    right: np.ndarray  # (N,) int64
    class_counts: np.ndarray  # (N, 2) int64

    @property
    def nodes(self) -> list[_NodeView]:
        # Read only by perfbench's node and leaf counts; ROADMAP item 7 deletes it.
        return [_NodeView(child < 0) for child in self.left.tolist()]


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
    coefficient is positive.

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
    if (x == x[0]).all():
        raise DegenerateDataError("all rows of x are identical")
    lo, hi = labels.min(), labels.max()
    if lo < 0 or hi > 1:
        raise ValueError("labels must be 0 or 1")
    if lo == hi:
        raise DegenerateDataError("only one class present in labels")

    y = np.zeros((n, 2), dtype=np.float64)
    y[np.arange(n), labels] = 1.0
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
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


def _weighted_child_entropy(nl, n0l, n1l, n0r, n1r, n: int) -> np.ndarray:
    """Sum over children of (n_child/n) * H(child), in nats, vectorized.

    The left child holds nl = n0l + n1l rows, the right one n - nl."""
    hl = _entropy_terms(nl) - (_entropy_terms(n0l) + _entropy_terms(n1l))
    hr = _entropy_terms(n - nl) - (_entropy_terms(n0r) + _entropy_terms(n1r))
    return (hl + hr) / n


def _node_entropy(n0: int, n1: int) -> float:
    n = n0 + n1
    h = n * math.log(n)
    for c in (n0, n1):
        if c > 0:
            h -= c * math.log(c)
    return h / n


def _best_split(z: np.ndarray, labels: np.ndarray) -> float | None:
    """Threshold of the best split over midpoints of consecutive distinct values.

    The split maximizes the Shannon entropy reduction (gain, in nats); ties
    resolve to the lowest threshold. The returned threshold t satisfies:
    (z <= t) reproduces the scored partition exactly. Returns None when no
    split has positive gain.
    """
    n = z.shape[0]
    order = np.argsort(z, kind="stable")
    zs = z[order]
    ys = labels[order].astype(np.int64)
    boundaries = np.nonzero(zs[1:] > zs[:-1])[0]
    if boundaries.size == 0:
        return None
    n1 = int(ys.sum())
    n0 = n - n1
    prefix1 = np.cumsum(ys)
    n1l = prefix1[boundaries].astype(np.float64)
    nl = (boundaries + 1).astype(np.float64)
    n0l = nl - n1l
    n1r = n1 - n1l
    n0r = (n - nl) - n1r
    gains = _node_entropy(n0, n1) - _weighted_child_entropy(nl, n0l, n1l, n0r, n1r, n)
    best = int(np.argmax(gains))
    if gains[best] <= 0.0:
        return None
    i = int(boundaries[best])
    thr = (zs[i] + zs[i + 1]) / 2.0
    if thr >= zs[i + 1]:  # midpoint rounded up to the right value
        thr = float(zs[i])
    return float(thr)


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
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y).astype(np.uint8).ravel()
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be (n, d) with one label per row")
    if x.shape[0] < 1:
        raise ValueError("need at least one row")
    d = x.shape[1]
    lam = params.resolve_lambda(d)

    # One row per node in preorder, in CcTree's field order.
    nodes: list[list] = []
    no_feature, no_projection = np.zeros(lam, dtype=np.int64), np.zeros(lam)
    # (row indices, parent node index, attach as left child?)
    stack: list[tuple[np.ndarray, int, bool]] = [(np.arange(x.shape[0]), -1, False)]
    while stack:
        idx, parent, is_left = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][3 if is_left else 4] = node  # its left or right child
        x_node = x[idx]
        y_node = y[idx]
        n = idx.shape[0]
        n1 = int(y_node.sum())
        nodes.append([no_feature, no_projection, 0.0, -1, -1, (n - n1, n1)])  # a leaf
        if n1 in (0, n) or n < params.min_node_size or (x_node == x_node[0]).all():
            continue

        subset = np.sort(rng.sample_without_replacement(d, lam))
        boot = rng.bootstrap_indices(n)
        # Gathered through the transpose so the sample is column-major, the
        # layout whose float reductions in cca_fit the pinned outputs rely on.
        x_boot = x_node.T[np.ix_(subset, boot)].T
        try:
            w = cca_fit(x_boot, y_node[boot])
        except DegenerateDataError:
            try:
                w = cca_fit(x_node[:, subset], y_node)
            except DegenerateDataError:
                continue
        z = x_node[:, subset] @ w
        split = _best_split(z, y_node)
        if split is None:
            continue
        mask = z <= split
        nodes[node] = [subset, w, split, -1, -1, (0, 0)]
        stack.append((idx[~mask], node, False))  # right, processed second
        stack.append((idx[mask], node, True))  # left, processed first
    return CcTree(*(np.array(column) for column in zip(*nodes)))


def tree_depth(tree: CcTree) -> int:
    # Read only by perfbench's depth count; ROADMAP item 7 deletes it.
    depth = [0] * len(tree.left)
    for i, (lo, hi) in enumerate(zip(tree.left.tolist(), tree.right.tolist())):
        if lo >= 0:
            depth[lo] = depth[hi] = depth[i] + 1
    return max(depth)


def apply_tree(tree: CcTree, x: np.ndarray) -> np.ndarray:
    """Leaf node index reached by every row of x."""
    x = np.asarray(x, dtype=np.float64)
    left, right, threshold = tree.left.tolist(), tree.right.tolist(), tree.threshold.tolist()
    out = np.empty(x.shape[0], dtype=np.int64)
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if left[node] < 0:
            out[rows] = node
            continue
        z = x[rows][:, tree.feature[node]] @ tree.projection[node]
        mask = z <= threshold[node]
        stack.append((left[node], rows[mask]))
        stack.append((right[node], rows[~mask]))
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
    bit-identical model. Whole trees are split between ``jobs`` processes,
    the caller and children forked for this call, with the same result.
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
    tasks = [(x, y, params, stream(master_seed, FOREST_STREAM, t)) for t in range(params.n_trees)]
    trees = list(fork_map(grow_tree, tasks, jobs))
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(d)]
    if len(feature_names) != d:
        raise ValueError("feature_names length must match feature count")
    return CcfModel(
        trees=trees,
        feature_names=list(feature_names),
        training_params={
            "n_trees": params.n_trees,
            "n_candidate_features": params.resolve_lambda(d),
            "min_node_size": params.min_node_size,
            "master_seed": master_seed,
        },
    )


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
