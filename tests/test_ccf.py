import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slummap import ccf
from slummap.ccf import (
    CcfModel,
    CcTree,
    DegenerateDataError,
    ForestParams,
    RIDGE,
    _best_split,
    _entropy_terms,
    _node_entropy,
    _weighted_child_entropy,
    apply_tree,
    cca_fit,
    grow_tree,
    predict,
    train_forest,
)
from slummap.experiment import (
    ModelFormatError,
    Pipeline,
    ScalerStats,
    load_pipeline,
    save_pipeline,
)
from slummap.rng import FOREST_STREAM, stream

from .oracles import apply_tree_oracle, grow_tree_oracle, lda_direction_oracle, preorder_right


def pearson(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    ac = a - a.mean()
    bc = b - b.mean()
    return float((ac @ bc) / math.sqrt((ac @ ac) * (bc @ bc)))


# ---------------------------------------------------------------------------
# cca_fit
# ---------------------------------------------------------------------------


def one_minus_abs_cos(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return 1.0 - abs(float(a @ b)) / math.sqrt(float(a @ a) * float(b @ b))


def test_cca_two_valued_symmetric_feature_is_perfectly_correlated():
    # x in {-2, +2}, balanced, class = 1 exactly when x > 0: the projection
    # of x is an affine function of the class indicator, so its correlation
    # with the class is 1.
    rng = np.random.default_rng(5)
    x = np.array([-2.0] * 25 + [2.0] * 25)
    perm = rng.permutation(50)
    x = x[perm].reshape(-1, 1)
    y = (x[:, 0] > 0).astype(np.uint8)
    assert pearson(x[:, 0], y) == pytest.approx(1.0, abs=1e-12)
    w = cca_fit(x, y)
    assert w.shape == (1,)
    assert w[0] > 0
    assert abs(pearson(x @ w, y)) == pytest.approx(1.0, abs=1e-6)


def test_cca_noise_has_small_leading_correlation():
    rng = np.random.default_rng(123)
    x = rng.uniform(size=(10000, 5))
    y = np.zeros(10000, dtype=np.uint8)
    y[rng.permutation(10000)[:5000]] = 1
    w = cca_fit(x, y)
    assert abs(pearson(x @ w, y)) < 0.05


def test_cca_duplicated_column_matches_single_column():
    rng = np.random.default_rng(7)
    x1 = rng.normal(size=(200, 1))
    y = (x1[:, 0] + 0.3 * rng.normal(size=200) > 0).astype(np.uint8)
    single = cca_fit(x1, y)
    x2 = np.hstack([x1, x1])
    duplicated = cca_fit(x2, y)
    # The ridge splits the weight evenly over the two copies.
    assert duplicated[0] == pytest.approx(duplicated[1], rel=1e-6)
    assert abs(pearson(x2 @ duplicated, y)) == pytest.approx(
        abs(pearson(x1 @ single, y)), abs=1e-6
    )


def test_cca_degenerate_inputs_raise():
    x = np.ones((10, 3))
    y = np.array([0, 1] * 5, dtype=np.uint8)
    with pytest.raises(DegenerateDataError, match="identical"):
        cca_fit(x, y)
    x2 = np.random.default_rng(0).normal(size=(10, 3))
    with pytest.raises(DegenerateDataError, match="one class"):
        cca_fit(x2, np.zeros(10, dtype=np.uint8))
    with pytest.raises(DegenerateDataError, match="two rows"):
        cca_fit(x2[:1], np.array([0], dtype=np.uint8))


def test_cca_sample_constant_in_column_zero_only_is_not_degenerate():
    x = np.column_stack([np.full(6, 2.5), np.arange(6.0)])
    labels = np.array([0, 0, 0, 1, 1, 1])
    w = cca_fit(x, labels)
    assert np.isfinite(w).all() and w[1] > 0
    np.testing.assert_allclose(w[1:], cca_fit(x[:, 1:], labels), rtol=1e-6)


def test_cca_rejects_labels_other_than_zero_and_one():
    x = np.random.default_rng(0).normal(size=(6, 2))
    for labels in ([0, 1, 2, 0, 1, 0], [0, 1, -1, 0, 1, 0]):
        with pytest.raises(ValueError, match="0 or 1"):
            cca_fit(x, np.array(labels))
    with pytest.raises(ValueError, match="matching n"):
        cca_fit(x, np.array([0, 1]))


def test_cca_direction_matches_lda_oracle():
    # Small n and d up to 5 include rank-deficient covariances (n <= d),
    # where the ridge alone keeps the system solvable.
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.uint8)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        w = cca_fit(x, y)
        assert w.shape == (d,)
        oracle = lda_direction_oracle(x.tolist(), y.tolist(), RIDGE)
        assert one_minus_abs_cos(w, oracle) <= 1e-9


def test_cca_invariant_under_invertible_transform():
    # For x' = x A + b the direction is A^-1 w up to scale, so both project
    # the rows onto proportional values.
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(30, 100))
        d = int(rng.integers(2, 6))
        x = rng.normal(size=(n, d))
        y = (x[:, 0] + rng.normal(size=n) > 0).astype(np.uint8)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        while True:
            a = rng.normal(size=(d, d))
            if np.linalg.cond(a) < 50:
                break
        shifted = x @ a + rng.normal(size=d)
        base = cca_fit(x, y)
        transformed = cca_fit(shifted, y)
        assert one_minus_abs_cos(a @ transformed, base) <= 1e-6
        assert abs(pearson(x @ base, shifted @ transformed)) == pytest.approx(1.0, abs=1e-6)


def test_cca_sign_canonicalization():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(100, 4))
    y = (x[:, 1] > 0).astype(np.uint8)
    w = cca_fit(x, y)
    assert w[np.nonzero(w)[0][0]] > 0
    # Negating x negates the direction, which the sign rule turns back.
    np.testing.assert_allclose(cca_fit(-x, y), w, rtol=1e-9)


# ---------------------------------------------------------------------------
# grow_tree
# ---------------------------------------------------------------------------


def _distribution(tree: CcTree, node: int) -> tuple[float, float]:
    """Class frequencies of a leaf's training rows."""
    n0, n1 = tree.class_counts[node].tolist()
    return n0 / (n0 + n1), n1 / (n0 + n1)


def _parsed(tree: CcTree) -> tuple[list[int], list[int]]:
    """Each node's right child (-1 at a leaf) as preorder_right parses it off the
    leaves, and each node's depth along those explicit children."""
    right = preorder_right(tree.class_counts.any(axis=1).tolist())
    assert right is not None, "the leaves are not one preorder tree"
    depth = [0] * len(right)
    for i, child in enumerate(right):
        if child >= 0:
            depth[i + 1] = depth[child] = depth[i] + 1
    return right, depth


def _depth(tree: CcTree) -> int:
    return max(_parsed(tree)[1])


def _trees(model: CcfModel) -> list[list[bytes]]:
    """Every array of every tree, bit for bit."""
    return [[getattr(t, f.name).tobytes() for f in fields(t)] for t in model.trees]


def test_pure_node_is_single_leaf():
    x = np.random.default_rng(0).normal(size=(20, 3))
    y = np.ones(20, dtype=np.uint8)
    tree = grow_tree(x, y, ForestParams(), stream(0, FOREST_STREAM, 0))
    assert len(tree.threshold) == 1
    assert _distribution(tree, 0) == (0.0, 1.0)


def test_oblique_line_split_reaches_training_accuracy_one():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(120, 2))
    margin = np.abs(x.sum(axis=1)) > 0.05  # keep a clear corridor, no ties
    x = x[margin]
    y = (x.sum(axis=1) > 0).astype(np.uint8)
    tree = grow_tree(x, y, ForestParams(), stream(0, FOREST_STREAM, 0))
    leaves = apply_tree(tree, x)
    pred = np.array([_distribution(tree, i)[1] > 0.5 for i in leaves])
    assert (pred == y.astype(bool)).all()
    # an oblique split can solve this linearly separable layout very shallowly
    assert _depth(tree) <= 3


def test_xor_layout_needs_depth_two_and_fits_training_data():
    rng = np.random.default_rng(2)
    centres = np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]], dtype=float)
    labels = np.array([0, 0, 1, 1], dtype=np.uint8)
    x = np.vstack([c + 0.05 * rng.normal(size=(20, 2)) for c in centres])
    y = np.repeat(labels, 20)
    tree = grow_tree(x, y, ForestParams(), stream(0, FOREST_STREAM, 0))
    leaves = apply_tree(tree, x)
    pred = np.array([_distribution(tree, i)[1] > 0.5 for i in leaves])
    assert (pred == y.astype(bool)).all()
    assert _depth(tree) >= 2


def _terms(n: int) -> np.ndarray:
    """The c ln c table grow_tree builds for a tree over n rows."""
    return _entropy_terms(np.arange(n + 1))


def test_best_split_prefers_clean_boundary():
    z = np.array([0.0, 1.0, 2.0, 3.0])
    labels = np.array([0, 0, 1, 1], dtype=np.uint8)
    assert _best_split(z, labels, _terms(4)) == pytest.approx(1.5)
    # That split separates the classes: the gain is the whole node entropy.
    two, zero = np.array([2]), np.array([0])
    gain = _node_entropy(2, 2) - _weighted_child_entropy(_terms(4), two, two, zero, zero, two, 4)
    assert gain[0] == pytest.approx(math.log(2), abs=1e-12)


def test_best_split_returns_none_without_gain():
    assert _best_split(np.zeros(4), np.array([0, 1, 0, 1], dtype=np.uint8), _terms(4)) is None


def test_weighted_child_entropy_matches_definition():
    rng = np.random.default_rng(13)
    counts = rng.integers(0, 6, size=(200, 4))
    counts[counts.sum(axis=1) == 0, 0] = 1
    totals = counts.sum(axis=1)
    terms = _terms(int(totals.max()))

    def entropy(a, b):
        return -sum(c / (a + b) * math.log(c / (a + b)) for c in (a, b) if c > 0)

    for n in set(totals.tolist()):
        n0l, n1l, n0r, n1r = counts[totals == n].T
        got = _weighted_child_entropy(terms, n0l + n1l, n0l, n1l, n0r, n1r, n)
        for g, (a, b, c, e) in zip(got.tolist(), counts[totals == n].tolist()):
            expected = (a + b) / n * entropy(a, b) + (c + e) / n * entropy(c, e)
            assert g == pytest.approx(expected, abs=1e-12)


def test_entropy_table_equals_terms_computed_per_count():
    # The table is read in place of c ln c over float counts; it must hold the
    # same doubles, whatever the length and alignment of the array logged.
    table = _terms(5000)
    rng = np.random.default_rng(4)
    for size in (1, 2, 7, 8, 9, 31, 1693, 4999):
        counts = rng.integers(0, 5001, size=size)
        assert table[counts].tobytes() == _entropy_terms(counts.astype(np.float64)).tobytes()
        offset = rng.integers(0, 5)
        chunk = np.arange(offset, offset + size, dtype=np.float64)
        assert table[offset : offset + size].tobytes() == _entropy_terms(chunk).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), min_size=2, max_size=60),
    seed=st.integers(0, 2**32 - 1),
)
def test_best_split_threshold_does_not_depend_on_the_order_of_ties(data, seed):
    # Six distinct values over up to 60 rows: most rows tie with others.
    z = np.array([v for v, _ in data], dtype=np.float64) / 3.0
    labels = np.array([c for _, c in data], dtype=np.uint8)
    terms = _terms(len(z))
    expected = _best_split(z, labels, terms)
    for _ in range(3):
        perm = np.random.default_rng(seed).permutation(len(z))
        seed += 1
        assert _best_split(z[perm], labels[perm], terms) == expected
    # Reversing the rows reverses the order of every run of ties.
    assert _best_split(z[::-1].copy(), labels[::-1].copy(), terms) == expected


def test_split_partition_matches_threshold_evaluation():
    # adjacent doubles: the midpoint may round onto the upper value, in which
    # case the lower value itself must be used so (z <= t) still separates.
    a = 1.0
    b = np.nextafter(a, 2.0)
    z = np.array([a, a, b, b])
    labels = np.array([0, 0, 1, 1], dtype=np.uint8)
    threshold = _best_split(z, labels, _terms(4))
    assert ((z <= threshold) == np.array([True, True, False, False])).all()


def _assert_tree_equals_oracle(x, y, params=ForestParams(), key=(0, 0)):
    tree = grow_tree(x, y, params, stream(key[0], FOREST_STREAM, key[1]))
    lam = params.resolve_lambda(x.shape[1])
    expected = grow_tree_oracle(x, y, lam, params.min_node_size, stream(key[0], FOREST_STREAM, key[1]))
    # The reference grower places each child itself; the preorder must put
    # every split's left child right after it, and its right child where the
    # leaves close the left subtree, which is why CcTree stores neither.
    left, right = expected.pop(3), expected.pop(3)
    assert left.tolist() == [-1 if r == -1 else i + 1 for i, r in enumerate(right.tolist())]
    assert right.tolist() == preorder_right(tree.class_counts.any(axis=1).tolist())
    got = [getattr(tree, f.name) for f in fields(tree)]
    assert len(got) == len(expected) == 4
    for field, a, b in zip(fields(tree), got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        assert a.tobytes() == b.tobytes(), field.name
    return tree


def test_rows_equal_in_leading_columns_still_split_as_the_reference_grower():
    # Columns 0 and 1 are constant on every node, so the identical-rows test
    # must read on to a later column before it can tell the rows apart.
    rng = np.random.default_rng(21)
    x = np.zeros((80, 4))
    x[:, 0] = 3.0
    x[:, 1] = -1.0
    x[:, 2] = rng.normal(size=80)
    x[:, 3] = rng.normal(size=80)
    y = (x[:, 2] + 0.3 * x[:, 3] > 0).astype(np.uint8)
    tree = _assert_tree_equals_oracle(x, y, ForestParams(n_candidate_features=2))
    assert len(tree.threshold) > 1
    # Only the last column differs, and only between two halves.
    x = np.ones((40, 3))
    x[20:, 2] = 2.0
    y = np.repeat(np.array([0, 1], dtype=np.uint8), 20)
    tree = _assert_tree_equals_oracle(x, y, ForestParams(n_candidate_features=3))
    assert tree.class_counts[0].tolist() == [0, 0]  # the root splits


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 120),
    d=st.integers(1, 6),
    levels=st.integers(1, 4),
    min_node_size=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_grow_tree_equals_reference_grower(n, d, levels, min_node_size, seed):
    # Few levels per feature: many tied projections, duplicated rows and
    # nodes whose rows agree in some columns only.
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, d)).astype(np.float64)
    y = rng.integers(0, 2, size=n).astype(np.uint8)
    _assert_tree_equals_oracle(x, y, ForestParams(min_node_size=min_node_size), key=(seed, 1))


def test_identical_rows_with_mixed_labels_are_one_leaf_and_draw_nothing():
    x = np.tile(np.array([[0.5, -2.0, 7.0]]), (30, 1))
    y = np.array([0, 1] * 15, dtype=np.uint8)
    rng = stream(0, FOREST_STREAM, 0)
    tree = grow_tree(x, y, ForestParams(), rng)
    assert len(tree.threshold) == 1
    assert tree.class_counts.tolist() == [[15, 15]]
    assert rng.next_u32() == stream(0, FOREST_STREAM, 0).next_u32()


def test_information_gain_positive_at_every_split():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(100, 4))
    y = (x[:, 0] * x[:, 1] > 0).astype(np.uint8)
    tree = grow_tree(x, y, ForestParams(), stream(3, FOREST_STREAM, 1))
    for i, right in enumerate(_parsed(tree)[0]):
        if right == -1:
            total = int(tree.class_counts[i].sum())
            assert sum(_distribution(tree, i)) == pytest.approx(1.0, abs=1e-12)
            assert total > 0
        else:
            assert i + 1 < right < len(tree.threshold)


@pytest.mark.parametrize("data_seed", [0, 1, 2, 3, 4])
def test_leaf_partition_invariant_under_positive_feature_scaling(data_seed):
    rng = np.random.default_rng(data_seed)
    x = rng.uniform(size=(40, 3))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0.75).astype(np.uint8)
    if y.min() == y.max():
        pytest.skip("degenerate draw")
    scale = np.array([0.5, 4.0, 2.0])
    shift = np.array([1.0, -3.0, 0.25])
    params = ForestParams()
    tree_a = grow_tree(x, y, params, stream(0, FOREST_STREAM, 0))
    tree_b = grow_tree(x * scale + shift, y, params, stream(0, FOREST_STREAM, 0))
    leaves_a = apply_tree(tree_a, x)
    leaves_b = apply_tree(tree_b, x * scale + shift)
    groups_a = {frozenset(np.nonzero(leaves_a == l)[0].tolist()) for l in set(leaves_a)}
    groups_b = {frozenset(np.nonzero(leaves_b == l)[0].tolist()) for l in set(leaves_b)}
    assert groups_a == groups_b


def _tree_with_ties(x: np.ndarray, lam: int, depth: int, rng) -> CcTree:
    """A random tree over x whose every threshold is the projection of one of
    the rows that reach its split, as apply_tree_oracle computes it: a router
    that rounds any projection differently sends some row the other way. It
    grows on below nodes no row reaches, with thresholds drawn at random, so
    a router must walk through subtrees that hold no rows."""
    nodes = []

    def grow(rows, level):
        node = len(nodes)
        nodes.append([np.zeros(lam, dtype=np.int64), np.zeros(lam), 0.0, (1, 1)])
        if level == depth or rng.random() < 0.15:
            return
        feature = np.sort(rng.choice(x.shape[1], lam, replace=False))
        w = rng.normal(size=lam)
        z = x[rows][:, feature] @ w
        threshold = float(z[rng.integers(z.size)]) if z.size else float(rng.normal())
        mask = z <= threshold
        nodes[node] = [feature, w, threshold, (0, 0)]
        grow(rows[mask], level + 1)  # the left child, node + 1
        grow(rows[~mask], level + 1)

    grow(np.arange(x.shape[0]), 0)
    return CcTree(*(np.array(column) for column in zip(*nodes)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 400),
    d=st.integers(1, 12),
    lam_share=st.floats(0.0, 1.0),
    depth=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_tree_equals_reference_router(n, d, lam_share, depth, seed):
    # Every gather order apply_tree picks (the root's columns, columns then
    # rows, rows then columns) must project exactly as the reference does.
    rng = np.random.default_rng(seed)
    lam = 1 + int(lam_share * (d - 1))
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 1000.0, size=d)
    tree = _tree_with_ties(x, lam, depth, rng)
    expected = apply_tree_oracle(tree, x)
    for layout in (x, np.asfortranarray(x)):
        assert apply_tree(tree, layout).tolist() == expected.tolist()


def test_apply_tree_walks_through_subtrees_no_row_reaches():
    # A split no row reaches, and its subtree, come in preorder before a leaf
    # some row reaches: a router that loses its place in that subtree sends
    # the row to the wrong leaf.
    x = np.random.default_rng(8).normal(size=(6, 3))
    rng = np.random.default_rng(8)
    for _ in range(100):
        tree = _tree_with_ties(x, 2, 5, rng)
        right = _parsed(tree)[0]
        parent = {}
        for i, child in enumerate(right):
            if child >= 0:
                parent[i + 1] = parent[child] = i
        leaves = apply_tree_oracle(tree, x).tolist()
        reached = set(leaves)
        for node in leaves:
            while node in parent:
                node = parent[node]
                reached.add(node)
        if any(child >= 0 and i not in reached for i, child in enumerate(right[: max(leaves)])):
            break
    else:
        pytest.fail("no tree has an unreached split before a reached leaf")
    for layout in (x, np.asfortranarray(x)):
        assert apply_tree(tree, layout).tolist() == leaves


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 120),
    d=st.integers(1, 6),
    levels=st.integers(1, 4),
    depth=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_depth_and_leaves_equal_those_of_the_parsed_tree(n, d, levels, depth, seed):
    # perfbench counts nodes, leaves and depth through CcTree.nodes and
    # ccf.tree_depth; both must agree with the explicit children.
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, d)).astype(np.float64)
    y = rng.integers(0, 2, size=n).astype(np.uint8)
    grown = grow_tree(x, y, ForestParams(min_node_size=1), stream(seed, FOREST_STREAM, 2))
    tied = _tree_with_ties(x, 1 + int(rng.integers(d)), depth, rng)
    for tree in (grown, tied):
        right, depths = _parsed(tree)
        assert [node.is_leaf for node in tree.nodes] == [child == -1 for child in right]
        assert ccf.tree_depth(tree) == max(depths)


# ---------------------------------------------------------------------------
# train_forest / predict
# ---------------------------------------------------------------------------


def _blobs(n=200, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [
            rng.normal(loc=(0.0, 0.0), scale=0.5, size=(half, 2)),
            rng.normal(loc=(5.0, 5.0), scale=0.5, size=(n - half, 2)),
        ]
    )
    y = np.repeat([0, 1], (half, n - half)).astype(np.uint8)
    perm = rng.permutation(n)
    return x[perm], y[perm]


def test_forest_has_ten_trees_by_default():
    x, y = _blobs(60)
    model = train_forest(x, y)
    assert len(model.trees) == 10
    assert model.training_params["n_trees"] == 10
    assert model.training_params["master_seed"] == 0


def test_forest_params_validation():
    assert ForestParams(n_candidate_features=None).n_candidate_features is None
    for field, value in [
        ("n_trees", 0),
        ("n_trees", 2.5),  # used to be accepted
        ("n_trees", None),
        ("min_node_size", 2.0),
        ("n_candidate_features", 0),
        ("n_candidate_features", 1.5),
        ("n_candidate_features", np.int64(3)),
    ]:
        with pytest.raises(ValueError, match=field):
            ForestParams(**{field: value})


def test_forest_is_deterministic():
    x, y = _blobs(80, seed=3)
    doc_a = _trees(train_forest(x, y, master_seed=0))
    doc_b = _trees(train_forest(x, y, master_seed=0))
    assert doc_a == doc_b
    doc_c = _trees(train_forest(x, y, master_seed=1))
    assert doc_a != doc_c


def test_separable_blobs_held_out_accuracy_one():
    x, y = _blobs(200)
    train_x, train_y = x[:160], y[:160]
    test_x, test_y = x[160:], y[160:]
    model = train_forest(train_x, train_y)
    labels, probs = predict(model, test_x)
    assert (labels == test_y).all()
    assert probs.shape == (40, 2)
    # pure leaves: predicted probability of the true class is exactly 1
    assert (probs[np.arange(40), test_y] == 1.0).all()


def test_forest_rejects_single_class():
    x = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(DegenerateDataError):
        train_forest(x, np.zeros(10, dtype=np.uint8))


def test_forest_checks_feature_names_before_growing_a_tree(monkeypatch):
    def grow_tree_must_not_run(*args):
        raise AssertionError("a tree was grown before feature_names was checked")

    monkeypatch.setattr(ccf, "grow_tree", grow_tree_must_not_run)
    x, y = _blobs(40)
    with pytest.raises(ValueError, match="feature_names length"):
        train_forest(x, y, ForestParams(n_trees=2), feature_names=["f0"])


def test_predict_dimension_mismatch():
    x, y = _blobs(40)
    model = train_forest(x, y, ForestParams(n_trees=2))
    with pytest.raises(ValueError, match="mismatch"):
        predict(model, np.zeros((3, 5)))


def test_tie_breaks_toward_class_zero():
    half_half = CcTree(
        feature=np.zeros((1, 1), dtype=np.int64),
        projection=np.zeros((1, 1)),
        threshold=np.zeros(1),
        class_counts=np.array([[1, 1]]),
    )
    model = CcfModel(
        trees=[half_half],
        feature_names=["f0"],
        training_params={},
    )
    labels, probs = predict(model, np.zeros((4, 1)))
    assert (labels == 0).all()
    assert (probs == 0.5).all()


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _save(model: CcfModel, path) -> None:
    """Persist a bare forest through the pipeline format with an identity scaler."""
    d = len(model.feature_names)
    scaler = ScalerStats(means=np.zeros(d), stds=np.ones(d))
    pipeline = Pipeline(technique="spectral", glcm_params=None, scaler=scaler, model=model)
    save_pipeline(pipeline, path)


def test_save_load_round_trip_preserves_predictions(tmp_path):
    x, y = _blobs(100, seed=5)
    model = train_forest(x, y)
    _save(model, tmp_path / "model.json")
    loaded = load_pipeline(tmp_path / "model.json").model
    labels_a, probs_a = predict(model, x)
    labels_b, probs_b = predict(loaded, x)
    assert np.array_equal(labels_a, labels_b)
    assert np.array_equal(probs_a, probs_b)
    assert loaded.training_params == model.training_params

    _save(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "model.json").read_bytes()


def test_model_metadata_records_parameters(tmp_path):
    x, y = _blobs(50, seed=2)
    model = train_forest(x, y, ForestParams(n_trees=10), master_seed=0)
    _save(model, tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    assert (doc["format"], doc["version"]) == ("slummap-pipeline", 5)
    assert doc["training_params"]["n_trees"] == 10
    assert doc["training_params"]["master_seed"] == 0
    assert doc["training_params"]["n_candidate_features"] == 2  # ceil(sqrt(2))


def test_truncated_model_file_is_rejected(tmp_path):
    x, y = _blobs(40, seed=1)
    _save(train_forest(x, y, ForestParams(n_trees=2)), tmp_path / "m.json")
    raw = (tmp_path / "m.json").read_bytes()
    (tmp_path / "broken.json").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ModelFormatError):
        load_pipeline(tmp_path / "broken.json")
    (tmp_path / "wrong.json").write_text('{"format": "other", "version": 1}')
    with pytest.raises(ModelFormatError):
        load_pipeline(tmp_path / "wrong.json")
