"""Brute-force reference implementations used only by the test suite.

Everything here is deliberately written as plain Python loops over the
mathematical definitions, independent of the library's vectorized paths.
The one exception is direction_measures_oracle: an earlier, simpler
vectorized GLCM path, kept as the byte-exact reference for the kernel
passes that directions now share.
"""

from __future__ import annotations

import base64
import math
import struct

OFFSETS = {0: (0, 1), 45: (-1, 1), 90: (-1, 0), 135: (-1, -1)}


def glcm_oracle(window, direction: int, levels: int) -> dict[tuple[int, int], float]:
    """Symmetrized, normalized co-occurrence matrix by pair enumeration.

    Returns {(i, j): p} over the nonzero cells only, so a window costs its
    pair count rather than levels^2 cells.
    """
    dr, dc = OFFSETS[direction]
    h = len(window)
    w = len(window[0])
    counts: dict[tuple[int, int], int] = {}
    total = 0
    for r in range(h):
        for c in range(w):
            rr, cc = r + dr, c + dc
            if 0 <= rr < h and 0 <= cc < w:
                a, b = window[r][c], window[rr][cc]
                if not (0 <= a < levels and 0 <= b < levels):
                    raise ValueError(f"grey level outside [0, {levels}): {a}, {b}")
                counts[a, b] = counts.get((a, b), 0) + 1
                counts[b, a] = counts.get((b, a), 0) + 1  # transpose added pair by pair
                total += 2
    return {cell: count / total for cell, count in counts.items()}


def haralick_oracle(p) -> dict[str, float]:
    """The seven measures evaluated straight off their definitions.

    ``p`` maps each nonzero cell (i, j) to its probability. The sums run over
    those cells in row-major order; a zero cell would add exactly 0 to every
    one of them.
    """
    cells = [(i, j, pij) for (i, j), pij in sorted(p.items())]
    mu = sum(i * pij for i, _, pij in cells)
    var = sum((i - mu) ** 2 * pij for i, _, pij in cells)
    cross = sum((i - mu) * (j - mu) * pij for i, j, pij in cells)
    return {
        "second_moment": sum(pij**2 for _, _, pij in cells),
        "contrast": sum((i - j) ** 2 * pij for i, j, pij in cells),
        "correlation": cross / var if var > 0 else 0.0,
        "homogeneity": sum(pij / (1 + (i - j) ** 2) for i, j, pij in cells),
        "entropy": sum(-pij * math.log(pij) for _, _, pij in cells),
        "mean": mu,
        "variance": var,
    }


def direction_measures_oracle(quantized, direction: int, params):
    """The selected measures of every window of each band of a quantized
    (bands, height, width) stack at one direction, in params.measures order:
    (bands, n_measures, height - window + 1, width - window + 1) float64.

    The library's one-pass-per-direction path before directions shared
    kernel passes: one _key_sums call per band, in the direction's own
    orientation, and five box sums of int64 pair images for the linear
    measures. Grouped extraction must equal it byte for byte.
    """
    import numpy as np

    from slummap.texture import (
        _HOMOGENEITY_UNIT,
        DIRECTION_OFFSETS,
        _entropy_shift,
        _key_sums,
        _pair_images,
        _pair_keys,
    )

    dr, dc = DIRECTION_OFFSETS[direction]
    height, width = params.window - abs(dr), params.window - abs(dc)
    n = height * width
    total = 2 * n
    a, b = (image.astype(np.int64) for image in _pair_images(quantized, direction))
    bands, h, w = quantized.shape
    out = np.empty((bands, len(params.measures), h - params.window + 1, w - params.window + 1))

    def put(measure: str, plane) -> None:
        if measure in params.measures:
            out[:, params.measures.index(measure)] = plane

    if "second_moment" in params.measures or "entropy" in params.measures:
        keys = _pair_keys(a, b, params.levels)
        squares, entropy_sums = np.concatenate(
            [_key_sums(keys[i : i + 1], height, width, params.levels) for i in range(bands)], axis=1
        )
        put("second_moment", squares / (total * total))
        put("entropy", math.log(total) - entropy_sums * 2.0 ** -_entropy_shift(n) / total)
    images = [
        (a - b) ** 2,
        np.rint(_HOMOGENEITY_UNIT / (1.0 + (a - b) ** 2)).astype(np.int64),
        a + b,
        a * a + b * b,
        a * b,
    ]
    integral = np.zeros((len(images), bands, a.shape[1] + 1, a.shape[2] + 1), dtype=np.int64)
    for image, plane in zip(images, integral):
        np.cumsum(np.cumsum(image, axis=1), axis=2, out=plane[:, 1:, 1:])
    linear = (
        integral[..., height:, width:]
        - integral[..., :-height, width:]
        - integral[..., height:, :-width]
        + integral[..., :-height, :-width]
    )
    put("contrast", linear[0] / n)
    put("homogeneity", linear[1] / (_HOMOGENEITY_UNIT * n))
    mean = linear[2] / total
    variance = np.maximum(linear[3] / total - mean * mean, 0.0)
    cross = linear[4] / n - mean * mean
    put("mean", mean)
    put("variance", variance)
    put("correlation", np.where(variance > 0, cross / np.where(variance > 0, variance, 1.0), 0.0))
    return out


def confusion_oracle(pred, truth) -> dict[str, int]:
    """Confusion counts with slum (1) as the positive class."""
    tp = fp = fn = tn = 0
    for p, t in zip(pred, truth, strict=True):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 1:
            fn += 1
        else:
            tn += 1
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}


def lda_direction_oracle(rows, labels, ridge: float) -> list[float]:
    """Fisher LDA direction (S + ridge*I)^-1 (mu1 - mu0) for 0/1 labels.

    S is the total covariance of the rows (divisor n - 1) and mu_c the mean of
    class c. Up to scale and sign this is the leading canonical direction
    between the rows and the one-hot labels. The system is solved by
    Gauss-Jordan elimination with partial pivoting.
    """
    n, d = len(rows), len(rows[0])
    mean = [sum(row[j] for row in rows) / n for j in range(d)]
    mu = []
    for c in (0, 1):
        members = [row for row, y in zip(rows, labels, strict=True) if y == c]
        mu.append([sum(row[j] for row in members) / len(members) for j in range(d)])
    a = [
        [
            sum((row[i] - mean[i]) * (row[j] - mean[j]) for row in rows) / (n - 1)
            + (ridge if i == j else 0.0)
            for j in range(d)
        ]
        + [mu[1][i] - mu[0][i]]
        for i in range(d)
    ]
    for col in range(d):
        pivot = max(range(col, d), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(d):
            if r != col:
                f = a[r][col] / a[col][col]
                a[r] = [v - f * p for v, p in zip(a[r], a[col])]
    return [a[i][d] / a[i][i] for i in range(d)]


def randbelow_oracle(rng, bound: int) -> int:
    """pcg32_boundedrand_r: one raw draw at a time, rejecting below 2^32 % bound."""
    threshold = (1 << 32) % bound
    while True:
        r = rng.next_u32()
        if r >= threshold:
            return r % bound


def bootstrap_oracle(rng, n: int, size: int) -> list[int]:
    return [randbelow_oracle(rng, n) for _ in range(size)]


def sample_without_replacement_oracle(rng, n: int, k: int) -> list[int]:
    """Partial Fisher-Yates over range(n): swap slot i with i + randbelow_oracle(n - i)."""
    pool = list(range(n))
    for i in range(k):
        j = i + randbelow_oracle(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def shuffle_oracle(rng, items: list) -> None:
    """Fisher-Yates in place, i from the top down, swapping with randbelow_oracle(i + 1)."""
    for i in range(len(items) - 1, 0, -1):
        j = randbelow_oracle(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def balance_oracle(rng, labels: list[int]) -> list[int]:
    """Undersampling by definition: every minority row, plus the majority rows at the
    positions a partial Fisher-Yates draws; the kept row indices in ascending order."""
    n1 = sum(labels)
    n0 = len(labels) - n1
    if n0 == n1:
        return list(range(len(labels)))
    majority = 0 if n0 > n1 else 1
    majority_rows = [i for i, label in enumerate(labels) if label == majority]
    drawn = sample_without_replacement_oracle(rng, len(majority_rows), min(n0, n1))
    kept = {i for i, label in enumerate(labels) if label != majority}
    kept.update(majority_rows[j] for j in drawn)
    return sorted(kept)


def split_oracle(rng, n: int) -> tuple[list[int], list[int]]:
    """Shuffle range(n); the first round(0.8 n) positions (clamped to [1, n - 1]) train.

    0.8 n is never within 0.1 of a half, so (8n + 5) // 10 rounds it exactly.
    """
    order = list(range(n))
    shuffle_oracle(rng, order)
    n_train = max(1, min((8 * n + 5) // 10, n - 1))
    return sorted(order[:n_train]), sorted(order[n_train:])


def preorder_right(leaf) -> list[int] | None:
    """The right child of each node, -1 at a leaf, of the one full binary tree
    whose preorder these leaf flags are; None if they are not exactly one."""
    right = [-1] * len(leaf)

    def end(node):  # one past the subtree rooted at node, or None if it runs out
        if node >= len(leaf):
            return None
        if leaf[node]:
            return node + 1
        left_end = end(node + 1)
        if left_end is None:
            return None
        right[node] = left_end
        return end(left_end)

    return right if end(0) == len(leaf) else None


def version_4_document(doc: dict) -> dict:
    """The version 4 model file of a version 5 document: the same pipeline, with
    each split's right child stored as a packed ``right`` array, -1 at a leaf,
    parsed from the leaves, the nodes whose class counts are not both 0."""
    doc = dict(doc, arrays=dict(doc["arrays"]), version=4)
    raw = base64.b64decode(doc["arrays"]["class_counts"])
    counts = struct.unpack(f"<{len(raw) // 8}q", raw)
    right, start = [], 0
    for size in doc["tree_sizes"]:
        right += preorder_right([counts[2 * i] or counts[2 * i + 1]
                                 for i in range(start, start + size)])
        start += size
    packed = struct.pack(f"<{len(right)}q", *right)
    doc["arrays"]["right"] = base64.b64encode(packed).decode("ascii")
    return doc


def version_3_document(doc: dict) -> dict:
    """The version 3 model file of a version 4 document: the same pipeline, with
    each split's left child stored as its own packed ``left`` array, i + 1 at
    split i of a tree and -1 at a leaf."""
    doc = dict(doc, arrays=dict(doc["arrays"]), version=3)
    raw = base64.b64decode(doc["arrays"]["right"])
    right = struct.unpack(f"<{len(raw) // 8}q", raw)
    left, start = [], 0
    for size in doc["tree_sizes"]:
        left += [-1 if r == -1 else i + 1 for i, r in enumerate(right[start : start + size])]
        start += size
    doc["arrays"]["left"] = base64.b64encode(struct.pack(f"<{len(left)}q", *left)).decode("ascii")
    return doc


def version_2_document(doc: dict) -> dict:
    """The version 2 model file of a version 3 document: the same pipeline, with
    each tree as its six arrays spelled out as JSON numbers, rows as lists."""
    doc = dict(doc)
    sizes = doc.pop("tree_sizes")
    lam = doc["training_params"]["n_candidate_features"]
    widths = {"feature": lam, "projection": lam, "class_counts": 2}
    trees = [{} for _ in sizes]
    for key, text in doc.pop("arrays").items():
        raw = base64.b64decode(text)
        code = "d" if key in ("projection", "threshold") else "q"
        values = list(struct.unpack(f"<{len(raw) // 8}{code}", raw))
        if key in widths:
            values = [values[i : i + widths[key]] for i in range(0, len(values), widths[key])]
        start = 0
        for tree, size in zip(trees, sizes):
            tree[key] = values[start : start + size]
            start += size
    doc["trees"] = trees
    doc["version"] = 2
    return doc


def version_1_document(doc: dict) -> dict:
    """The version 1 model file of a version 2 document: the same pipeline,
    with the forest as a nested ccf-model document of one dict per node and
    each leaf's class frequencies stored beside its counts."""
    doc = dict(doc)
    trees = []
    for tree in doc.pop("trees"):
        nodes = []
        for i, (n0, n1) in enumerate(tree["class_counts"]):
            if tree["left"][i] == -1:
                distribution = [n0 / (n0 + n1), n1 / (n0 + n1)]
                nodes.append({"class_counts": [n0, n1], "distribution": distribution})
            else:
                nodes.append({
                    "feature_subset": tree["feature"][i],
                    "projection": tree["projection"][i],
                    "threshold": tree["threshold"][i],
                    "left": tree["left"][i],
                    "right": tree["right"][i],
                })
        trees.append({"nodes": nodes})
    names = doc.pop("feature_names")
    doc["model"] = {
        "format": "ccf-model",
        "version": 1,
        "n_features": len(names),
        "feature_names": names,
        "training_params": doc.pop("training_params"),
        "trees": trees,
    }
    doc["version"] = 1
    return doc


def grow_tree_oracle(x, y, lam: int, min_node_size: int, rng) -> list:
    """The tree grow_tree must build, bit for bit, grown the plain numpy way.

    Every node gathers its full (n, d) rows and tests them for identity across
    all features; its lambda columns and bootstrap sample are gathered from
    those rows (column-major, as grow_tree keeps them); CCA builds and averages
    the one-hot label block; the split search sorts stably and takes c ln c
    per call; every draw is made by the scalar loops above. Returns six arrays:
    CcTree's four in field order, with each split's explicit left and right
    child indices (-1 at a leaf) fourth and fifth, before class_counts.
    """
    import numpy as np

    from slummap.ccf import RIDGE

    def inv_sqrt(s):
        w, v = np.linalg.eigh(s)
        return (v / np.sqrt(np.maximum(w, RIDGE))) @ v.T

    def cca(x, labels):
        n, d = x.shape
        if (x == x[0]).all() or labels.min() == labels.max():
            return None
        one_hot = np.zeros((n, 2))
        one_hot[np.arange(n), labels] = 1.0
        xc = x - x.mean(axis=0)
        yc = one_hot - one_hot.mean(axis=0)
        isx = inv_sqrt(xc.T @ xc / (n - 1) + RIDGE * np.eye(d))
        isy = inv_sqrt(yc.T @ yc / (n - 1) + RIDGE * np.eye(2))
        u = np.linalg.svd(isx @ (xc.T @ yc / (n - 1)) @ isy)[0]
        w = (isx @ u[:, :1])[:, 0]
        nonzero = np.nonzero(w)[0]
        return -w if nonzero.size and w[nonzero[0]] < 0 else w

    def c_ln_c(c):
        return c * np.log(np.maximum(c, 1.0))

    def best_split(z, labels):
        n = len(z)
        order = np.argsort(z, kind="stable")
        zs, ys = z[order], labels[order].astype(np.int64)
        boundaries = np.nonzero(zs[1:] > zs[:-1])[0]
        if boundaries.size == 0:
            return None
        n1 = int(ys.sum())
        n1l = np.cumsum(ys)[boundaries].astype(np.float64)
        nl = (boundaries + 1).astype(np.float64)
        n0l, n1r = nl - n1l, n1 - n1l
        n0r = (n - nl) - n1r
        hl = c_ln_c(nl) - (c_ln_c(n0l) + c_ln_c(n1l))
        hr = c_ln_c(n - nl) - (c_ln_c(n0r) + c_ln_c(n1r))
        h = n * math.log(n)
        for c in (n - n1, n1):
            if c > 0:
                h -= c * math.log(c)
        gains = h / n - (hl + hr) / n
        best = int(np.argmax(gains))
        if gains[best] <= 0.0:
            return None
        i = boundaries[best]
        thr = (zs[i] + zs[i + 1]) / 2.0
        return float(zs[i] if thr >= zs[i + 1] else thr)

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.uint8)
    nodes = []
    stack = [(np.arange(len(x)), -1, False)]
    while stack:
        idx, parent, is_left = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][3 if is_left else 4] = node
        x_node, y_node = x[idx], y[idx]
        n, n1 = len(idx), int(y_node.sum())
        nodes.append([np.zeros(lam, dtype=np.int64), np.zeros(lam), 0.0, -1, -1, (n - n1, n1)])
        if n1 in (0, n) or n < min_node_size or (x_node == x_node[0]).all():
            continue
        subset = np.sort(sample_without_replacement_oracle(rng, x.shape[1], lam))
        boot = np.array(bootstrap_oracle(rng, n, n))
        w = cca(x_node.T[np.ix_(subset, boot)].T, y_node[boot])
        if w is None:
            w = cca(x_node[:, subset], y_node)
        if w is None:
            continue
        z = x_node[:, subset] @ w
        split = best_split(z, y_node)
        if split is None:
            continue
        mask = z <= split
        nodes[node] = [subset, w, split, -1, -1, (0, 0)]
        stack.append((idx[~mask], node, False))
        stack.append((idx[mask], node, True))
    return [np.array(column) for column in zip(*nodes)]


def apply_tree_oracle(tree, x):
    """The leaf each row of x reaches, routed the plain way: each split's right
    child is parsed from the leaves (preorder_right), and every split gathers
    its rows' full feature vectors, then its lambda columns, and projects that
    block. This is the router the pinned maps were made with."""
    import numpy as np

    right = preorder_right(tree.class_counts.any(axis=1).tolist())
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape[0], dtype=np.int64)
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if right[node] < 0:
            out[rows] = node
            continue
        z = x[rows][:, tree.feature[node]] @ tree.projection[node]
        mask = z <= tree.threshold[node]
        stack.append((node + 1, rows[mask]))
        stack.append((right[node], rows[~mask]))
    return out
