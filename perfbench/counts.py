"""Exact per-layer counts, read from what the traced layer calls returned.

The tracer keeps, per span name in :data:`COLLECT`, a cheap projection of
the call's return value; :func:`layer_counts` turns one cycle's projections
into counts. Counts depend only on the inputs, so they repeat exactly.
"""

from __future__ import annotations

import numpy as np

COLLECT = {
    "tree.fit_tree_arrays": lambda tree: tree,
    "tree.fit_tree": lambda tree: tree,
    "embed.dte_t": lambda result: (result[0].nbytes, result[1].m),
    "lda.fit_lda": lambda model: model,
}


def tree_stats(tree) -> tuple[int, int, int, int]:
    """(leaves, depth, nodes searched, splits) of one fitted tree.

    A node's split search runs unless the node is too small to hold two
    leaves, is at the depth cap, or is pure; every split node was searched.
    The leaf histograms give each leaf's size and purity.
    """
    cfg = tree.config
    leaves = depth = searched = splits = 0
    stack = [(tree.root, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if hasattr(node, "leaf_id"):
            leaves += 1
            hist = np.asarray(node.histogram)
            searched += bool(hist.sum() >= 2 * cfg.min_leaf_size
                             and np.count_nonzero(hist) > 1
                             and (cfg.max_depth is None or d < cfg.max_depth))
        else:
            splits += 1
            searched += 1
            stack += [(node.left, d + 1), (node.right, d + 1)]
    return leaves, depth, searched, splits


def layer_counts(outputs) -> dict:
    """{name: (count, unit)} for one cycle, summed over every fit it made."""
    leaves = depth = searched = splits = 0
    width = z_bytes = dim = kept = 0
    for name, value in outputs:
        if name.startswith("tree."):
            lv, d, se, sp = tree_stats(value)
            leaves, depth, searched, splits = (leaves + lv, max(depth, d),
                                               searched + se, splits + sp)
        elif name == "embed.dte_t":
            z_bytes += value[0]
            width += value[1]
        elif name == "lda.fit_lda":
            dim += value.dim
            # directions the pseudoinverse kept = its rank
            kept += int(np.linalg.matrix_rank(value.cov_pinv, hermitian=True))
    return {"tree.leaves": (leaves, "count"), "tree.depth": (depth, "count"),
            "tree.nodes_searched": (searched, "count"),
            "tree.split_yield": (splits / searched if searched else 0.0, "ratio"),
            "embed.width": (width, "count"), "embed.z_bytes": (z_bytes, "bytes"),
            "lda.dim": (dim, "count"), "lda.kept_dims": (kept, "count")}
