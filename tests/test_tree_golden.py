"""Golden trees: fitted trees must stay byte-identical across rewrites of the grower.

Each case pins the SHA-256 of ``json.dumps(nested(tree.to_dict()))``
(structure, features, thresholds, histograms) and of the training rows each
leaf holds (routed by ``apply``; ascending within a leaf, leaves in id
order); each case also checks that the leaf ids the grower hands back are
the ones ``apply`` routes the rows to, that routing single rows agrees with
routing the batch, and that the linked view ``root`` hashes to the same tree
digest. The pins come from the exact per-node
reference grower in reference_tree.py, which scores each candidate's Gini
decrease as a fraction, and not from the level-wise grower they test.
``nested`` rebuilds the nested form ``to_dict`` once had from the flat
pre-order lists, so the pins cover every saved value. Any change to a split,
a threshold bit, the leaf numbering or a leaf's rows fails here. Regenerate
the pins only for a deliberate change of the split rule, with:

    PYTHONPATH=src python tests/test_tree_golden.py

and check that the reference still grows the pinned trees with:

    PYTHONPATH=src python tests/test_tree_golden.py --check
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dte import TreeConfig, bootstrap, load_csv
from dte.tree import LeafNode, fit_tree_arrays
from reference_tree import reference_tree

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
BUNDLED = (("iris", "species"), ("wine", "cultivar"), ("breast_cancer", "diagnosis"))
CONFIGS = ((10, 30, None), (2, 7, None), (10, 30, 3), (1, 2, None))


def _bundled(name, label):
    ds = load_csv(DATA_DIR / f"{name}.csv", label)
    return ds.features, ds.labels, ds.n_classes


def _resampled(name, label):
    ds = load_csv(DATA_DIR / f"{name}.csv", label)
    idx = bootstrap(ds, 11)
    return ds.features[idx], ds.labels[idx], ds.n_classes


def _deep_mixture():
    """20k rows of six overlapping components owned by three classes (~540 leaves)."""
    means = np.random.default_rng(20251202).normal(size=(6, 10))
    rng = np.random.default_rng([7, 2])
    comp = rng.integers(0, 6, size=20_000)
    X = means[comp] + rng.standard_normal((20_000, 10))
    return X, np.array([1, 2, 3, 1, 2, 3])[comp], 3


def _deep_tied():
    """6000 rows of ten components owned by five classes, rounded to one
    decimal, so candidates on every level fall on runs of tied values."""
    means = np.random.default_rng(20251203).normal(scale=1.5, size=(10, 6))
    rng = np.random.default_rng([7, 3])
    comp = rng.integers(0, 10, size=6_000)
    X = np.round(means[comp] + rng.standard_normal((6_000, 6)), 1)
    return X, comp % 5 + 1, 5


def _shallow_separated():
    """30k rows of three separated classes, 4-decimal values, one one-hot column."""
    means = np.random.default_rng(20251201).normal(scale=4.0, size=(3, 20))
    rng = np.random.default_rng([7, 1])
    y = rng.integers(0, 3, size=30_000)
    X = np.round(means[y] + rng.standard_normal((30_000, 20)), 4)
    cats = np.eye(4)[rng.integers(0, 4, size=30_000)]
    return np.hstack([X, cats]), y + 1, 3


def _iris_arrays():
    return _bundled("iris", "species")


def _constant_column():
    X, y, k = _iris_arrays()
    return np.hstack([np.full((len(y), 1), 2.5), X]), y, k


def _tied_features():
    """A duplicated column (ties across features) and a three-valued column
    (ties inside a feature) ahead of the informative ones."""
    X, y, k = _iris_arrays()
    coarse = np.round(X[:, 2:3] / 2.0)
    return np.hstack([coarse, X[:, 3:4], X[:, 3:4], X]), y, k


def _one_row_class():
    X, y, k = _iris_arrays()
    y = y.copy()
    y[0] = 4
    return X, y, 4


def _missing_class():
    X, y, k = _iris_arrays()
    keep = np.flatnonzero(y != 2)
    idx = np.random.default_rng(5).choice(keep, size=len(y))
    return X[idx], y[idx], k


def _many_classes():
    """Ten classes, more than one int64 word of packed class counts holds."""
    rng = np.random.default_rng(99)
    means = rng.normal(scale=2.0, size=(10, 5))
    y = rng.integers(0, 10, size=2_000)
    return means[y] + rng.standard_normal((2_000, 5)), y + 1, 10


def _cases():
    cases = {}
    for name, label in BUNDLED:
        for cfg in CONFIGS:
            tag = "-".join(map(str, cfg))
            cases[f"{name}/{tag}"] = (lambda n=name, lb=label: _bundled(n, lb), cfg)
            cases[f"{name}-bootstrap/{tag}"] = (lambda n=name, lb=label: _resampled(n, lb), cfg)
        # far more bins than most nodes have rows: many candidates are dead or repeat
        cases[f"{name}/1-255-None"] = (lambda n=name, lb=label: _bundled(n, lb), (1, 255, None))
    default = (10, 30, None)
    cases["deep-mixture"] = (_deep_mixture, default)
    cases["deep-tied"] = (_deep_tied, (2, 30, None))
    cases["deep-tied/2-100-None"] = (_deep_tied, (2, 100, None))
    cases["shallow-separated"] = (_shallow_separated, default)
    cases["constant-column"] = (_constant_column, (2, 30, None))
    cases["tied-features"] = (_tied_features, (2, 30, None))
    cases["one-row-class"] = (_one_row_class, (1, 30, None))
    cases["missing-class"] = (_missing_class, (2, 30, None))
    cases["max-depth-0"] = (_iris_arrays, (1, 30, 0))
    cases["many-classes"] = (_many_classes, (5, 30, None))
    return cases


CASES = _cases()


def nested(flat: dict) -> dict:
    """The nested form ``to_dict`` had when the pins were taken, from its flat
    pre-order lists: a split is {feature, threshold, left, right}, a leaf
    {leaf_id, histogram}. Iterative, so any depth converts."""
    thresholds, histograms = iter(flat["threshold"]), iter(flat["histogram"])
    out = {key: flat[key] for key in ("n_features", "n_classes", "config")}
    slots, leaf_id = [(out, "root")], 0
    for f in flat["feature"]:
        parent, key = slots.pop()
        if f < 0:
            parent[key] = {"leaf_id": leaf_id, "histogram": next(histograms)}
            leaf_id += 1
        else:
            parent[key] = node = {"feature": f, "threshold": next(thresholds)}
            slots += [(node, "right"), (node, "left")]
    return out


def linked(tree) -> dict:
    """The form ``nested`` builds, read instead from the linked view ``tree.root``
    by an iterative walk, so any depth converts."""
    out = {key: value for key, value in tree.to_dict().items()
           if key in ("n_features", "n_classes", "config")}
    stack = [(out, "root", tree.root)]
    while stack:
        parent, key, node = stack.pop()
        if isinstance(node, LeafNode):
            parent[key] = {"leaf_id": node.leaf_id, "histogram": node.histogram.tolist()}
        else:
            parent[key] = split = {"feature": node.feature, "threshold": node.threshold}
            stack += [(split, "right", node.right), (split, "left", node.left)]
    return out


def tree_digests(tree, X) -> tuple[str, str]:
    """SHA-256 of the tree's nested JSON and of the rows of X its leaves receive."""
    text = json.dumps(nested(tree.to_dict())).encode()
    rows = np.argsort(tree.apply(X), kind="stable").astype(np.int64)
    return hashlib.sha256(text).hexdigest(), hashlib.sha256(rows.tobytes()).hexdigest()


def _fit(name, grow=fit_tree_arrays):
    make, (min_leaf, bins, depth) = CASES[name]
    X, y, k = make()
    return grow(X, y, k, TreeConfig(min_leaf, bins, depth)), X


PINS = {
    "breast_cancer-bootstrap/1-2-None": ("c146e856a1d9ee28984048c0063437ef18fb614a1340c3a4ff70cfe53b2ea658",
        "2d725aaaccf2072d7921bb7ff307e3b30c869e65cc55f1c23839af24e62e875a"),  # 24 leaves
    "breast_cancer-bootstrap/10-30-3": ("19f73bd89ec1984a58bce3f3444030809f0a3387ebcaa5b5045622b741b656af",
        "dd8a6a60b806bef56a5215828f43d546f52d4fb255307d4bed43570d6471522b"),  # 7 leaves
    "breast_cancer-bootstrap/10-30-None": ("b74c4aa69d8a54bd2d47794f031e8d398090293186267fcfee388a8882b56e16",
        "b5257b963f3ad983229c415eb8ab597ad999e086dee0636a4d70777d0501af3d"),  # 13 leaves
    "breast_cancer-bootstrap/2-7-None": ("4535368af13ee2f4ffcf0bec0b4672e868068f31a0b2ab9b320139300e225517",
        "c75e797f6ba94ac1b7086c7a94499c34335c1eb30f7fe34e067d5c38796b9fa2"),  # 20 leaves
    "breast_cancer/1-2-None": ("fbbc3d745d063fff84ba68ca3f8c8467f3ef3fd85cdabbbab66bbec8de693e7e",
        "d7958dd129fa29de32ccce66c54ab31d08676581cd7ffd69fb77085e7086af65"),  # 53 leaves
    "breast_cancer/1-255-None": ("3ece39ed587ede4a9e5bb51d641f703a171c116023573e6f13a946db40e021db",
        "2732593f7b3b2b20bed6b01c2e2fbca8c3e938bb63e6c2c5f17fab515cba128d"),  # 21 leaves
    "breast_cancer/10-30-3": ("949770785fb686d488dd6b7d3f5f21f3ea715ee698088ad631af5ead1fa709f9",
        "66c7f26069c98717839037e37278b8753cb09535705e6293423a46b69d5a51e4"),  # 7 leaves
    "breast_cancer/10-30-None": ("b2b97676e765a9ff50565b153666912817213049c6760ac7c7bd30089edfc5e0",
        "14b89948099e3b0075addbdfa29cc606b44a5717616e2a9c3d77de4e811c3313"),  # 13 leaves
    "breast_cancer/2-7-None": ("8b5814a4a2e10146ef8f892f824f52e0b01ded9013829c1123265c45015ec494",
        "15816d436d5c3a59b5b6634bfedada9582de166a6459a2b7558d20d2887c2ae9"),  # 27 leaves
    "constant-column": ("96bfed6075dff291cccfde7bb2532c4866e28350488e565153b66d8e6cccf606",
        "65b952dbb79aa32a87e3132366b55075a1fb78d78ff9bdd703d9264e15156215"),  # 7 leaves
    "deep-mixture": ("59c4410d42c2dd870c4c805b8a0d5524a85604da2e15b6aa416c5d34e9bfd199",
        "8c58d7e97232f5ab9b8e215067357c0b5d9bc0421c928cad7c6d6d384fe9cc8f"),  # 521 leaves
    "deep-tied": ("e573880aa7d8eabe3fa28a58f71463c1fefc10fd374bc13fe886bb03883c4c36",
        "6c0ed7156c7a7ae8d761cce79483990695ee5fb0fc086f46eb5a2ba2708a98f2"),  # 612 leaves
    "deep-tied/2-100-None": ("0a0ff297a7736c3ff33e13a56e392588a8d4eb3ee48e2c4f8fc665c889255b1c",
        "ace53932a6057378c10cd8e2668ba1feaa9361fdf2783bc8242a5df3ba8b970e"),  # 611 leaves
    "iris-bootstrap/1-2-None": ("916c27ac6c33c5a01f8fcda1967256d46e9ce75bff72583c9c24c720beff1812",
        "1ca72a8c3b6b21eac3c60f3f953db652f80263b040b191deeaa0fe69b38c9157"),  # 18 leaves
    "iris-bootstrap/10-30-3": ("78dd37682de8d69a97dc612cc086f25cf3439e437128e85d867c1fdf23b36ebe",
        "4178adb63906859c2627ee3462a48dc176df6abc3770fcc608054623590728f4"),  # 5 leaves
    "iris-bootstrap/10-30-None": ("7db506a5f11d4fd6fd11a634e89614bbad38ce865edfc85cd1375432c5a2a9e1",
        "4178adb63906859c2627ee3462a48dc176df6abc3770fcc608054623590728f4"),  # 5 leaves
    "iris-bootstrap/2-7-None": ("df8b0e066aef9c3b0300d6048ff3fd39d58282007efba1228a965b11bfe104c3",
        "e5779e632758e5890cc43d6b147d863306aee16e0f38cc5548f7e84d558b0cff"),  # 11 leaves
    "iris/1-2-None": ("e8c3bf20dee733363444c2195b6b2ad5c17fd5f5618426d15aba1ce92c20b567",
        "439bd8f685fb7bf835f5271bde29d705f8db5b3a201693a6cf6865f24e71b2e2"),  # 22 leaves
    "iris/1-255-None": ("098feee531748389a5697a8edbd555e4b4d9aa9f9ff9bbf951dcf4cb71d9e918",
        "475d6253fe153b50304dde8595d3b387edb4add4621d30c6b7aca3c2191aeed2"),  # 9 leaves
    "iris/10-30-3": ("9fe9899a6c714435c328664aacc35020a82a0f37ebe9a583605e5e5b3bec6dfc",
        "a80ccbab94cbef0410fb7cebab23e109f0193c4de7884e101d44a6d0b22fcad1"),  # 5 leaves
    "iris/10-30-None": ("79c31ffe295154eb54ea2b81b169dc430324fabefbba8579f16facc86e6ef304",
        "aa93f9f9db0c3e04518f7c73cc57537d3294aac0aa3dd0a328197d4beb69e268"),  # 6 leaves
    "iris/2-7-None": ("aaa755c8b098b17dc137a2605cdfae4e5c9dcf8f346801ac02fe5f82d63f8037",
        "51176b65149cda8aaa5ef477424bf27d4e6a80b8f42c466cbf82b7a761cd4d39"),  # 11 leaves
    "many-classes": ("c3ad342a13d8ba994f66a7c2c7b7689868a4d34cf1da7109edd7a45954b201c5",
        "a6836983710442128d5e792199bb7264e8e2b1745eaafe1ad18a18980123c1ea"),  # 148 leaves
    "max-depth-0": ("81ead4ae40792384eefcbc88a07323050045f7ea10eb6c89b1a5f2491ee57134",
        "cfe9ef49abc35a06b2e2eea71e8b6a3f9b7874159db5c2b63e734cfee3cec739"),  # 1 leaves
    "missing-class": ("33d735418f4004249f4ba75c8bf625d0eefaa56d220342ada6f0830b04c6aee0",
        "9cf20af6d34d3b8258839492a4ea7d3d4381dbeb8415d2f5b58aa8b68c35d38b"),  # 2 leaves
    "one-row-class": ("129c1c65f9770ece8f1c831f0716fa78b64dfeac68107f68065d11e8c3ee39ed",
        "32f8e926d614e3b8131bc1fb1904f5c3faff603f22cc447f21f68e8c485514af"),  # 14 leaves
    "shallow-separated": ("123a96b84fe6f343f8970216b14df73c30451fb5b0b74ff05e73d52d36f63946",
        "5a99bf204da7d0d0dad4fb9ae66007b89ed102e6cefc9e91c9a1d3a145a2d453"),  # 9 leaves
    "tied-features": ("c4f9960b3b84399c28f5402d052eb32b0b0182c4b8ba5e8259c5ef1934df4f00",
        "65b952dbb79aa32a87e3132366b55075a1fb78d78ff9bdd703d9264e15156215"),  # 7 leaves
    "wine-bootstrap/1-2-None": ("0b3bed6869d9752169d369e070e3ff9478251ff3306cc13e1e940851f571c524",
        "a758cb5e874b20d36fe8eb1a56b5a70d8d517373ed03fbc5a09b33251510c3fb"),  # 13 leaves
    "wine-bootstrap/10-30-3": ("d337227c8c857422c5c55b034f9397c7ecb178195cde117fa72a35d30250d2c3",
        "3315128360701365a2bdc4a74dd861ef3bd58cbfac0389d0c0f2838f79c41532"),  # 6 leaves
    "wine-bootstrap/10-30-None": ("22d72d43fc64c335fb813af9453610a343e35eca7b2c6a9fa4fbb458c80ea445",
        "3315128360701365a2bdc4a74dd861ef3bd58cbfac0389d0c0f2838f79c41532"),  # 6 leaves
    "wine-bootstrap/2-7-None": ("0f1b3bd4620ae1c27e0a82c076114064b51f5c2e133f24ee0bb0d6f9b2fccbf0",
        "5c347d4a6443d8b1cd0caa263362b4ad5db24067b0abd7919a81222f842282d5"),  # 14 leaves
    "wine/1-2-None": ("0d71c07c2d08dcf0c95f232aabf6428d4d58afdcf40fde33be422007968ec235",
        "cdcb33cd292a509c26b4d10f0d14984e2f1caeea12b331d29d16df3cb9d36816"),  # 19 leaves
    "wine/1-255-None": ("261f90dc6b271d6242b7afb2f6ada97a9a272816709f82ab370e2cc651b4165d",
        "d0907cdd96ab5d0dee3cb9514b6b511c7f1730e1538124ec77ea00fc49c0cf1f"),  # 12 leaves
    "wine/10-30-3": ("438f8f3ee1382a71914273ee897a0544702c8494b92a8c43c07f480401bdfad8",
        "0e0dc40c59ef936047eabee20e7d4825e740fa25880ad069f9e6b98eb761ee15"),  # 6 leaves
    "wine/10-30-None": ("a5fdce5798f816f3325b050a55f528fc7774080907a59ce9d392aed8a553eb64",
        "0e0dc40c59ef936047eabee20e7d4825e740fa25880ad069f9e6b98eb761ee15"),  # 6 leaves
    "wine/2-7-None": ("c90b1a72ae7932f58c205196f99ac43329d4d732074e8b03063d5a2b0391d725",
        "dca8edc2b4899ed39b3e18f7971a502f9e1dd5b40fb46344b96a602cf3fa6f88"),  # 13 leaves
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tree_matches_golden_digests(name):
    leaf_ids = []
    tree, X = _fit(name, lambda *args: fit_tree_arrays(*args, leaf_ids=leaf_ids))
    assert tree_digests(tree, X) == PINS[name]
    assert hashlib.sha256(json.dumps(linked(tree)).encode()).hexdigest() == PINS[name][0]
    leaves = tree.apply(X)
    (grown,) = leaf_ids   # the leaf the grower put each row in is the one apply routes it to
    np.testing.assert_array_equal(grown, leaves)
    assert [tree.apply(x) for x in X[:64]] == leaves[:64].tolist()


if __name__ == "__main__":
    check, wrong = "--check" in sys.argv[1:], []
    for case in sorted(CASES):
        tree, X = _fit(case, reference_tree)
        digests = tree_digests(tree, X)
        if not check:
            print(f'    "{case}": ("{digests[0]}",\n{" " * 8}"{digests[1]}"),  # {tree.n_leaves} leaves')
        elif digests != PINS[case]:
            wrong.append(case)
    if check:
        print(f"{len(CASES) - len(wrong)} of {len(CASES)} reference trees equal their pins")
        sys.exit(f"the reference grows other trees than the pins of {wrong}" if wrong else 0)
