"""Golden cross-validation reports: error tables and fold widths must stay
bit-identical across rewrites of how ``cross_validate`` grows its trees.

Each case pins, per method, the SHA-256 of ``errors.tobytes()`` and of
``leaf_counts.tobytes()``. A changed split, leaf count, anchor bit or LDA
prediction on any fold fails here. The default cases are the paper's 10x5
experiment as ``dte benchmark`` runs it; ``small-leaves`` reads ten trees per
fold grown at a non-default config. Regenerate the pins only for a deliberate
change of the method:

    PYTHONPATH=src python tests/test_cv_golden.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from dte import TreeConfig, cross_validate, load_csv

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
BUNDLED = {"iris": "species", "wine": "cultivar", "breast_cancer": "diagnosis"}

# case -> (dataset, methods, replicates, config)
CASES = {
    **{f"{name}-default": (name, ("dte-1", "dte-3", "tree"), 10, TreeConfig())
       for name in BUNDLED},
    **{f"{name}-small-leaves": (name, ("dte-10", "tree"), 3, TreeConfig(2, 7))
       for name in ("wine", "breast_cancer")},
}


def report_digests(case: str) -> dict[str, tuple[str, str]]:
    """Method -> SHA-256 of its errors and of its leaf counts, at seed 42 and 5 folds."""
    name, methods, replicates, cfg = CASES[case]
    ds = load_csv(DATA_DIR / f"{name}.csv", BUNDLED[name])
    reports = cross_validate(ds, methods, replicates, 5, 42, cfg)
    return {rep.method: (hashlib.sha256(rep.errors.tobytes()).hexdigest(),
                         hashlib.sha256(rep.leaf_counts.tobytes()).hexdigest())
            for rep in reports}


PINS = {
    "breast_cancer-default": {
        "dte-1": ("252bf0a2c57e97b8d4b76540c5c7a21368797528a00a19462acfaf9c11e18c09",
            "52e8825bd9ed0400276f11bb3aa90fd1cb021c7591158516843e493a21e53ca4"),
        "dte-3": ("6e4b5db630fa6f74a1c958fce9b57866dee141069be99380ea7c2e49f622fa0a",
            "c6fb56a5fea6b3948610bb3001eb34b137cba19fea4bc325c017a6bf21ad974b"),
        "tree": ("46cd72ac10935585bab5c225418e695c6e3b495dfc3aecf2299f2b8310503fca",
            "52e8825bd9ed0400276f11bb3aa90fd1cb021c7591158516843e493a21e53ca4"),
    },
    "breast_cancer-small-leaves": {
        "dte-10": ("5fc984943cbee617269f0fcdbd60bb035157a156bcfe7e85d3f976fc6bb43374",
            "714af7610a2169d6d52b0a266c630a7fdec07db0c1a608e38719ecf4e28c2eb0"),
        "tree": ("10f84dc4ab5920a1b6dd9a15386afbfdbba2aa7e83278b81d9b67a145d0f9266",
            "e04c167e2f128bfdc2e18a505f975bf47ba202662fe4c81622d0fcb5e346c4ab"),
    },
    "iris-default": {
        "dte-1": ("00bd794511802c9cbe92b5b084b6a42c20f9c6581815ec3c89dd47bbb1a53c25",
            "49021184b23d54ea1e7fa97e89db9760182713c8ce98b3c182ecdc87ed97ad0a"),
        "dte-3": ("00bd794511802c9cbe92b5b084b6a42c20f9c6581815ec3c89dd47bbb1a53c25",
            "6a3afbb921a39332348611a3d0ad24e27b0538df45cb3979c5cc9874d675df90"),
        "tree": ("be9e20a696ac9f72c734aea4e0e457fa3cdb83ad65804cde15cc37710c2248f6",
            "49021184b23d54ea1e7fa97e89db9760182713c8ce98b3c182ecdc87ed97ad0a"),
    },
    "wine-default": {
        "dte-1": ("e22234b96f6a47c45ff837734cd807a283b4cca2e5087679c6635a1a1baea76c",
            "bbeb09b3b64ea5be73bd36c33b54dddfcc6c9e66efb75f2fe6fb9d5abad89eaa"),
        "dte-3": ("e2fca82e2b09236f5aeb63723ca09ae699112d05bbf553a456af40e3138aa44a",
            "32c9892824dad09baf073348c2af8482b09a579d0632ac75202b58ef48eafe57"),
        "tree": ("9b5e8e6c9554b6a141f867a84f26e43a01e4d24dc74cba03b2a22e42a824f904",
            "bbeb09b3b64ea5be73bd36c33b54dddfcc6c9e66efb75f2fe6fb9d5abad89eaa"),
    },
    "wine-small-leaves": {
        "dte-10": ("e7793619a38e7e65624e2f57ffd4f75f45eceb27afac52359e7fb4182ba63d1b",
            "34ddc316128de237f920e1fb217055794fd845f01d66f47b9dcde90995633a9f"),
        "tree": ("a2ca3eb2409d323a522a5c6018fa812bc9a70234dfe3f38d4e15af2298913c7c",
            "e4259ec2ae9d656ea3b31d3749034db7bd3a0f5bfb4b103447b7d500cb76adb6"),
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_golden_digests(case):
    assert report_digests(case) == PINS[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": {{')
        for method, (errors, widths) in report_digests(case).items():
            print(f'        "{method}": ("{errors}",\n            "{widths}"),')
        print("    },")
