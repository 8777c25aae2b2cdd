"""Golden CSV loads: ``load_csv`` must stay bit-identical across rewrites of the codec.

Each case pins three SHA-256 digests of the loaded Dataset: of
``features.tobytes()``, of ``labels.tobytes()``, and of ``json.dumps`` of the
schema, the label names and the label column. The cases are the bundled CSVs
and a corpus of edge cases written here: categorical columns, a quoted
category holding a comma, ``1_000``, padded numbers, ``-0.0``, Unicode digits,
numeric labels, headerless files, a column numeric until a late category and
numeric columns on both sides of a categorical one. ``LOAD_ERRORS`` pins the
exact message of each rejected file, and ``FEATURE_ERRORS`` that of each file
``load_features`` rejects, faults late in the file among them. The first pins
were taken from the per-cell loader the columnar codec replaced; the late-fault
cases and the last two corpus cases from the per-column parse that preceded the
row-major one. Regenerate them only for a deliberate change of the format:

    PYTHONPATH=src python tests/test_codec_golden.py

The last test checks the codec against itself: re-encoding a file's feature
columns with the schema ``load_csv`` fitted gives its features bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from dte import DataError, load_csv
from dte.data import load_features

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
BUNDLED = {"iris": "species", "wine": "cultivar", "breast_cancer": "diagnosis"}

# name -> (file text, label column, has_header)
CORPUS = {
    "categorical": ("num,color,size,lab\n"
                    "1.5,red,S,a\n-2.25,blue,M,b\n0.125,red,L,a\n3,green,S,b\n"
                    "7,blue,M,c\n", "lab", True),
    "quoted-comma": ('x,kind,y\n1,"red, dark",p\n2,red,q\n3,"red, dark",q\n'
                     '4," red",p\n', "y", True),
    "underscore-digits": ("x,y\n1_000,a\n2_500.5,b\n1e3,a\n-1_0,b\n", "y", True),
    "padded-numbers": ("x,z,y\n  1.5 ,\t2,a\n -3,4 ,b\n 5 ,6,a\n", "y", True),
    "signed-zero": ("x,y\n-0.0,a\n0.0,b\n-0,a\n+0,b\n1e-320,a\n", "y", True),
    "unicode-digits": ("x,y\n١٢,a\n３４,b\n٥.٥,a\n7,b\n",
                       "y", True),
    "label-first-appearance": ("y,x\nzeta,1\nalpha,2\nzeta,3\nmid,4\n", "y", True),
    "label-in-middle": ("a,y,b\n1,p,x\n2,q,y\n3,p,x\n", "y", True),
    "stray-na": ("x,w,y\n1,5,a\n2,NA,b\n3,7,a\n4,8,b\n", "y", True),
    "numeric-labels": ("x,y\n0.5,1\n1.5,2.0\n2.5,1\n3.5,10\n", "y", True),
    "headerless": ("1.0,u,a\n2.0,v,b\n3.5,u,a\n", 2, False),
    "headerless-label-first": ("a,1,2\nb,3,4\na,5,6\n", 0, False),
    "late-category": ("x,c,y\n1,2,a\n2,3,b\n3,4,a\n4,red,b\n5,6,a\n", "y", True),
    "numeric-around-categorical": ("a,c,b,y\n1.5,red,-2,p\n2,blue,0.25,q\n"
                                   "-3,red,4e2,p\n4,green,8,q\n", "y", True),
}

# name -> (file text, label column, has_header, message with the path as <path>)
LOAD_ERRORS = {
    "empty": ("", "y", True, "<path>: empty file"),
    "label-not-in-header": ("x,y\n1,a\n2,b\n", "z", True,
                            "<path>: label column 'z' not found in header"),
    "headerless-label-name": ("1,a\n2,b\n", "y", False,
                              "without a header, label_column must be a zero-based index"),
    "headerless-label-range": ("1,a\n2,b\n", 2, False,
                               "<path>: label column index 2 out of range"),
    "no-rows": ("x,y\n", "y", True, "<path>: no data rows"),
    "wrong-arity": ("x,y\n1,a\n2,b,extra\n", "y", True,
                    "<path>: line 3: expected 2 fields, got 3"),
    "empty-line": ("x,y\n1,a\n\n2,b\n", "y", True,
                   "<path>: line 3: expected 2 fields, got 0"),
    "headerless-arity": ("1,a\n2,b\n3\n", 1, False,
                         "<path>: line 3: expected 2 fields, got 1"),
    "blank-before-arity": ("x,y\n1,a\n ,b\n3,a,x\n", "y", True,
                           "<path>: line 3: missing value in column 'x'"),
    "arity-before-blank": ("x,y\n1,a,z\n,b\n", "y", True,
                           "<path>: line 2: expected 2 fields, got 3"),
    "blank-second-column": ("x,w,y\n1,2,a\n3, ,b\n,4,a\n", "y", True,
                            "<path>: line 3: missing value in column 'w'"),
    "blank-label": ("x,y\n1,a\n2,\n", "y", True,
                    "<path>: line 3: missing value in column 'y'"),
    "one-class": ("x,y\n1,a\n2,a\n", "y", True, "<path>: only one class ('a') present"),
    "one-class-before-non-finite": ("x,y\nnan,a\n2,a\n", "y", True,
                                    "<path>: only one class ('a') present"),
    "nan": ("x,y\n1.0,a\nnan,b\n", "y", True,
            "<path>: line 3: non-finite value 'nan' in column 'x'"),
    "overflow": ("x,y\n1e999,a\n2,b\n", "y", True,
                 "<path>: line 2: non-finite value '1e999' in column 'x'"),
    "non-finite-two-columns": ("a,b,y\n1,-inf,p\nnan,2,q\n", "y", True,
                               "<path>: line 3: non-finite value 'nan' in column 'a'"),
    "late-inf": ("x,y\n1,a\n2,b\n3,a\ninf,b\n", "y", True,
                 "<path>: line 5: non-finite value 'inf' in column 'x'"),
    "late-blank": ("x,w,y\n1,2,a\n3,4,b\n5,6,a\n7, ,b\n", "y", True,
                   "<path>: line 5: missing value in column 'w'"),
    "late-wrong-arity": ("x,w,y\n1,2,a\n3,4,b\n5,6,a\n7,8\n", "y", True,
                         "<path>: line 5: expected 3 fields, got 2"),
    "field-over-size-limit": ("x,y\n1,a\n2," + "b" * 140_000 + "\n", "y", True,
                              "<path>: line 3: field larger than field limit (131072)"),
}


# name -> (file text, has_header, message with the path as <path>); each file is encoded
# by ``load_features`` against the schema ``load_csv`` fits to CORPUS["categorical"]
FEATURE_ERRORS = {
    "late-non-numeric": ("num,color,size\n1.5,red,S\n2,blue,M\n3,green,L\nx,red,S\n", True,
                         "<path>: line 5: non-numeric value 'x' in column 'num'"),
    "late-unknown-category": ("num,color,size\n1.5,red,S\n2,blue,M\n3,green,L\n"
                              "4,purple,S\n", True,
                              "<path>: line 5: unknown category 'purple' in column 'color'"),
    "late-inf": ("num,color,size\n1.5,red,S\n2,blue,M\n-inf,green,L\n", True,
                 "<path>: line 4: non-finite value '-inf' in column 'num'"),
    "late-blank": ("num,color,size\n1.5,red,S\n2,blue,M\n3,,L\n", True,
                   "<path>: line 4: missing value in column 'color'"),
    "late-wrong-arity": ("num,color,size\n1.5,red,S\n2,blue,M\n3,green\n", True,
                         "<path>: line 4: expected 3 fields, got 2"),
    "reordered-columns": ("size,num,color\nS,1.5,red\nM,2,blue\nL,3,green\nS,4,red\n"
                          "XL,5,red\n", True,
                          "<path>: line 6: unknown category 'XL' in column 'size'"),
    "first-source-column-first": ("num,color,size\n1.5,red,S\n2,mauve,M\n3,green,L\n"
                                  "?,red,S\n", True,
                                  "<path>: line 5: non-numeric value '?' in column 'num'"),
    "headerless-late-category": ("1.5,red,S\n2,blue,M\n3,green,XS\n", False,
                                 "<path>: line 3: unknown category 'XS' in column 'size'"),
}


def _load(text, label, has_header):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.csv"
        path.write_text(text, encoding="utf-8")
        return load_csv(path, label, has_header=has_header)


def _dataset(name):
    if name in BUNDLED:
        return load_csv(DATA_DIR / f"{name}.csv", BUNDLED[name])
    return _load(*CORPUS[name])


def load_digests(ds) -> tuple[str, str, str]:
    """SHA-256 of the features, of the labels, and of schema, label names and label column."""
    meta = json.dumps([[c.to_dict() for c in ds.schema], list(ds.label_names),
                       ds.label_column]).encode()
    return tuple(hashlib.sha256(b).hexdigest()
                 for b in (ds.features.tobytes(), ds.labels.tobytes(), meta))


def load_error(name) -> str:
    text, label, has_header, _ = LOAD_ERRORS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_csv(path, label, has_header=has_header)
        return str(info.value).replace(str(path), "<path>")


def feature_error(name) -> str:
    text, has_header, _ = FEATURE_ERRORS[name]
    schema = _dataset("categorical").schema
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_features(path, schema, has_header)
        return str(info.value).replace(str(path), "<path>")


PINS = {
    "breast_cancer": ("6b202a2072f9a0385f405a8f8605b1b06f6f36ae6d23d9cd6cbbc0974a416bc7",
        "64b097f400369a029be86ed82870c2e84828430329a5d6feebd7efc50aaef19e",
        "5c28d74a099e9cb02dff3562201b7319f3b5d1b99ad296ce3304bb3dec0b2315"),  # 569x30
    "categorical": ("fd86aee259d31a0b53dd1a4958972375cf98a30a17c6f571480762b40cd7320c",
        "d54bfb684cf8d92e69ead4507341cdf425327d61ef4398b82d9263236d1ecb06",
        "8966a7341197f548dac042b54a7556d53b0324dfc0bbe10f0ff84a9c55f58948"),  # 5x7
    "headerless": ("7bcc166d3dd13bd65a1571080af5793bb8f6b9333dceda975112103121106e8f",
        "ad237e0f45f30122574baddb1856a3d40ef7e57c3f737716d1c4625ef6f220c7",
        "91f00746902c27df06ed479216658683c051a9e43f0e54407c3150ff468a4de6"),  # 3x3
    "headerless-label-first": ("d73f023a3f852bf2e5c6d836cd36cd930d0091dcba7f778161c707e1c58222b0",
        "ad237e0f45f30122574baddb1856a3d40ef7e57c3f737716d1c4625ef6f220c7",
        "4fb8c52f5f62817b5aee75b74a88eb91e7767845d8a5179406343758719be13a"),  # 3x2
    "iris": ("012f498fe9c8b3b34212c3c5d98e1f03f2f79931cd49349beb1bad64dcf164a7",
        "b1c91300d19fba25031f6355f49c81c586d787f7021b29c6934de20bc30eae23",
        "51969a89d742d1d7b7d86034f92416d027002d5643cf26f5f41347206471f2c4"),  # 150x4
    "label-first-appearance": ("6bab56d2f81d4b5a2dbf102bf6a6ff7d5211a475fc5f97813f977e8ba714b07d",
        "7a87bdb1cc8d6df4973f30cb6d3dd63eebedb51dd58396349b48ffa6148aa8fb",
        "9aa9096916e413d884263b841be57f26ba374fc0bfc10ae94f5c59b9bd2820d6"),  # 4x1
    "label-in-middle": ("008279a294d24e98e9e02e62f6277eea1c9a2ea04140c62d940886b292e53c62",
        "ad237e0f45f30122574baddb1856a3d40ef7e57c3f737716d1c4625ef6f220c7",
        "6dab301e2b532bea1d2a70323d97b1907e3a4e8550c79873799c755a8f34aa2e"),  # 3x3
    "late-category": ("48b4780f68ca3a30f544faa11e6f3b372e4dc0dd54c4e7e3bf17ee4423a49881",
        "8189b4fbd24781d0747593e5cc2e3d844d7d75fae852dfc5b17fa344b226e97d",
        "ea1d1fb3dabbdacac87b27b1fddd622c84b458a0364eebf281a7c407156c8d90"),  # 5x6
    "numeric-around-categorical": ("450b3ddef08f2817d31c663fcfa79b562134a660768d4b4ae817dc6d505994fc",
        "60cb1131bd82441237f153b62397d13966681fa269ce80e4fcedfffc7fd8dd92",
        "d1e80a9fc352494673ef1aeb11e92387b2a47833aae92b5b2c8efd945df351c8"),  # 4x5
    "numeric-labels": ("982954a1c5a253c6d2d13289cb3f40aabfe7c7af476ccac76d78b50d20e31d74",
        "7a87bdb1cc8d6df4973f30cb6d3dd63eebedb51dd58396349b48ffa6148aa8fb",
        "b9fad8934e9c2e1b0c8595e07623b17e45caec727b6f33f9d1b4d3a86a30c37d"),  # 4x1
    "padded-numbers": ("351f8bd43f53562d0bcfd5e56cfd544a83176c51dfa03ec68d41ebb391cf7aa6",
        "ad237e0f45f30122574baddb1856a3d40ef7e57c3f737716d1c4625ef6f220c7",
        "791ea8f5f2f715497da3a5acb6df92c2b4c6ce46263eab6b8d0479e9341718b9"),  # 3x2
    "quoted-comma": ("eb733cdb926503069e6e5245b260c91891d779fa1675f0c0a2715a281350a1b8",
        "4ff8ce1dd9258ef46321f9fb12e38f4efed2eb402d51db622746dd58b3c91c9a",
        "53d2f766c03f4c02f515b6dbb535089e4d7028773e69e600dca4ed9919317755"),  # 4x4
    "signed-zero": ("87ef1510b31787f27a81bc5d7db54f30190a640fdce769ebba404c7309830cbf",
        "8189b4fbd24781d0747593e5cc2e3d844d7d75fae852dfc5b17fa344b226e97d",
        "7697af33faa1440ca663755bae45039f9f4a13afc7bf8b6abf06c13e1796c91c"),  # 5x1
    "stray-na": ("db8688aa4ad49b062a0fb59c999799767eff1e6eb8a9904e03d21f45f38caa6b",
        "60cb1131bd82441237f153b62397d13966681fa269ce80e4fcedfffc7fd8dd92",
        "7961ae59e051aa43b0ec58580d6394a0a4206149146fc041a8fb83bae5b9bda2"),  # 4x5
    "underscore-digits": ("a9dc4a342ee0cd6d7cbb77e08b2b0e301886e0f02000d1f7b749a3f0f01a6281",
        "60cb1131bd82441237f153b62397d13966681fa269ce80e4fcedfffc7fd8dd92",
        "7697af33faa1440ca663755bae45039f9f4a13afc7bf8b6abf06c13e1796c91c"),  # 4x1
    "unicode-digits": ("6081e3eaec5b5418d2e2672de906e78cf46ece19939bb7e8c477a8eb06e2d3fa",
        "60cb1131bd82441237f153b62397d13966681fa269ce80e4fcedfffc7fd8dd92",
        "7697af33faa1440ca663755bae45039f9f4a13afc7bf8b6abf06c13e1796c91c"),  # 4x1
    "wine": ("8edcf3903afd97c64d51e0212eb10b213f7943da650574d1c055b836c5c35d37",
        "5ac337ead8da4d7dae808bc3160e114180d6fcf4069867d4224dc81ec6be28c8",
        "6e52f9e9f6a7db0e8067111ac536173ff465947f2759bfde7a00d634ac73f51b"),  # 178x13
}


@pytest.mark.parametrize("name", sorted([*BUNDLED, *CORPUS]))
def test_load_matches_golden_digests(name):
    assert load_digests(_dataset(name)) == PINS[name]


@pytest.mark.parametrize("name", sorted(LOAD_ERRORS))
def test_load_error_message_is_pinned(name):
    assert load_error(name) == LOAD_ERRORS[name][3]


@pytest.mark.parametrize("name", sorted(FEATURE_ERRORS))
def test_feature_error_message_is_pinned(name):
    assert feature_error(name) == FEATURE_ERRORS[name][2]


@pytest.mark.parametrize("name", sorted([*BUNDLED, *CORPUS]))
def test_encoding_feature_columns_with_stored_schema_reproduces_features(name, tmp_path):
    """The prediction path (``load_features``) re-encodes a training file's
    feature columns to the training features bit for bit, one-hot columns
    included; with a header, the columns are also given in reverse order."""
    ds = _dataset(name)
    if name in BUNDLED:
        text, label, has_header = (DATA_DIR / f"{name}.csv").read_text(encoding="utf-8"), \
            BUNDLED[name], True
    else:
        text, label, has_header = CORPUS[name]
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index(label) if has_header else label
    rows = [row[:drop] + row[drop + 1:] for row in rows]
    if has_header:
        rows = [row[::-1] for row in rows]
    path = tmp_path / "features.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    X = load_features(path, ds.schema, has_header)
    assert X.tobytes() == ds.features.tobytes()


if __name__ == "__main__":
    for case in sorted([*BUNDLED, *CORPUS]):
        ds = _dataset(case)
        a, b, c = load_digests(ds)
        print(f'    "{case}": ("{a}",\n{" " * 8}"{b}",\n{" " * 8}"{c}"),  # {ds.n}x{ds.p}')
