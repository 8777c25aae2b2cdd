"""Decision tree embeddings: leaf-mean anchors with pseudoinverse LDA."""

__version__ = "0.1.0"

from .data import (BootstrapSample, Column, DataError, Dataset, FoldPlan,
                   bootstrap, from_arrays, load_csv, save_csv, stratified_folds)
from .embed import Embedding, dte_t, fit_embedding, project
from .lda import LdaModel, discriminant_scores, fit_lda, predict_lda
from .pipeline import CvReport, DteClassifier, cross_validate, fit, predict, timing_sweep
from .tree import DecisionTree, TreeConfig, fit_tree

__all__ = [
    "BootstrapSample", "Column", "CvReport", "DataError", "Dataset",
    "DecisionTree", "DteClassifier", "Embedding", "FoldPlan", "LdaModel",
    "bootstrap", "cross_validate", "discriminant_scores", "dte_t",
    "fit", "fit_embedding", "fit_lda", "fit_tree", "from_arrays", "load_csv",
    "predict", "predict_lda", "project", "save_csv",
    "stratified_folds", "timing_sweep", "TreeConfig",
]
