"""Linear max-margin text classification with stratified cross-validation.

Self-contained one-vs-rest soft-margin linear classifiers trained by
full-batch projected subgradient descent on the regularized hinge loss

    J(w, b) = (lambda/2) ||w||^2 + mean_i max(0, 1 - y_i (w.x_i + b))

with lambda = 1 / (C n).  The K one-vs-rest models share X and differ
only in their labels, so they train together: each epoch is one (K x d)
full-batch update, and each model (row) is frozen at the epoch where its
own objective converges, which leaves every row's iteration that of a
model trained alone.  Full-batch updates make training deterministic;
the seed only drives fold assignment.  The reported support-vector count
is the number of training examples whose hinge margin is active
(y f(x) <= 1 + 1e-6) at convergence for at least one category, summed
over folds.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from random import Random
from typing import Hashable, Mapping, Sequence

import numpy as np

from .errors import DataError, InputError

FeatureVector = Mapping[int, float]

MARGIN_SLACK = 1e-6
DEFAULT_K = 10
DEFAULT_C = 1.0
DEFAULT_MAX_EPOCHS = 2000
DEFAULT_TOL = 1e-5


@dataclass
class LinearModel:
    categories: list
    feature_ids: list[int]
    weights: np.ndarray  # (n_categories, n_features)
    bias: np.ndarray  # (n_categories,)
    C: float
    seed: int
    epochs_run: list[int]

    def scores(self, x: np.ndarray) -> np.ndarray:
        return self.weights @ x + self.bias


def _densify(vectors: Sequence[FeatureVector],
             feature_ids: Sequence[int]) -> np.ndarray:
    index = {fid: i for i, fid in enumerate(feature_ids)}
    X = np.zeros((len(vectors), len(feature_ids)))
    for row, vec in enumerate(vectors):
        for fid, w in vec.items():
            col = index.get(fid)
            if col is None:
                raise InputError(f"vector {row} uses feature {fid} outside "
                                 f"the model vocabulary")
            X[row, col] = w
    return X


def _train_one_vs_rest(X: np.ndarray, Y: np.ndarray, C: float,
                       max_epochs: int, tol: float
                       ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Pegasos-style full-batch training of K binary classifiers at once.

    Row k of the (K, n) label matrix ``Y`` holds the +-1 labels of
    category k.  Each epoch takes one subgradient step for every live
    row, projects each row onto the radius 1/sqrt(lambda), and computes
    the (K, n) margins once: they give the objective and the next
    epoch's active set.  A row whose relative objective change falls
    below ``tol`` is frozen at that epoch, so every row follows the
    iteration it would follow if trained alone.
    """
    n = X.shape[0]
    K = Y.shape[0]
    lam = 1.0 / (C * n)
    radius = 1.0 / math.sqrt(lam)
    XT = np.ascontiguousarray(X.T)
    W = np.zeros((K, X.shape[1]))
    b = np.zeros(K)
    epochs = [max_epochs] * K
    # Live rows: their indices into W, and their weights, bias, labels,
    # margins and previous objective.
    rows = np.arange(K)
    Wl, bl, Yl, Ml = np.zeros_like(W), np.zeros(K), Y, np.zeros_like(Y)
    prev_obj = np.full(K, math.inf)
    for epoch in range(1, max_epochs + 1):
        A = np.where(Ml < 1.0, Yl, 0.0)
        eta = 1.0 / (lam * epoch)
        Wl = Wl - eta * (lam * Wl - (A @ X) / n)
        bl = bl - eta * (-A.sum(axis=1) / n)
        norm = np.sqrt(np.einsum("kd,kd->k", Wl, Wl))
        over = norm > radius
        if over.any():
            Wl[over] *= (radius / norm[over])[:, None]
        Ml = Yl * (Wl @ XT + bl[:, None])
        # sum / n is np.mean's arithmetic without its per-call overhead
        obj = 0.5 * lam * np.einsum("kd,kd->k", Wl, Wl) + (
            np.maximum(0.0, 1.0 - Ml).sum(axis=1) / n)
        done = np.abs(prev_obj - obj) < tol * np.maximum(np.abs(prev_obj), 1e-12)
        prev_obj = obj
        if done.any():
            W[rows[done]] = Wl[done]
            b[rows[done]] = bl[done]
            for k in rows[done]:
                epochs[k] = epoch
            live = ~done
            rows, Wl, bl, Yl, Ml, prev_obj = (
                rows[live], Wl[live], bl[live], Yl[live], Ml[live], prev_obj[live])
            if not rows.size:
                break
    W[rows] = Wl
    b[rows] = bl
    return W, b, epochs


def train(vectors: Sequence[FeatureVector], labels: Sequence[Hashable],
          C: float = DEFAULT_C, seed: int = 0,
          max_epochs: int = DEFAULT_MAX_EPOCHS,
          tol: float = DEFAULT_TOL) -> LinearModel:
    """One-vs-rest linear classifiers over the union of feature ids.

    Each step moves a weight row by at most C * sum_i ||x_i|| from inside
    the projection radius sqrt(C n), so training is refused (DataError)
    when the square of that bound is not a finite float.
    """
    if not C > 0:
        raise InputError("C must be positive")
    if len(vectors) != len(labels):
        raise InputError("vectors and labels differ in length")
    categories = sorted(set(labels))
    if len(categories) < 2:
        raise InputError("need at least two categories to train")
    feature_ids = sorted({fid for vec in vectors for fid in vec})
    X = _densify(vectors, feature_ids)
    bound = math.sqrt(C * len(vectors)) + C * float(np.linalg.norm(X, axis=1).sum())
    if not math.isfinite(bound * bound):
        raise DataError("feature weights too large to train on: the weight "
                        "norm bound (sqrt(C n) + C sum ||x_i||)^2 overflows")
    Y = np.array([[1.0 if lab == cat else -1.0 for lab in labels]
                  for cat in categories])
    weights, bias, epochs = _train_one_vs_rest(X, Y, C, max_epochs, tol)
    return LinearModel(categories, feature_ids, weights, bias, C, seed, epochs)


def predict(model: LinearModel, vector: FeatureVector):
    """Category with the highest score; ties go to the earliest category."""
    x = _densify([vector], model.feature_ids)[0]
    scores = model.scores(x)
    return model.categories[int(np.argmax(scores))]


def _support_vector_count(model: LinearModel, X: np.ndarray,
                          labels: Sequence[Hashable]) -> int:
    """Training examples with an active hinge margin for any category."""
    active = np.zeros(len(labels), dtype=bool)
    for k, cat in enumerate(model.categories):
        y = np.where(np.asarray([lab == cat for lab in labels]), 1.0, -1.0)
        margins = y * (X @ model.weights[k] + model.bias[k])
        active |= margins <= 1.0 + MARGIN_SLACK
    return int(np.sum(active))


def stratified_folds(labels: Sequence[Hashable], k: int,
                     seed: int) -> list[list[int]]:
    """Disjoint covering folds whose class proportions match the corpus
    within one example per class."""
    if k < 2:
        raise InputError("need k >= 2 folds")
    by_label: dict = defaultdict(list)
    for i, lab in enumerate(labels):
        by_label[lab].append(i)
    rng = Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for lab in sorted(by_label):
        idx = by_label[lab]
        if len(idx) < k:
            raise InputError(f"category {lab!r} has {len(idx)} examples, "
                             f"fewer than k={k}")
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            folds[j % k].append(i)
    return [sorted(f) for f in folds]


@dataclass(frozen=True)
class EvalReport:
    mean_accuracy: float
    fold_accuracies: tuple[float, ...]
    support_vector_count: int  # active-margin training examples, all folds
    fold_support_vectors: tuple[int, ...]
    k: int
    C: float
    seed: int
    n_examples: int
    categories: tuple
    fold_epochs: tuple[tuple[int, ...], ...]  # epochs_run of each fold model
    max_epochs: int

    @property
    def models(self) -> int:
        return sum(len(epochs) for epochs in self.fold_epochs)

    @property
    def models_capped(self) -> int:
        """One-vs-rest fold models whose training ran to the epoch cap."""
        return sum(e >= self.max_epochs
                   for epochs in self.fold_epochs for e in epochs)

    def lines(self) -> list[str]:
        out = [
            f"examples\t{self.n_examples}",
            f"categories\t{' '.join(str(c) for c in self.categories)}",
            f"k\t{self.k}",
            f"C\t{self.C:g}",
            f"seed\t{self.seed}",
        ]
        for i, acc in enumerate(self.fold_accuracies):
            out.append(f"fold_{i}_accuracy\t{acc:.6f}")
        out.append(f"mean_accuracy\t{self.mean_accuracy:.6f}")
        out.append(f"support_vectors\t{self.support_vector_count}")
        return out


def cross_validate(vectors: Sequence[FeatureVector],
                   labels: Sequence[Hashable], k: int = DEFAULT_K,
                   C: float = DEFAULT_C, seed: int = 0,
                   max_epochs: int = DEFAULT_MAX_EPOCHS,
                   tol: float = DEFAULT_TOL) -> EvalReport:
    """Stratified k-fold cross-validation with micro-averaged accuracy."""
    if len(vectors) != len(labels):
        raise InputError("vectors and labels differ in length")
    folds = stratified_folds(labels, k, seed)
    feature_ids = sorted({fid for vec in vectors for fid in vec})
    col_of = {fid: i for i, fid in enumerate(feature_ids)}
    X_all = _densify(vectors, feature_ids)
    correct_total = 0
    fold_svs = []
    fold_accs = []
    fold_epochs = []
    for fold in folds:
        test = set(fold)
        train_idx = [i for i in range(len(labels)) if i not in test]
        train_labels = [labels[i] for i in train_idx]
        model = train([vectors[i] for i in train_idx], train_labels,
                      C=C, seed=seed, max_epochs=max_epochs, tol=tol)
        fold_epochs.append(tuple(model.epochs_run))
        cols = [col_of[fid] for fid in model.feature_ids]
        fold_svs.append(_support_vector_count(
            model, X_all[np.ix_(train_idx, cols)], train_labels))
        scores = X_all[np.ix_(fold, cols)] @ model.weights.T + model.bias
        best = np.argmax(scores, axis=1)  # ties go to the first category
        correct = sum(model.categories[j] == labels[i]
                      for i, j in zip(fold, best.tolist()))
        fold_accs.append(correct / len(fold))
        correct_total += correct
    return EvalReport(
        mean_accuracy=correct_total / len(labels),
        fold_accuracies=tuple(fold_accs),
        support_vector_count=sum(fold_svs),
        fold_support_vectors=tuple(fold_svs),
        k=k,
        C=C,
        seed=seed,
        n_examples=len(labels),
        categories=tuple(sorted(set(labels))),
        fold_epochs=tuple(fold_epochs),
        max_epochs=max_epochs,
    )
