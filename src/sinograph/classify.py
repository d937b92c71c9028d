"""Linear max-margin text classification with stratified cross-validation.

Self-contained one-vs-rest soft-margin linear classifiers trained by
full-batch projected subgradient descent on the regularized hinge loss

    J(w, b) = (lambda/2) ||w||^2 + mean_i max(0, 1 - y_i (w.x_i + b))

with lambda = 1 / (C n).  Full-batch updates make training deterministic;
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

from .errors import InputError

FeatureVector = Mapping[int, float]

MARGIN_SLACK = 1e-6
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


def _train_binary(X: np.ndarray, y: np.ndarray, C: float,
                  max_epochs: int, tol: float) -> tuple[np.ndarray, float, int]:
    """Pegasos-style full-batch training of one binary classifier."""
    n, d = X.shape
    lam = 1.0 / (C * n)
    radius = 1.0 / math.sqrt(lam)
    w = np.zeros(d)
    b = 0.0
    prev_obj = math.inf
    epoch = 0
    for epoch in range(1, max_epochs + 1):
        margins = y * (X @ w + b)
        active = margins < 1.0
        eta = 1.0 / (lam * epoch)
        grad_w = lam * w - (X[active].T @ y[active]) / n
        grad_b = -np.sum(y[active]) / n
        w = w - eta * grad_w
        b = b - eta * grad_b
        norm = np.linalg.norm(w)
        if norm > radius:
            w *= radius / norm
        obj = 0.5 * lam * float(w @ w) + float(
            np.mean(np.maximum(0.0, 1.0 - y * (X @ w + b))))
        if abs(prev_obj - obj) < tol * max(abs(prev_obj), 1e-12):
            break
        prev_obj = obj
    return w, b, epoch


def train(vectors: Sequence[FeatureVector], labels: Sequence[Hashable],
          C: float = 1.0, seed: int = 0,
          max_epochs: int = DEFAULT_MAX_EPOCHS,
          tol: float = DEFAULT_TOL) -> LinearModel:
    """One-vs-rest linear classifiers over the union of feature ids."""
    if len(vectors) != len(labels):
        raise InputError("vectors and labels differ in length")
    categories = sorted(set(labels))
    if len(categories) < 2:
        raise InputError("need at least two categories to train")
    feature_ids = sorted({fid for vec in vectors for fid in vec})
    X = _densify(vectors, feature_ids)
    weights = np.zeros((len(categories), len(feature_ids)))
    bias = np.zeros(len(categories))
    epochs = []
    for k, cat in enumerate(categories):
        y = np.where(np.asarray([lab == cat for lab in labels]), 1.0, -1.0)
        w, b, ep = _train_binary(X, y, C, max_epochs, tol)
        weights[k] = w
        bias[k] = b
        epochs.append(ep)
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
                   labels: Sequence[Hashable], k: int = 10,
                   C: float = 1.0, seed: int = 0,
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
        model = train([vectors[i] for i in train_idx],
                      [labels[i] for i in train_idx],
                      C=C, seed=seed, max_epochs=max_epochs, tol=tol)
        fold_epochs.append(tuple(model.epochs_run))
        fold_svs.append(_support_vector_count(
            model, _densify([vectors[i] for i in train_idx], model.feature_ids),
            [labels[i] for i in train_idx]))
        cols = [col_of[fid] for fid in model.feature_ids]
        correct = 0
        for i in fold:
            scores = model.weights @ X_all[i, cols] + model.bias
            if model.categories[int(np.argmax(scores))] == labels[i]:
                correct += 1
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
