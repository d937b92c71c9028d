"""Linear max-margin text classification with stratified cross-validation.

Self-contained one-vs-rest soft-margin linear classifiers trained by
full-batch projected subgradient descent on the regularized hinge loss

    J(w, b) = (lambda/2) ||w||^2 + mean_i max(0, 1 - y_i (w.x_i + b))

with lambda = 1 / (C n).  All models share X and differ only in their
labels, so they train together: cross-validation stacks the K
one-vs-rest models of all k folds into one (k*K x d) full-batch update,
each row labelled 0 on its fold's held-out examples.  Each model (row)
is frozen at the epoch where its own objective converges, which leaves
every row's iteration that of a model trained alone.  Full-batch
updates make training deterministic; the seed only drives fold
assignment.  The reported support-vector count is the number of
training examples whose hinge margin is active (y f(x) <= 1 + 1e-6) at
convergence for at least one category, summed over folds.
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


def _densify(vectors: Sequence[FeatureVector],
             feature_ids: Sequence[int]) -> np.ndarray:
    index = {fid: i for i, fid in enumerate(feature_ids)}
    X = np.zeros((len(vectors), len(feature_ids)))
    for row, vec in enumerate(vectors):
        for fid, w in vec.items():
            X[row, index[fid]] = w
    return X


def _label_matrix(labels: Sequence[Hashable], train_of: np.ndarray
                  ) -> tuple[list, np.ndarray]:
    """Categories, and the (S*K, N) one-vs-rest labels of S training sets.

    ``train_of`` is an (S, N) boolean row mask, one row per training set.
    Row s*K + j of the result holds the +-1 labels of category j on the
    examples of training set s and 0 on every other example.
    """
    categories = sorted(set(labels))
    if len(categories) < 2:
        raise InputError("need at least two categories to train")
    index = {cat: j for j, cat in enumerate(categories)}
    codes = np.array([index[lab] for lab in labels])
    Y = np.where(codes == np.arange(len(categories))[:, None], 1.0, -1.0)
    Y = np.where(train_of[:, None, :], Y, 0.0)
    return categories, Y.reshape(-1, len(labels))


def _train_one_vs_rest(X: np.ndarray, Y: np.ndarray, C: float,
                       max_epochs: int, tol: float
                       ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Pegasos-style full-batch training of R binary classifiers at once.

    Row r of the (R, N) label matrix ``Y`` holds the +-1 labels of model
    r on its n_r training examples and 0 on the examples it must not see,
    so every fold's one-vs-rest models train together over the same X.
    Each row has its own lambda = 1/(C n_r), step size and projection
    radius 1/sqrt(lambda).  Each epoch takes one subgradient step for
    every live row, projects it, and computes the (R, N) margins once:
    they give the objective and the next epoch's active set, and both
    are 0 on a row's unseen examples.  A row whose relative objective
    change falls below ``tol`` is frozen at that epoch, so every row
    follows the iteration it would follow if trained alone.

    Each step moves a row by at most C * sum_i ||x_i|| over its training
    examples from inside the radius sqrt(C n_r), so training is refused
    (DataError) when the square of that bound is not a finite float.
    """
    if not C > 0:
        raise InputError("C must be positive")
    U = np.abs(Y)  # 1 on each row's training examples, else 0
    n = U.sum(axis=1)
    for n_r, norms in zip(n.tolist(), (U @ np.linalg.norm(X, axis=1)).tolist()):
        bound = math.sqrt(C * n_r) + C * norms
        if not math.isfinite(bound * bound):
            raise DataError("feature weights too large to train on: the weight "
                            "norm bound (sqrt(C n) + C sum ||x_i||)^2 overflows")
    lam = 1.0 / (C * n)
    radius = 1.0 / np.sqrt(lam)
    XT = np.ascontiguousarray(X.T)
    R = Y.shape[0]
    W = np.zeros((R, X.shape[1]))
    b = np.zeros(R)
    epochs = [max_epochs] * R
    # Live rows: their indices into W, and their weights, bias, labels,
    # training mask, margins, previous objective, n, lambda and radius.
    rows = np.arange(R)
    Wl, bl, Yl, Ul, Ml = np.zeros_like(W), np.zeros(R), Y, U, np.zeros_like(Y)
    prev_obj = np.full(R, math.inf)
    for epoch in range(1, max_epochs + 1):
        A = np.where(Ml < 1.0, Yl, 0.0)
        eta = 1.0 / (lam * epoch)
        Wl = Wl - eta[:, None] * (lam[:, None] * Wl - (A @ X) / n[:, None])
        bl = bl - eta * (-A.sum(axis=1) / n)
        norm = np.sqrt(np.einsum("kd,kd->k", Wl, Wl))
        over = norm > radius
        if over.any():
            Wl[over] *= (radius[over] / norm[over])[:, None]
        Ml = Yl * (Wl @ XT + bl[:, None])
        # sum / n is np.mean's arithmetic without its per-call overhead;
        # U - M is 1 - M on training examples and 0 on unseen ones
        obj = 0.5 * lam * np.einsum("kd,kd->k", Wl, Wl) + (
            np.maximum(0.0, Ul - Ml).sum(axis=1) / n)
        done = np.abs(prev_obj - obj) < tol * np.maximum(np.abs(prev_obj), 1e-12)
        prev_obj = obj
        if done.any():
            W[rows[done]] = Wl[done]
            b[rows[done]] = bl[done]
            for r in rows[done]:
                epochs[r] = epoch
            live = ~done
            rows, Wl, bl, Yl, Ul, Ml, prev_obj, n, lam, radius = (
                a[live] for a in (rows, Wl, bl, Yl, Ul, Ml, prev_obj, n, lam, radius))
            if not rows.size:
                break
    W[rows] = Wl
    b[rows] = bl
    return W, b, epochs


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
    train_of = np.ones((k, len(labels)), dtype=bool)
    for f, fold in enumerate(folds):
        train_of[f, fold] = False
    categories, Y = _label_matrix(labels, train_of)
    feature_ids = sorted({fid for vec in vectors for fid in vec})
    X_all = _densify(vectors, feature_ids)
    # every fold's models at once; a feature unseen in a fold's training
    # rows keeps weight 0 in that fold's (K x d) block
    W, b, epochs = _train_one_vs_rest(X_all, Y, C, max_epochs, tol)
    K = len(categories)
    scores = X_all @ W.T + b  # (N, k*K)
    active = (Y * scores.T <= 1.0 + MARGIN_SLACK) & (Y != 0)
    fold_svs = active.reshape(k, K, -1).any(axis=1).sum(axis=1).tolist()
    correct_total = 0
    fold_accs = []
    for f, fold in enumerate(folds):
        # ties go to the first category
        best = np.argmax(scores[fold, f * K:(f + 1) * K], axis=1)
        correct = sum(categories[j] == labels[i]
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
        categories=tuple(categories),
        fold_epochs=tuple(tuple(epochs[f * K:(f + 1) * K]) for f in range(k)),
        max_epochs=max_epochs,
    )
