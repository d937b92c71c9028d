"""Linear max-margin text classification with stratified cross-validation.

Self-contained one-vs-rest soft-margin linear classifiers.  Each binary
model is the optimum of the regularized hinge loss

    J(w, b) = (lambda/2) ||w||^2 + mean_i max(0, 1 - y_i (w.x_i + b))

with lambda = 1 / (C n) and an unregularized bias b.  It is solved by
over-relaxed scaled ADMM (Boyd, Parikh, Chu, Peleato & Eckstein 2011,
sections 3.4.3 and 8.2) on the splitting z = X~ w~, where X~ = [X | 1]
and w~ = [w; b]:

    w~ = rho (z - u) X~ M^-1,  M = rho X~'X~ + lambda diag(1, ..., 1, 0)
    v  = a X~ w~ + (1 - a) z + u
    z  = the hinge prox of v with step tau = 1 / (n rho):
         v where y v >= 1, v + tau y where y v <= 1 - tau, else y
    u  = v - z

with rho = 2 RHO_N / tr(X~'X~), RHO_N / n on unit-norm rows, and
a = RELAX.  The K one-vs-rest models of a training set share X~, so
they share one M^-1 and iterate as one (K x n) batch.  M is symmetric
positive definite, so M^-1 = L^-T L^-1 comes from its Cholesky factor
L, factored once per training set (Boyd et al. section 4.2).  A model
stops at the first iteration whose primal residual X~ w~ - z and dual
residual rho X~'(z - z_prev) are within Boyd's section 3.3.1 bounds,
with eps_abs = eps_rel = tol, and keeps that iteration's w~ and z.
Training is deterministic; the seed only drives fold assignment.  The
support-vector count is the number of training examples with y z <= 1
for at least one category, summed over folds.  The z-update puts every
example within tau of the margin exactly on it, so the count needs no
slack; it still moves with ``tol`` where examples the solver has not
yet resolved lie very near the margin.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence

from .errors import DataError, InputError

if TYPE_CHECKING:  # numpy loads only when a classifier trains
    import numpy as np

FeatureVector = Mapping[int, float]

DEFAULT_K = 10
DEFAULT_SEED = 0
DEFAULT_C = 1.0
DEFAULT_MAX_ITERATIONS = 1000
DEFAULT_TOL = 1e-4
# rho * n on unit rows and the over-relaxation a: of the pairs swept,
# these needed about the fewest iterations and stopped nearest the optimum
RHO_N = 2.0
RELAX = 1.8
# the order at which _lower_inverse stops halving
_TRI_BLOCK = 48


def _design_matrix(vectors: Sequence[FeatureVector]) -> np.ndarray:
    """The (N, d + 1) rows of ``vectors`` over their d feature ids in
    increasing order, with a last column of ones for the bias."""
    import numpy as np

    feature_ids = sorted({fid for vec in vectors for fid in vec})
    index = {fid: i for i, fid in enumerate(feature_ids)}
    X = np.zeros((len(vectors), len(feature_ids) + 1))
    X[:, -1] = 1.0
    for row, vec in enumerate(vectors):
        for fid, w in vec.items():
            X[row, index[fid]] = w
    return X


def _label_matrix(labels: Sequence[Hashable]) -> tuple[list, np.ndarray]:
    """Categories, and the (K, N) one-vs-rest +-1 labels: row j is +1 on
    the examples of category j and -1 elsewhere."""
    import numpy as np

    categories = sorted(set(labels))
    if len(categories) < 2:
        raise InputError("need at least two categories to train")
    index = {cat: j for j, cat in enumerate(categories)}
    codes = np.array([index[lab] for lab in labels])
    return categories, np.where(codes == np.arange(len(categories))[:, None],
                                1.0, -1.0)


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """The inverse of the lower-triangular ``L``, by halves:
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]], with LAPACK's
    general inverse only on blocks of at most _TRI_BLOCK rows.  Its row
    swaps can leave rounding above a block's diagonal; ``tril`` drops it."""
    import numpy as np

    n = len(L)
    if n <= _TRI_BLOCK:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    Ai, Ci = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h], out[h:, h:] = Ai, Ci
    out[h:, :h] = -(Ci @ L[h:, :h]) @ Ai
    return out


def _train_one_vs_rest(X: np.ndarray, Y: np.ndarray, train: np.ndarray,
                       C: float, max_iterations: int, tol: float
                       ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """ADMM training of the K models of one training set (module doc).

    ``X`` is the (N, d + 1) design matrix, ``Y`` the (K, N) labels and
    ``train`` the training rows, of which X~ is one copy.  A feature no
    training row has gets a weight of exactly 0: its row and column of
    X~'X~ are 0, so M keeps it apart from every other column, and so do
    L and L^-1.  Returns the (K, d + 1) weights w~ (bias last), the
    support-vector mask of the training rows, and the iteration at which
    each model stopped (``max_iterations`` if it never did).

    ``_lower_inverse`` inverts the Cholesky factor L by halves with
    matrix products, and M^-1 = L^-T L^-1; L and L^-1 are dropped once
    M^-1 is formed.  A system where Cholesky fails, or leaves a pivot
    L_ii^2 within p eps of M_ii, is singular in floats and refused.  The
    iterations multiply by one contiguous copy of X~', which BLAS takes
    about twice as fast as the transposed view, to the same bits.
    """
    import numpy as np

    if not 0 < C < math.inf:
        raise InputError("C must be positive and finite")
    Xt = X[train]
    Y = Y[:, train]
    n, p = Xt.shape
    lam = 1.0 / (C * n)
    with np.errstate(over="ignore", invalid="ignore"):
        M = Xt.T @ Xt
        trace = np.trace(M)
    if not (np.isfinite(M).all() and np.isfinite(trace)):
        raise DataError("feature weights too large to train on: "
                        "X'X of a training set overflows")
    rho = 2.0 * RHO_N / trace
    tau = 1.0 / (n * rho)
    M *= rho
    M[np.diag_indices(p - 1)] += lam  # every diagonal entry but the bias's
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        L = None
    # lambda is lost beside rho X'X where large features and C meet
    # columns that repeat one another: Cholesky then fails, or leaves a
    # pivot at rounding level of its diagonal entry.  An infinite entry
    # (lambda overflowed) is no such loss: its weight trains to 0.
    diag = np.diag(M)
    if L is None or ((np.diag(L) ** 2 <= p * np.finfo(float).eps * diag)
                     & np.isfinite(diag)).any():
        raise DataError(f"feature weights too large to train on at C={C:g}: "
                        "rho X'X + lambda I is singular")
    del M, diag
    Linv = _lower_inverse(L)
    Minv = Linv.T @ Linv
    del L, Linv
    XtT = np.ascontiguousarray(Xt.T)
    tauY, inner = tau * Y, 1.0 - tau
    abs_pri, abs_dual = math.sqrt(n) * tol, math.sqrt(p) * tol
    K = len(Y)
    W, Z, U = np.zeros((K, p)), np.zeros_like(Y), np.zeros_like(Y)
    ZX, UX = np.zeros((K, p)), np.zeros((K, p))
    # each model's w~ and z at the iteration it stopped
    W_stop, Z_stop = np.empty((K, p)), np.empty_like(Y)
    iterations = np.full(K, max_iterations)
    live = np.ones(K, dtype=bool)

    def norm(A):  # np.linalg.norm(A, axis=1) of real A, without its dispatch
        return np.sqrt(np.add.reduce(A * A, axis=1))

    for it in range(1, max_iterations + 1):
        W = (rho * (ZX - UX)) @ Minv
        XW = W @ XtT
        V = RELAX * XW + (1.0 - RELAX) * Z + U
        YV = Y * V
        Z = np.where(YV >= 1.0, V, np.where(YV <= inner, V + tauY, Y))
        U = V - Z
        ZX, ZX_prev = Z @ Xt, ZX
        UX = U @ Xt
        primal = norm(XW - Z)
        dual = rho * norm(ZX - ZX_prev)
        done = live & (primal <= abs_pri + tol * np.maximum(
            norm(XW), norm(Z))) & (dual <= abs_dual + tol * rho * norm(UX))
        if done.any():
            W_stop[done], Z_stop[done], iterations[done] = W[done], Z[done], it
            live &= ~done
            if not live.any():
                break
    W_stop[live], Z_stop[live] = W[live], Z[live]
    return W_stop, (Y * Z_stop <= 1.0).any(axis=0), iterations.tolist()


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
    fold_support_vectors: tuple[int, ...]  # examples with y z <= 1
    C: float
    seed: int
    n_examples: int
    categories: tuple
    fold_iterations: tuple[tuple[int, ...], ...]  # of each fold model
    max_iterations: int

    @property
    def k(self) -> int:
        return len(self.fold_accuracies)

    @property
    def support_vector_count(self) -> int:
        return sum(self.fold_support_vectors)

    @property
    def models(self) -> int:
        return sum(len(its) for its in self.fold_iterations)

    @property
    def models_capped(self) -> int:
        """One-vs-rest fold models whose training ran to the iteration cap."""
        return sum(it >= self.max_iterations
                   for its in self.fold_iterations for it in its)

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
                   C: float = DEFAULT_C, seed: int = DEFAULT_SEED,
                   max_iterations: int = DEFAULT_MAX_ITERATIONS,
                   tol: float = DEFAULT_TOL) -> EvalReport:
    """Stratified k-fold cross-validation with micro-averaged accuracy."""
    import numpy as np

    if len(vectors) != len(labels):
        raise InputError("vectors and labels differ in length")
    folds = stratified_folds(labels, k, seed)
    categories, Y = _label_matrix(labels)
    X = _design_matrix(vectors)
    correct_total = 0
    fold_accs, fold_svs, fold_iterations = [], [], []
    for fold in folds:
        train = np.ones(len(labels), dtype=bool)
        train[fold] = False
        W, support, iterations = _train_one_vs_rest(
            X, Y, np.flatnonzero(train), C, max_iterations, tol)
        fold_svs.append(int(support.sum()))
        fold_iterations.append(tuple(iterations))
        # ties go to the first category
        best = np.argmax(X[fold] @ W.T, axis=1)
        correct = sum(categories[j] == labels[i]
                      for i, j in zip(fold, best.tolist()))
        fold_accs.append(correct / len(fold))
        correct_total += correct
    return EvalReport(
        mean_accuracy=correct_total / len(labels),
        fold_accuracies=tuple(fold_accs),
        fold_support_vectors=tuple(fold_svs),
        C=C,
        seed=seed,
        n_examples=len(labels),
        categories=tuple(categories),
        fold_iterations=tuple(fold_iterations),
        max_iterations=max_iterations,
    )
