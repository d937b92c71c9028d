import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.optimize import Bounds, minimize

from sinograph import classify
from sinograph.classify import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOL,
    _TRI_BLOCK,
    _design_matrix,
    _label_matrix,
    _lower_inverse,
    _train_one_vs_rest,
    cross_validate,
    stratified_folds,
)
from sinograph.errors import DataError, InputError


def separable_corpus(n_per_class=30, n_classes=3, seed=0):
    """Each category lives on its own feature block."""
    rng = random.Random(seed)
    vectors, labels = [], []
    for k in range(n_classes):
        for _ in range(n_per_class):
            vec = {k * 2: 0.9 + rng.random() * 0.1,
                   k * 2 + 1: 0.3 + rng.random() * 0.1}
            vectors.append(vec)
            labels.append(f"cat{k}")
    return vectors, labels


def top_category(categories, scores):
    """The category of the highest score; ties go to the first."""
    return categories[int(np.argmax(scores))]


def fit_all(vectors, labels, C=1.0, max_iterations=DEFAULT_MAX_ITERATIONS,
            tol=DEFAULT_TOL):
    """The trainer on one training set of every example: the categories,
    the (N, d + 1) design matrix, and the (K, d + 1) weights (bias last),
    support-vector mask and iterations it returns."""
    categories, Y = _label_matrix(labels)
    X = _design_matrix(vectors)
    return (categories, X, *_train_one_vs_rest(
        X, Y, np.arange(len(labels)), C, max_iterations, tol))


def fitted_labels(vectors, labels, C=1.0):
    categories, X, W, _, _ = fit_all(vectors, labels, C=C)
    return [top_category(categories, s) for s in X @ W.T]


def test_separable_training_accuracy():
    vectors, labels = separable_corpus()
    assert fitted_labels(vectors, labels) == labels


def test_contradictory_labels_no_crash():
    vectors = [{0: 1.0}, {0: 1.0}, {1: 1.0}, {1: 1.0}]
    labels = ["a", "b", "a", "b"]
    predicted = fitted_labels(vectors, labels)
    assert sum(p == lab for p, lab in zip(predicted, labels)) < len(labels)


def test_small_c_shrinks_weights():
    vectors, labels = separable_corpus(n_per_class=10, n_classes=2)
    _, _, W, _, _ = fit_all(vectors, labels, C=1e-9)
    assert float(abs(W[:, :-1]).max()) < 1e-3


def test_single_category_rejected():
    with pytest.raises(InputError):
        cross_validate([{0: 1.0}, {0: 0.5}], ["same", "same"], k=2)


def test_vectors_and_labels_of_different_lengths_rejected():
    with pytest.raises(InputError, match="^vectors and labels differ in length$"):
        cross_validate([{0: 1.0}] * 4, ["a", "b", "a"], k=2)


def test_cross_validate_ties_go_to_the_first_category():
    # zero weights and bias score every category 0 on every example;
    # the categories are listed last-first and differ in size, so only
    # the first sorted category ("a") gives each fold half its examples
    labels = ["z"] * 3 + ["m"] * 6 + ["a"] * 9
    vectors = [{i % 4: 1.0} for i in range(len(labels))]

    def zero_trainer(X, Y, train, C, max_iterations, tol):
        return (np.zeros((len(Y), X.shape[1])), np.zeros(len(train), dtype=bool),
                [1] * len(Y))

    with mock.patch.object(classify, "_train_one_vs_rest", zero_trainer):
        report = cross_validate(vectors, labels, k=3, seed=0)
    assert report.categories[0] == "a"
    for fold, accuracy in zip(stratified_folds(labels, 3, seed=0),
                              report.fold_accuracies):
        assert accuracy == sum(labels[i] == "a" for i in fold) / len(fold)
    assert report.mean_accuracy == 0.5


def test_fold_partition_properties():
    rng = random.Random(1)
    labels = [f"c{rng.randrange(4)}" for _ in range(123)]
    counts = Counter(labels)
    k = min(counts.values())
    folds = stratified_folds(labels, k, seed=3)
    flat = [i for f in folds for i in f]
    assert sorted(flat) == list(range(len(labels)))  # disjoint cover
    global_share = {lab: c / len(labels) for lab, c in counts.items()}
    for fold in folds:
        fc = Counter(labels[i] for i in fold)
        for lab in counts:
            lo = global_share[lab] * len(fold) - 1
            hi = global_share[lab] * len(fold) + 1
            assert lo <= fc.get(lab, 0) <= hi


def test_fold_category_too_small_rejected():
    labels = ["a"] * 10 + ["b"] * 3
    with pytest.raises(InputError):
        stratified_folds(labels, 5, seed=0)


def test_cross_validate_separable():
    vectors, labels = separable_corpus(n_per_class=20, n_classes=3)
    report = cross_validate(vectors, labels, k=10, seed=0)
    assert report.mean_accuracy == 1.0
    assert len(report.fold_accuracies) == 10
    assert report.support_vector_count > 0


def test_cross_validate_boundary_k():
    # k equal to the per-category count: one example per class per fold
    vectors, labels = separable_corpus(n_per_class=5, n_classes=2)
    report = cross_validate(vectors, labels, k=5, seed=0)
    assert len(report.fold_accuracies) == 5
    with pytest.raises(InputError):
        cross_validate(vectors, labels, k=len(labels), seed=0)


def test_cross_validate_reproducible():
    vectors, labels = separable_corpus(n_per_class=12, n_classes=3, seed=4)
    a = cross_validate(vectors, labels, k=4, seed=11)
    b = cross_validate(vectors, labels, k=4, seed=11)
    assert a == b
    c = cross_validate(vectors, labels, k=4, seed=12)
    assert c.fold_accuracies is not None  # different seed still valid


def test_cross_validate_reports_iterations_and_capped_models():
    vectors, labels = separable_corpus(n_per_class=10, n_classes=3)
    capped = cross_validate(vectors, labels, k=5, seed=0, max_iterations=1)
    assert capped.fold_iterations == ((1, 1, 1),) * 5
    assert (capped.models, capped.models_capped) == (15, 15)
    free = cross_validate(vectors, labels, k=5, seed=0)
    assert free.models == 15
    assert all(1 < it < free.max_iterations
               for fold in free.fold_iterations for it in fold)
    assert free.models_capped == 0


@pytest.mark.parametrize("scale", [100.0, 1e7, 1e10])
def test_rho_follows_the_scale_of_the_rows(scale):
    """rho comes from the training rows' Gram trace, not from n alone, so
    rows far from unit norm still converge to the separating models."""
    labels = ["one", "two"] * 10
    vectors = [{0: scale, 1: scale} if lab == "one" else {2: 1.0}
               for lab in labels]
    report = cross_validate(vectors, labels, k=2)
    assert report.models_capped == 0
    assert report.mean_accuracy == 1.0


def test_scale_invariance_of_predictions():
    vectors, labels = separable_corpus(n_per_class=10, n_classes=2, seed=2)
    scaled_vectors = [{k: 3.0 * w for k, w in v.items()} for v in vectors]
    assert (fitted_labels(vectors, labels, C=1.0)
            == fitted_labels(scaled_vectors, labels, C=1.0 / 9.0))


def test_chance_level_on_shuffled_labels():
    rng = random.Random(8)
    vectors, labels = separable_corpus(n_per_class=40, n_classes=5, seed=6)
    shuffled = list(labels)
    rng.shuffle(shuffled)
    report = cross_validate(vectors, shuffled, k=10, seed=0)
    assert abs(report.mean_accuracy - 0.2) <= 0.05




# -- the oracle: the same QP, solved by scipy ----------------------------------

# the trainer run close to the optimum, so that it can be held to the
# oracle's; on a degenerate model (w = 0 at the optimum) ADMM converges
# slowly, and a few such need thousands of iterations at this tolerance
TIGHT = {"max_iterations": 100_000, "tol": 1e-6}


def hinge_objective(X, y, w, b, C):
    """J(w, b) of one binary model on the (n, d) training rows ``X``."""
    lam = 1.0 / (C * len(y))
    return 0.5 * lam * float(w @ w) + float(
        np.maximum(0.0, 1.0 - y * (X @ w + b)).mean())


def qp_optimum(X, y, C):
    """The weights and bias minimising J, found by SLSQP on the QP
    min (lambda/2) |w|^2 + mean(xi)  s.t.  y (X w + b) + xi >= 1, xi >= 0."""
    n, d = X.shape
    lam = 1.0 / (C * n)
    A = np.hstack([y[:, None] * X, y[:, None], np.eye(n)])

    def objective(v):
        return 0.5 * lam * float(v[:d] @ v[:d]) + float(v[d + 1:].sum()) / n

    def gradient(v):
        return np.concatenate([lam * v[:d], [0.0], np.full(n, 1.0 / n)])

    res = minimize(objective, np.concatenate([np.zeros(d + 1), np.ones(n)]),
                   jac=gradient, method="SLSQP",
                   bounds=Bounds(np.r_[np.full(d + 1, -np.inf), np.zeros(n)]),
                   constraints=[{"type": "ineq", "fun": lambda v: A @ v - 1.0,
                                 "jac": lambda v: A}],
                   options={"ftol": 1e-13, "maxiter": 1000})
    assert res.success, res.message
    return res.x[:d], res.x[d]


def optimal_biases(scores, y):
    """The interval of biases b minimising sum max(0, 1 - y (s + b)) for
    fixed scores s = X w.  The bias is not regularized, so J may leave it
    free over an interval; the loss is convex and piecewise linear in b,
    so the interval's ends are among its breakpoints y - s."""
    breaks = y - scores
    loss = np.maximum(0.0, 1.0 - y * (scores + breaks[:, None])).sum(axis=1)
    best = breaks[loss <= loss.min() + 1e-6]
    return best.min(), best.max()


def assert_matches_qp_optimum(X, Y, W, C, test_rows, predicted):
    """Each model's (d + 1) weights in ``W`` reach the optimal objective
    on the training design rows ``X`` and labels ``Y``, and ``predicted``
    (category indices of ``test_rows``) agrees with the QP optimum on
    every row it predicts whatever optimal bias each model takes."""
    low, high = [], []
    for j, y in enumerate(Y):
        w, b = qp_optimum(X[:, :-1], y, C)
        want = hinge_objective(X[:, :-1], y, w, b, C)
        got = hinge_objective(X[:, :-1], y, W[j, :-1], W[j, -1], C)
        assert got == pytest.approx(want, rel=1e-3, abs=1e-5)
        lo, hi = optimal_biases(X[:, :-1] @ w, y)
        scores = test_rows[:, :-1] @ w
        slack = 1e-3 * (np.abs(test_rows).sum(axis=1) + 1.0)
        low.append(scores + lo - slack)
        high.append(scores + hi + slack)
    low, high = np.array(low), np.array(high)
    for i, pred in enumerate(predicted):
        certain = [j for j in range(len(Y))
                   if low[j, i] > np.delete(high[:, i], j).max()]
        if certain:
            assert pred == certain[0]


@st.composite
def training_sets(draw, min_per_category=1):
    """K = 2..6 categories over up to 6 features.  Rows may be all zero
    or repeat an earlier row under another label (contradictory labels)."""
    K = draw(st.integers(2, 6))
    d = draw(st.integers(1, 6))
    labels = [f"c{i % K}" for i in range(K * min_per_category)]
    labels += draw(st.lists(st.sampled_from([f"c{i}" for i in range(K)]),
                            max_size=20))
    weight = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda w: w != 0.0)
    vectors = []
    for _ in labels:
        if vectors and draw(st.integers(0, 4)) == 0:
            vectors.append(dict(draw(st.sampled_from(vectors))))
        else:
            vectors.append(draw(st.dictionaries(st.integers(0, d - 1), weight,
                                                max_size=d)))
    C = draw(st.sampled_from([0.1, 1.0, 10.0]))
    return vectors, labels, C


@settings(max_examples=60, deadline=None)
@given(training_sets())
@example(([{0: 1.0}, {0: 1.0}, {}, {1: 0.5}, {}, {0: -1.0, 1: 1.0}],
          ["c0", "c1", "c2", "c0", "c1", "c2"], 1.0))
def test_training_reaches_the_qp_optimum(case):
    vectors, labels, C = case
    _, X, W, _, iterations = fit_all(vectors, labels, C=C, **TIGHT)
    assert max(iterations) < TIGHT["max_iterations"]
    _, Y = _label_matrix(labels)
    assert_matches_qp_optimum(X, Y, W, C, X, np.argmax(X @ W.T, axis=1))


def recorded_folds(vectors, labels, k, seed, C, **options):
    """cross_validate's report, and the training rows and weights of each
    fold's training call."""
    trainer = classify._train_one_vs_rest
    calls = []

    def recording_trainer(X, Y, train, *args):
        result = trainer(X, Y, train, *args)
        calls.append((train, result[0]))
        return result

    with mock.patch.object(classify, "_train_one_vs_rest", recording_trainer):
        report = cross_validate(vectors, labels, k=k, C=C, seed=seed, **options)
    return report, calls


def assert_folds_match_qp_optimum(vectors, labels, k, seed, C=1.0):
    """Each fold's models against the QP optimum on its training rows, and
    its accuracy against their predictions; returns each fold's weights."""
    report, calls = recorded_folds(vectors, labels, k, seed, C, **TIGHT)
    categories, Y = _label_matrix(labels)
    assert list(report.categories) == categories
    X = _design_matrix(vectors)
    folds = stratified_folds(labels, k, seed)
    assert len(calls) == k
    for fold, (train, W), accuracy in zip(folds, calls, report.fold_accuracies):
        assert sorted([*fold, *train]) == list(range(len(labels)))
        unseen = ~X[train].any(axis=0)
        assert not W[:, unseen].any()  # exactly 0, not merely small
        # ties go to the first category
        best = np.argmax(X[fold] @ W.T, axis=1)
        correct = sum(categories[j] == labels[i] for i, j in zip(fold, best))
        assert correct / len(fold) == accuracy
        assert_matches_qp_optimum(X[train], Y[:, train], W, C, X[fold], best)
    return [W for _, W in calls]


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda k: st.tuples(st.just(k), training_sets(min_per_category=k),
                        st.integers(0, 3))))
def test_cross_validate_reaches_the_qp_optimum_in_each_fold(case):
    k, (vectors, labels, C), seed = case
    assert_folds_match_qp_optimum(vectors, labels, k, seed, C)


def test_folds_of_unequal_size():
    # 7 examples per category in 3 folds: fold sizes 9, 6 and 6, so the
    # models train on 12 or 15 examples, with their own lambda and rho
    vectors, labels = separable_corpus(n_per_class=7, n_classes=3, seed=5)
    labels[0], labels[7] = labels[7], labels[0]
    folds = stratified_folds(labels, 3, seed=2)
    assert sorted(len(f) for f in folds) == [6, 6, 9]
    assert_folds_match_qp_optimum(vectors, labels, 3, 2)


def test_feature_only_in_one_folds_test_rows_keeps_weight_zero():
    vectors, labels = separable_corpus(n_per_class=6, n_classes=2, seed=1)
    vectors[4] = {**vectors[4], 99: 0.5}
    folds = stratified_folds(labels, 3, seed=0)
    weights = assert_folds_match_qp_optimum(vectors, labels, 3, 0)
    col = sorted({fid for vec in vectors for fid in vec}).index(99)
    for fold, W in zip(folds, weights):
        if 4 in fold:
            assert (W[:, col] == 0.0).all()
        else:
            assert (W[:, col] != 0.0).any()


def test_support_vectors_do_not_follow_the_tolerance():
    # z puts every example within tau of the margin exactly on it, so the
    # count is the same at the default tolerance and a tenfold tighter one
    vectors, labels = separable_corpus(n_per_class=20, n_classes=4, seed=9)
    labels[0], labels[25] = labels[25], labels[0]
    report = cross_validate(vectors, labels, k=5, seed=1)
    tight = cross_validate(vectors, labels, k=5, seed=1, tol=DEFAULT_TOL / 10)
    assert report.models_capped == tight.models_capped == 0
    assert report.fold_support_vectors == tight.fold_support_vectors


def test_refuses_a_system_whose_cholesky_factorization_fails():
    # two repeated 1e3 columns at C = 1e20: lambda is lost beside rho X'X.
    # Cholesky fails on this box's BLAS; another may leave a rounding-level
    # pivot instead, with the same refusal
    vectors = [{0: 1e3, 1: 1e3}] * 10 + [{2: 1.0}] * 10
    labels = ["one"] * 10 + ["two"] * 10
    with pytest.raises(DataError, match="rho X'X \\+ lambda I is singular$"):
        cross_validate(vectors, labels, k=2, C=1e20)


def test_c_whose_lambda_overflows_trains_every_feature_weight_to_zero():
    # lambda = 1/(C n) is inf: w = 0 is the limit, and each bias the
    # optimal one of a category with a fifth of the examples
    labels = [f"c{i % 5}" for i in range(20)]
    vectors = [{i % 5: 1.0, 5: 0.5} for i in range(20)]
    _, _, W, _, iterations = fit_all(vectors, labels, C=5e-324)
    assert not W[:, :-1].any()
    assert W[:, -1] == pytest.approx(-1.0, abs=1e-3)
    assert max(iterations) < DEFAULT_MAX_ITERATIONS


def spd_factor(p, seed, apart=()):
    """The Cholesky factor of a (p, p) SPD matrix whose rows and columns
    ``apart`` are 0 off the diagonal.  Its diagonal spans two decades, so
    LAPACK's inverse of the factor swaps rows and can leave rounding
    above the diagonal."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p + 5, p))
    A[:, list(apart)] = 0.0
    d = 10.0 ** rng.uniform(-1.0, 1.0, p)
    M = A.T @ A / (p + 5) + 0.5 * np.eye(p)
    return np.linalg.cholesky(d[:, None] * M * d)


@pytest.mark.parametrize("p", [1, _TRI_BLOCK - 1, _TRI_BLOCK,
                               _TRI_BLOCK + 1, 2 * _TRI_BLOCK + 1, 259])
def test_lower_inverse_matches_lapack(p):
    L = spd_factor(p, seed=p)
    got = _lower_inverse(L)
    assert not np.triu(got, 1).any()
    # cond(L) is under 200 here: 100 ulps of the largest entry bound the error
    for want in (np.linalg.inv(L), solve_triangular(L, np.eye(p), lower=True)):
        tol = 100 * np.finfo(float).eps * np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def test_lower_inverse_keeps_a_decoupled_column_apart():
    # an unseen feature's row and column of M are 0 off the diagonal, and
    # so are they in L and its inverse: its weight stays exactly 0
    p = 259
    apart = [0, _TRI_BLOCK, p // 2, p - 2]
    inv = _lower_inverse(spd_factor(p, seed=0, apart=apart))
    for j in apart:
        assert np.count_nonzero(inv[j]) == np.count_nonzero(inv[:, j]) == 1
        assert inv[j, j] != 0.0


def test_refuses_a_non_positive_or_infinite_c():
    vectors, labels = separable_corpus(n_per_class=4, n_classes=2)
    for C in (0.0, -1.0, math.inf):
        with pytest.raises(InputError, match="C must be positive and finite"):
            cross_validate(vectors, labels, k=2, C=C)
