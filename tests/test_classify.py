import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinograph import classify
from sinograph.classify import (
    DEFAULT_MAX_EPOCHS,
    DEFAULT_TOL,
    MARGIN_SLACK,
    _densify,
    _label_matrix,
    _train_one_vs_rest,
    cross_validate,
    stratified_folds,
)
from sinograph.errors import InputError


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


def fit_all(vectors, labels, C=1.0, max_epochs=DEFAULT_MAX_EPOCHS,
            tol=DEFAULT_TOL):
    """The batched trainer on one training set of every example: the
    categories, X, and the (K, d) weights, bias and epochs it returns."""
    categories, Y = _label_matrix(labels, np.ones((1, len(labels)), dtype=bool))
    X = _densify(vectors, sorted({fid for vec in vectors for fid in vec}))
    return (categories, X, *_train_one_vs_rest(X, Y, C, max_epochs, tol))


def fitted_labels(vectors, labels, C=1.0):
    categories, X, W, b, _ = fit_all(vectors, labels, C=C)
    return [top_category(categories, s) for s in X @ W.T + b]


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
    assert float(abs(W).max()) < 1e-3


def test_single_category_rejected():
    with pytest.raises(InputError):
        cross_validate([{0: 1.0}, {0: 0.5}], ["same", "same"], k=2)


def test_cross_validate_ties_go_to_the_first_category():
    # zero weights and bias score every category 0 on every example;
    # the categories are listed last-first and differ in size, so only
    # the first sorted category ("a") gives each fold half its examples
    labels = ["z"] * 3 + ["m"] * 6 + ["a"] * 9
    vectors = [{i % 4: 1.0} for i in range(len(labels))]

    def zero_trainer(X, Y, C, max_epochs, tol):
        return np.zeros((len(Y), X.shape[1])), np.zeros(len(Y)), [1] * len(Y)

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


def test_cross_validate_reports_epochs_and_capped_models():
    vectors, labels = separable_corpus(n_per_class=10, n_classes=3)
    capped = cross_validate(vectors, labels, k=5, seed=0, max_epochs=1)
    assert capped.fold_epochs == ((1, 1, 1),) * 5
    assert (capped.models, capped.models_capped) == (15, 15)
    free = cross_validate(vectors, labels, k=5, seed=0)
    assert free.models == 15
    assert all(1 < e < free.max_epochs for fold in free.fold_epochs for e in fold)
    assert free.models_capped == 0


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


# -- the per-model trainer, kept as the oracle of the batched one ------------

def train_binary(X, y, C, max_epochs, tol):
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


def per_model_train(vectors, labels, C=1.0, max_epochs=DEFAULT_MAX_EPOCHS,
                    tol=DEFAULT_TOL):
    """One-vs-rest models trained one category at a time: the categories,
    feature ids, (K, d) weights, bias and epochs."""
    categories = sorted(set(labels))
    feature_ids = sorted({fid for vec in vectors for fid in vec})
    X = _densify(vectors, feature_ids)
    weights = np.zeros((len(categories), len(feature_ids)))
    bias = np.zeros(len(categories))
    epochs = []
    for k, cat in enumerate(categories):
        y = np.where(np.asarray([lab == cat for lab in labels]), 1.0, -1.0)
        weights[k], bias[k], ep = train_binary(X, y, C, max_epochs, tol)
        epochs.append(ep)
    return categories, feature_ids, weights, bias, epochs


def per_model_cross_validate(vectors, labels, k, seed, C, max_epochs, tol):
    """Fold models, support-vector counts and epochs of the oracle."""
    models, support_vectors, epochs = [], [], []
    for fold in stratified_folds(labels, k, seed):
        test = set(fold)
        idx = [i for i in range(len(labels)) if i not in test]
        tr_vectors = [vectors[i] for i in idx]
        tr_labels = [labels[i] for i in idx]
        model = per_model_train(tr_vectors, tr_labels, C=C,
                                max_epochs=max_epochs, tol=tol)
        categories, feature_ids, weights, bias, model_epochs = model
        X = _densify(tr_vectors, feature_ids)
        active = np.zeros(len(idx), dtype=bool)
        for row, cat in enumerate(categories):
            y = np.where(np.asarray([lab == cat for lab in tr_labels]), 1.0, -1.0)
            active |= y * (X @ weights[row] + bias[row]) <= 1.0 + MARGIN_SLACK
        support_vectors.append(int(active.sum()))
        models.append(model)
        epochs.append(tuple(model_epochs))
    return models, tuple(support_vectors), tuple(epochs)


def max_abs_diff(a, b):
    return float(np.max(np.abs(a - b), initial=0.0))


@st.composite
def training_sets(draw, min_per_category=1):
    """K = 2..6 categories over up to 6 features.  Rows may be all zero
    or repeat an earlier row under another label (contradictory labels);
    a small epoch cap and a loose tolerance let some rows stop at the cap
    while others converge, at different epochs."""
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
    max_epochs = draw(st.sampled_from([1, 3, 20, 300]))
    tol = draw(st.sampled_from([1e-2, 1e-3, DEFAULT_TOL]))
    return vectors, labels, C, max_epochs, tol


@settings(max_examples=150, deadline=None)
@given(training_sets())
@example(([{0: 1.0}, {0: 1.0}, {}, {1: 0.5}, {}, {0: -1.0, 1: 1.0}],
          ["c0", "c1", "c2", "c0", "c1", "c2"], 1.0, 20, 1e-2))
def test_batched_training_equals_per_model(case):
    vectors, labels, C, max_epochs, tol = case
    categories, _, W, b, epochs = fit_all(vectors, labels, C=C,
                                          max_epochs=max_epochs, tol=tol)
    want_categories, _, want_W, want_b, want_epochs = per_model_train(
        vectors, labels, C=C, max_epochs=max_epochs, tol=tol)
    assert (categories, epochs) == (want_categories, want_epochs)
    assert max_abs_diff(W, want_W) <= 1e-9
    assert max_abs_diff(b, want_b) <= 1e-9


def test_rows_freeze_at_their_own_epoch():
    # Three of five rows converge, each at its own epoch, and two stop
    # at the cap.  Every row must match its model trained alone.
    vectors, labels = separable_corpus(n_per_class=8, n_classes=5, seed=3)
    labels[0], labels[9] = labels[9], labels[0]
    _, _, W, b, epochs = fit_all(vectors, labels, max_epochs=500)
    _, _, want_W, want_b, want_epochs = per_model_train(vectors, labels,
                                                        max_epochs=500)
    assert want_epochs == [380, 500, 460, 414, 500]
    assert epochs == want_epochs
    assert max_abs_diff(W, want_W) <= 1e-9
    assert max_abs_diff(b, want_b) <= 1e-9


def stacked_cross_validate(vectors, labels, k, seed, C, max_epochs, tol):
    """cross_validate's report, with the (k*K, d) weights and the bias of
    the one stacked training call it makes."""
    trainer = classify._train_one_vs_rest
    calls = []

    def recording_trainer(*args):
        calls.append(trainer(*args))
        return calls[-1]

    with mock.patch.object(classify, "_train_one_vs_rest", recording_trainer):
        report = cross_validate(vectors, labels, k=k, C=C, seed=seed,
                                max_epochs=max_epochs, tol=tol)
    (weights, bias, _), = calls
    return report, weights, bias


def assert_folds_match_per_model_loop(vectors, labels, k, seed, C=1.0,
                                      max_epochs=DEFAULT_MAX_EPOCHS,
                                      tol=DEFAULT_TOL):
    """Each fold's (K x d) block of the stacked run against the models
    trained one category and one fold at a time; returns the blocks."""
    report, W, b = stacked_cross_validate(vectors, labels, k, seed, C,
                                          max_epochs, tol)
    models, support_vectors, epochs = per_model_cross_validate(
        vectors, labels, k, seed, C, max_epochs, tol)
    assert report.fold_epochs == epochs
    assert report.fold_support_vectors == support_vectors
    feature_ids = sorted({fid for vec in vectors for fid in vec})
    K = len(report.categories)
    # the predictions, scored as cross_validate scores them
    scores = _densify(vectors, feature_ids) @ W.T + b
    folds = stratified_folds(labels, k, seed)
    blocks = []
    for f, (fold, want, accuracy) in enumerate(zip(folds, models,
                                                   report.fold_accuracies)):
        rows = slice(f * K, (f + 1) * K)
        blocks.append((W[rows], b[rows]))
        categories, fold_ids, want_W, want_b, _ = want
        assert list(report.categories) == categories
        seen = [feature_ids.index(fid) for fid in fold_ids]
        unseen = sorted(set(range(len(feature_ids))) - set(seen))
        assert not W[rows][:, unseen].any()  # exactly 0, not merely small
        assert max_abs_diff(W[rows][:, seen], want_W) <= 1e-9
        assert max_abs_diff(b[rows], want_b) <= 1e-9
        best = np.argmax(scores[fold, rows], axis=1)
        got_pred = [report.categories[j] for j in best]
        correct = sum(p == labels[i] for p, i in zip(got_pred, fold))
        assert correct / len(fold) == accuracy
        vocab = set(fold_ids)  # unseen test features score 0
        for i, pred in zip(fold, got_pred):
            row = {fid: w for fid, w in vectors[i].items() if fid in vocab}
            oracle = want_W @ _densify([row], fold_ids)[0] + want_b
            # weights and bias within 1e-9 move a score by at most
            # slack, and a difference of two scores by twice that
            slack = 1e-9 * (sum(abs(w) for w in row.values()) + 1.0)
            near = [cat for cat, s in zip(categories, oracle)
                    if s >= oracle.max() - 2 * slack]
            if len(near) == 1:
                assert pred == top_category(categories, oracle)
            assert pred in near
    return blocks


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda k: st.tuples(st.just(k), training_sets(min_per_category=k),
                        st.integers(0, 3))))
# Two categories with bit-equal batched weights tie exactly; the oracle
# sums the rows in another order and breaks the tie the other way.
@example((2, ([{0: 1.9999999999999998}] * 9,
              ["c0", "c1", "c2", "c0", "c1", "c2", "c0", "c1", "c1"],
              0.1, 1, 1e-2), 0))
def test_cross_validate_equals_per_model_loop(case):
    k, (vectors, labels, C, max_epochs, tol), seed = case
    assert_folds_match_per_model_loop(vectors, labels, k, seed, C,
                                      max_epochs, tol)


def test_stacked_folds_of_unequal_size():
    # 7 examples per category in 3 folds: fold sizes 9, 6 and 6, so the
    # stacked rows train on 12 or 15 examples, with their own lambda,
    # step size and radius
    vectors, labels = separable_corpus(n_per_class=7, n_classes=3, seed=5)
    labels[0], labels[7] = labels[7], labels[0]
    folds = stratified_folds(labels, 3, seed=2)
    assert sorted(len(f) for f in folds) == [6, 6, 9]
    assert_folds_match_per_model_loop(vectors, labels, 3, 2)


def test_feature_only_in_one_folds_test_rows_keeps_weight_zero():
    vectors, labels = separable_corpus(n_per_class=6, n_classes=2, seed=1)
    vectors[4] = {**vectors[4], 99: 0.5}
    folds = stratified_folds(labels, 3, seed=0)
    blocks = assert_folds_match_per_model_loop(vectors, labels, 3, 0)
    col = sorted({fid for vec in vectors for fid in vec}).index(99)
    for fold, (W, _) in zip(folds, blocks):
        if 4 in fold:
            assert (W[:, col] == 0.0).all()
        else:
            assert (W[:, col] != 0.0).any()
