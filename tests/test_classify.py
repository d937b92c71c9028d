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
    LinearModel,
    _densify,
    cross_validate,
    predict,
    stratified_folds,
    train,
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


def test_separable_training_accuracy():
    vectors, labels = separable_corpus()
    model = train(vectors, labels, C=1.0, seed=0)
    assert all(predict(model, v) == lab for v, lab in zip(vectors, labels))


def test_contradictory_labels_no_crash():
    vectors = [{0: 1.0}, {0: 1.0}, {1: 1.0}, {1: 1.0}]
    labels = ["a", "b", "a", "b"]
    model = train(vectors, labels)
    correct = sum(predict(model, v) == lab for v, lab in zip(vectors, labels))
    assert correct < len(labels)


def test_small_c_shrinks_weights():
    vectors, labels = separable_corpus(n_per_class=10, n_classes=2)
    tiny = train(vectors, labels, C=1e-9)
    assert float(abs(tiny.weights).max()) < 1e-3


def test_single_category_rejected():
    with pytest.raises(InputError):
        train([{0: 1.0}, {0: 0.5}], ["same", "same"])


def test_predict_tie_goes_to_first_category():
    model = LinearModel(categories=["a", "b"], feature_ids=[0],
                        weights=__import__("numpy").zeros((2, 1)),
                        bias=__import__("numpy").zeros(2),
                        C=1.0, seed=0, epochs_run=[1, 1])
    assert predict(model, {0: 1.0}) == "a"
    assert predict(model, {}) == "a"  # zero vector: bias argmax, tie


def test_predict_dimension_mismatch():
    vectors, labels = separable_corpus(n_per_class=5, n_classes=2)
    model = train(vectors, labels)
    with pytest.raises(InputError):
        predict(model, {999: 1.0})


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
    base = train(vectors, labels, C=1.0)
    scaled_vectors = [{k: 3.0 * w for k, w in v.items()} for v in vectors]
    scaled = train(scaled_vectors, labels, C=1.0 / 9.0)
    for v, sv in zip(vectors, scaled_vectors):
        assert predict(base, v) == predict(scaled, sv)


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
    """One-vs-rest models trained one category at a time."""
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
    return LinearModel(categories, feature_ids, weights, bias, C, 0, epochs)


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
        X = _densify(tr_vectors, model.feature_ids)
        active = np.zeros(len(idx), dtype=bool)
        for row, cat in enumerate(model.categories):
            y = np.where(np.asarray([lab == cat for lab in tr_labels]), 1.0, -1.0)
            active |= y * (X @ model.weights[row] + model.bias[row]) \
                <= 1.0 + MARGIN_SLACK
        support_vectors.append(int(active.sum()))
        models.append(model)
        epochs.append(tuple(model.epochs_run))
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
    got = train(vectors, labels, C=C, max_epochs=max_epochs, tol=tol)
    want = per_model_train(vectors, labels, C=C, max_epochs=max_epochs, tol=tol)
    assert got.categories == want.categories
    assert got.feature_ids == want.feature_ids
    assert list(got.epochs_run) == want.epochs_run
    assert max_abs_diff(got.weights, want.weights) <= 1e-9
    assert max_abs_diff(got.bias, want.bias) <= 1e-9


def test_rows_freeze_at_their_own_epoch():
    # Three of five rows converge, each at its own epoch, and two stop
    # at the cap.  Every row must match its model trained alone.
    vectors, labels = separable_corpus(n_per_class=8, n_classes=5, seed=3)
    labels[0], labels[9] = labels[9], labels[0]
    got = train(vectors, labels, max_epochs=500)
    want = per_model_train(vectors, labels, max_epochs=500)
    assert want.epochs_run == [380, 500, 460, 414, 500]
    assert list(got.epochs_run) == want.epochs_run
    assert max_abs_diff(got.weights, want.weights) <= 1e-9
    assert max_abs_diff(got.bias, want.bias) <= 1e-9


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
    batched = []

    def recording_train(*args, **kwargs):
        batched.append(train(*args, **kwargs))
        return batched[-1]

    with mock.patch.object(classify, "train", recording_train):
        report = cross_validate(vectors, labels, k=k, C=C, seed=seed,
                                max_epochs=max_epochs, tol=tol)
    models, support_vectors, epochs = per_model_cross_validate(
        vectors, labels, k, seed, C, max_epochs, tol)
    assert report.fold_epochs == epochs
    assert report.fold_support_vectors == support_vectors
    folds = stratified_folds(labels, k, seed)
    for fold, got, want, accuracy in zip(folds, batched, models,
                                         report.fold_accuracies):
        assert max_abs_diff(got.weights, want.weights) <= 1e-9
        assert max_abs_diff(got.bias, want.bias) <= 1e-9
        vocab = set(want.feature_ids)  # unseen test features score 0
        rows = [{f: w for f, w in vectors[i].items() if f in vocab}
                for i in fold]
        # the batched predictions, scored as cross_validate scores them
        X = _densify(rows, got.feature_ids)
        best = np.argmax(X @ got.weights.T + got.bias, axis=1)
        got_pred = [got.categories[j] for j in best]
        correct = sum(p == labels[i] for p, i in zip(got_pred, fold))
        assert correct / len(fold) == accuracy
        for x, row, pred in zip(X, rows, got_pred):
            scores = want.scores(x)
            # weights and bias within 1e-9 move a score by at most
            # slack, and a difference of two scores by twice that
            slack = 1e-9 * (sum(abs(w) for w in row.values()) + 1.0)
            near = [cat for cat, s in zip(want.categories, scores)
                    if s >= scores.max() - 2 * slack]
            if len(near) == 1:
                assert pred == predict(want, row)
            assert pred in near
