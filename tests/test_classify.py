import random
from collections import Counter

import pytest

from sinograph.classify import (
    LinearModel,
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
