import numpy as np
import pytest

from conftest import apply_one_hot, apply_scaler, matrix, relative_deviation
from threatbench.errors import DataError
from threatbench.linear import (
    CalibratorSpec,
    LogisticModel,
    fit_logistic,
    fit_platt,
    logistic_gradient,
    logistic_loss,
    predict_logit,
    predict_proba,
    sigmoid,
)
from threatbench.preprocess import fit_one_hot, fit_scaler
from threatbench.synthgen import GeneratorConfig, generate_email_corpus


class TestLogistic:
    def test_zero_model_predicts_half(self):
        model = LogisticModel(weights=np.zeros(4), bias=0.0)
        assert np.allclose(predict_proba(model, np.random.default_rng(0).normal(size=(10, 4))), 0.5)

    def test_gradient_matches_finite_differences(self, np_rng):
        X = np_rng.normal(size=(5, 3))
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        sw = np.where(y == 1, 1.4, 0.8)
        model = LogisticModel(weights=np_rng.normal(size=3) * 0.5, bias=0.2, l2=0.05)
        grad_w, grad_b = logistic_gradient(model, X, y, sw)
        eps = 1e-5
        worst = 0.0
        for j in range(3):
            model.weights[j] += eps
            up = logistic_loss(model, X, y, sw)
            model.weights[j] -= 2 * eps
            down = logistic_loss(model, X, y, sw)
            model.weights[j] += eps
            worst = max(worst, relative_deviation(grad_w[j], (up - down) / (2 * eps)))
        model.bias += eps
        up = logistic_loss(model, X, y, sw)
        model.bias -= 2 * eps
        down = logistic_loss(model, X, y, sw)
        model.bias += eps
        worst = max(worst, relative_deviation(grad_b, (up - down) / (2 * eps)))
        assert worst <= 1e-6

    def test_gradient_oracle_sweep(self, np_rng):
        eps = 1e-5
        for _ in range(50):
            n, d = int(np_rng.integers(3, 12)), int(np_rng.integers(1, 5))
            X = np_rng.normal(size=(n, d))
            y = np_rng.integers(0, 2, size=n).astype(float)
            sw = np_rng.uniform(0.5, 2.0, size=n)
            model = LogisticModel(weights=np_rng.normal(size=d), bias=float(np_rng.normal()), l2=float(np_rng.uniform(0, 0.3)))
            grad_w, _ = logistic_gradient(model, X, y, sw)
            j = int(np_rng.integers(0, d))
            model.weights[j] += eps
            up = logistic_loss(model, X, y, sw)
            model.weights[j] -= 2 * eps
            down = logistic_loss(model, X, y, sw)
            model.weights[j] += eps
            assert relative_deviation(grad_w[j], (up - down) / (2 * eps)) <= 1e-6

    def test_separable_sign(self, np_rng):
        X = np_rng.normal(size=(100, 1))
        y = (X[:, 0] > 0).astype(int)
        model = fit_logistic(X, y, epochs=400, step_size=0.5)
        assert model.weights[0] > 0

    def test_loss_non_increasing_small_step(self, np_rng):
        X = np_rng.normal(size=(60, 3))  # unit-scaled by construction
        y = (X[:, 0] + 0.5 * np_rng.normal(size=60) > 0).astype(float)
        n = len(y)
        cw = {int(c): n / (2.0 * float((y == c).sum())) for c in (0, 1)}
        sw = np.where(y == 1, cw[1], cw[0])
        model = LogisticModel(weights=np.zeros(3), bias=0.0, class_weights=cw, l2=0.0)
        losses = [logistic_loss(model, X, y, sw)]
        for _ in range(60):
            gw, gb = logistic_gradient(model, X, y, sw)
            model.weights -= 0.1 * gw
            model.bias -= 0.1 * gb
            losses.append(logistic_loss(model, X, y, sw))
        assert all(b <= a + 1e-12 for a, b in zip(losses[:-1], losses[1:]))

    def test_single_class_and_nonfinite_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(DataError, match="single class"):
            fit_logistic(X, np.ones(5))
        X2 = np.array([[np.inf, 0.0], [1.0, 2.0]])
        with pytest.raises(DataError, match="non-finite"):
            fit_logistic(X2, np.array([0, 1]))

    def test_margin_examples(self):
        model = LogisticModel(weights=np.array([1.0, 0.0]), bias=0.0)
        margin = predict_logit(model, np.array([2.0, 9.0]))[0]
        assert margin == 2.0
        assert abs(predict_proba(model, np.array([2.0, 9.0]))[0] - 0.8807970779778823) < 1e-12

    def test_margin_zero_and_symmetry(self):
        assert sigmoid(0.0) == 0.5
        for m in (0.3, 1.7, 5.0):
            assert abs(sigmoid(-m) - (1.0 - sigmoid(m))) < 1e-15

    def test_width_mismatch(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0)
        with pytest.raises(DataError, match="width"):
            predict_logit(model, np.zeros(4))

    def test_class_weight_effect_on_phishing_fixture(self):
        ds = generate_email_corpus(GeneratorConfig(n=800, anomaly_rate=0.15, seed=21))
        enc = fit_one_hot(ds, ["attachment_type"])
        ds_e = apply_one_hot(enc, ds)
        scaler = fit_scaler(ds_e, ds_e.names_of_kind("numeric"))
        ds_s = apply_scaler(scaler, ds_e)
        X = matrix(ds_s)
        y = np.asarray(ds_s.column("label"))
        n = len(y)
        base = {0: n / (2.0 * (y == 0).sum()), 1: n / (2.0 * (y == 1).sum())}
        doubled = {0: base[0], 1: 2.0 * base[1]}

        def train_recall(cw):
            m = fit_logistic(X, y, class_weights=cw, epochs=200, step_size=0.5)
            pred = (predict_proba(m, X) >= 0.5).astype(int)
            return ((pred == 1) & (y == 1)).sum() / (y == 1).sum()

        assert train_recall(doubled) >= train_recall(base)


class TestPlatt:
    def test_recovers_synthetic_mapping(self, np_rng):
        A_true, B_true = 2.0, -0.5
        s_train = np_rng.uniform(-3, 3, size=4000)
        p_train = sigmoid(A_true * s_train + B_true)
        y_train = (np_rng.random(4000) < p_train).astype(int)
        cal = fit_platt(s_train, y_train, epochs=5000, step_size=0.5)
        s_test = np_rng.uniform(-3, 3, size=1000)
        mae = np.mean(np.abs(cal.apply(s_test) - sigmoid(A_true * s_test + B_true)))
        assert mae <= 0.02

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="single class"):
            fit_platt(np.array([0.1, 0.2, 0.3]), np.array([1, 1, 1]))

    def test_monotone_when_a_positive(self, np_rng):
        scores = np_rng.normal(size=500)
        labels = (scores + 0.3 * np_rng.normal(size=500) > 0).astype(int)
        cal = fit_platt(scores, labels)
        assert cal.A > 0
        order = np.argsort(scores)
        calibrated = cal.apply(scores)
        assert (np.diff(calibrated[order]) >= 0).all()

    def test_smoothed_targets_keep_parameters_finite(self):
        # perfectly separable scores: raw logloss optimum is at infinity
        scores = np.concatenate([np.full(50, -2.0), np.full(50, 2.0)])
        labels = np.concatenate([np.zeros(50, dtype=int), np.ones(50, dtype=int)])
        cal = fit_platt(scores, labels, epochs=20000, step_size=1.0)
        assert np.isfinite(cal.A) and np.isfinite(cal.B)
        assert abs(cal.apply(np.array([2.0]))[0] - (51.0 / 52.0)) < 0.02

    def test_apply_matches_formula(self):
        cal = CalibratorSpec(A=1.5, B=-0.2)
        s = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(cal.apply(s), sigmoid(1.5 * s - 0.2))
