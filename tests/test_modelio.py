import json

import numpy as np
import pytest

from threatbench.errors import DataError
from threatbench.forest import (
    BoostConfig,
    ForestConfig,
    fit_gradient_boosting,
    fit_isolation_forest,
    fit_random_forest,
    iforest_score,
)
from threatbench.linear import CalibratorSpec, LogisticModel, fit_logistic, predict_proba
from threatbench.modelio import load_model, save_model
from threatbench.neural import (
    AnomalyThreshold,
    fit_dense_autoencoder,
    fit_lstm_autoencoder,
    lstm_loss,
    reconstruction_errors,
)
from threatbench.preprocess import SessionTensor
from threatbench.tabular import RngStream


def assert_resaves_identically(model, path, tmp_path, threshold=None):
    """save -> load -> save gives the same bytes, every node field included."""
    loaded, thr = load_model(path)
    again = tmp_path / "again.json"
    save_model(loaded, again, threshold=thr)
    assert again.read_bytes() == path.read_bytes()
    assert thr == threshold


@pytest.fixture
def xy(np_rng):
    X = np_rng.normal(size=(80, 3))
    y = ((X[:, 0] + X[:, 1]) > 0).astype(int)
    return X, y


def test_random_forest_bit_exact(tmp_path, xy):
    X, y = xy
    model = fit_random_forest(X, y, ForestConfig(n_trees=8), RngStream(1, "rf"))
    path = tmp_path / "rf.json"
    save_model(model, path)
    loaded, thr = load_model(path)
    assert thr is None
    assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))
    assert_resaves_identically(model, path, tmp_path)


def test_gradient_boosting_bit_exact(tmp_path, xy):
    X, y = xy
    model = fit_gradient_boosting(X, y, BoostConfig(n_rounds=10, subsample=1.0), validation=(X, y), rng=RngStream(2, "gb"))
    path = tmp_path / "gb.json"
    save_model(model, path)
    loaded, _ = load_model(path)
    assert np.array_equal(loaded.predict_margin(X), model.predict_margin(X))
    assert loaded.best_iteration == model.best_iteration
    assert_resaves_identically(model, path, tmp_path)


def test_isolation_forest_bit_exact_with_threshold(tmp_path, xy):
    X, _ = xy
    model = fit_isolation_forest(X, 20, 64, RngStream(3, "if"))
    thr = AnomalyThreshold(value=0.62, percentile=95.0, sample_size=80)
    path = tmp_path / "if.json"
    save_model(model, path, threshold=thr)
    loaded, thr2 = load_model(path)
    assert thr2 == thr
    assert np.array_equal(iforest_score(loaded, X), iforest_score(model, X))
    assert_resaves_identically(model, path, tmp_path, thr)


class TestMalformedTreeDocuments:
    """A broken tree document fails to load with DataError, never with a
    KeyError, an IndexError or a silent read of another row's cell."""

    @pytest.fixture
    def saved(self, tmp_path, xy):
        X, _ = xy
        path = tmp_path / "if.json"
        save_model(fit_isolation_forest(X, 3, 64, RngStream(3, "if")), path)
        return path, json.loads(path.read_text())

    def check(self, path, doc, match):
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=match):
            load_model(path)

    def test_node_without_n(self, saved):
        path, doc = saved
        del doc["payload"]["trees"][1]["left"]["n"]
        self.check(path, doc, "malformed isolation_forest")

    def test_payload_without_psi(self, saved):
        path, doc = saved
        del doc["payload"]["psi"]
        self.check(path, doc, "malformed isolation_forest")

    def test_feature_out_of_range(self, saved):
        path, doc = saved
        n_features = doc["payload"]["n_features"]
        for tree, feature in ((0, n_features), (2, n_features + 5), (1, -1)):
            bad = json.loads(json.dumps(doc))
            bad["payload"]["trees"][tree]["feature"] = feature
            self.check(path, bad, "out of range")

    def test_node_that_is_not_an_object(self, saved):
        path, doc = saved
        doc["payload"]["trees"][0]["right"] = 5
        self.check(path, doc, "malformed isolation_forest")

    @pytest.fixture
    def boosted(self, tmp_path, xy):
        X, y = xy
        model = fit_gradient_boosting(X, y, BoostConfig(n_rounds=5, subsample=1.0), validation=(X, y), rng=RngStream(2, "gb"))
        assert len(model.trees) == 5
        path = tmp_path / "gb.json"
        save_model(model, path)
        return path, json.loads(path.read_text())

    # past the last tree (rebuilt node table on every walk); negative (drops
    # trees from the end); and values that are not JSON ints
    @pytest.mark.parametrize("best", [99, 6, -2, -1, 2.5, "3", True, None])
    def test_best_iteration_outside_the_trees(self, boosted, best):
        path, doc = boosted
        doc["payload"]["best_iteration"] = best
        self.check(path, doc, "best_iteration must be an int in \\[0, 5\\], got")

    @pytest.mark.parametrize("best", [0, 5])
    def test_best_iteration_at_the_ends_loads(self, boosted, best):
        path, doc = boosted
        doc["payload"]["best_iteration"] = best
        path.write_text(json.dumps(doc))
        assert load_model(path)[0].best_iteration == best


def test_logistic_bit_exact(tmp_path, xy):
    X, y = xy
    model = fit_logistic(X, y, epochs=50)
    path = tmp_path / "lr.json"
    save_model(model, path)
    loaded, _ = load_model(path)
    assert np.array_equal(predict_proba(loaded, X), predict_proba(model, X))
    assert loaded.class_weights == model.class_weights


def test_platt_round_trip(tmp_path):
    cal = CalibratorSpec(A=1.25, B=-0.4)
    path = tmp_path / "cal.json"
    save_model(cal, path)
    loaded, _ = load_model(path)
    assert loaded.A == cal.A and loaded.B == cal.B


def test_dense_autoencoder_bit_exact(tmp_path, np_rng):
    X = np_rng.normal(size=(20, 4))
    model, _ = fit_dense_autoencoder(X, [4, 2, 4], epochs=5, rng=RngStream(4, "ae"))
    path = tmp_path / "ae.json"
    save_model(model, path, threshold=AnomalyThreshold(0.1, 95.0, 20))
    loaded, thr = load_model(path)
    assert thr.percentile == 95.0
    assert np.array_equal(reconstruction_errors(loaded, X), reconstruction_errors(model, X))


def test_lstm_autoencoder_bit_exact(tmp_path, np_rng):
    data = np_rng.normal(size=(6, 4, 2))
    tensor = SessionTensor(data=data, lengths=np.full(6, 4), labels=np.zeros(6, dtype=int), feature_names=["a", "b"])
    model, _ = fit_lstm_autoencoder(tensor, hidden=5, latent=2, epochs=3, rng=RngStream(5, "l"))
    path = tmp_path / "lstm.json"
    save_model(model, path)
    loaded, _ = load_model(path)
    assert lstm_loss(loaded, data, tensor.lengths) == lstm_loss(model, data, tensor.lengths)
    for key in model.params:
        assert np.array_equal(loaded.params[key], model.params[key])


def test_unsupported_object_rejected(tmp_path):
    with pytest.raises(DataError, match="serialize"):
        save_model(object(), tmp_path / "x.json")


def test_format_and_version_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(DataError, match="not a threatbench-model"):
        load_model(path)
    model = LogisticModel(weights=np.zeros(2), bias=0.0)
    good = tmp_path / "good.json"
    save_model(model, good)
    doc = json.loads(good.read_text())
    doc["version"] = 99
    good.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="version"):
        load_model(good)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_model(tmp_path / "absent.json")
