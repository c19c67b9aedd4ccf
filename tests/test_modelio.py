import json
import warnings

import numpy as np
import pytest

from conftest import UNREADABLE_JSON, unreadable_json
from test_pipeline import small_config
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
from threatbench.modelio import KINDS, load_model, model_json, save_model
from threatbench.neural import (
    AnomalyThreshold,
    fit_dense_autoencoder,
    fit_lstm_autoencoder,
    lstm_loss,
    reconstruction_errors,
    score_sessions,
)
from threatbench.pipeline import DOMAINS, run_domain
from threatbench.preprocess import SessionTensor
from threatbench.synthgen import MAX_ROWS
from threatbench.tabular import RngStream


def assert_resaves_identically(model, path, tmp_path, threshold=None):
    """save -> load -> save gives the same bytes, every node field included."""
    loaded, thr = load_model(path)
    again = tmp_path / "again.json"
    save_model(model_json(loaded, thr), again)
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
    save_model(model_json(model), path)
    loaded, thr = load_model(path)
    assert thr is None
    assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))
    assert_resaves_identically(model, path, tmp_path)


def test_gradient_boosting_bit_exact(tmp_path, xy):
    X, y = xy
    model = fit_gradient_boosting(X, y, BoostConfig(n_rounds=10, subsample=1.0), validation=(X, y), rng=RngStream(2, "gb"))
    path = tmp_path / "gb.json"
    save_model(model_json(model), path)
    loaded, _ = load_model(path)
    assert np.array_equal(loaded.predict_margin(X), model.predict_margin(X))
    assert loaded.best_iteration == model.best_iteration
    assert_resaves_identically(model, path, tmp_path)


def test_isolation_forest_bit_exact_with_threshold(tmp_path, xy):
    X, _ = xy
    model = fit_isolation_forest(X, 20, 64, RngStream(3, "if"))
    thr = AnomalyThreshold(value=0.62, percentile=95.0, sample_size=80)
    path = tmp_path / "if.json"
    save_model(model_json(model, thr), path)
    loaded, thr2 = load_model(path)
    assert thr2 == thr
    assert np.array_equal(iforest_score(loaded, X), iforest_score(model, X))
    assert_resaves_identically(model, path, tmp_path, thr)


def test_logistic_bit_exact(tmp_path, xy):
    X, y = xy
    model = fit_logistic(X, y, epochs=50)
    path = tmp_path / "lr.json"
    save_model(model_json(model), path)
    loaded, _ = load_model(path)
    assert np.array_equal(predict_proba(loaded, X), predict_proba(model, X))
    assert loaded.class_weights == model.class_weights


def test_platt_round_trip(tmp_path):
    cal = CalibratorSpec(A=1.25, B=-0.4)
    path = tmp_path / "cal.json"
    save_model(model_json(cal), path)
    loaded, _ = load_model(path)
    assert loaded.A == cal.A and loaded.B == cal.B


def test_dense_autoencoder_bit_exact(tmp_path, np_rng):
    X = np_rng.normal(size=(20, 4))
    model, _ = fit_dense_autoencoder(X, [4, 2, 4], epochs=5, rng=RngStream(4, "ae"))
    path = tmp_path / "ae.json"
    save_model(model_json(model, AnomalyThreshold(0.1, 95.0, 20)), path)
    loaded, thr = load_model(path)
    assert thr.percentile == 95.0
    assert np.array_equal(reconstruction_errors(loaded, X), reconstruction_errors(model, X))


def test_lstm_autoencoder_bit_exact(tmp_path, np_rng):
    data = np_rng.normal(size=(6, 4, 2))
    tensor = SessionTensor(data=data, lengths=np.full(6, 4), labels=np.zeros(6, dtype=int), feature_names=["a", "b"])
    model, _ = fit_lstm_autoencoder(tensor, hidden=5, latent=2, epochs=3, rng=RngStream(5, "l"))
    path = tmp_path / "lstm.json"
    save_model(model_json(model), path)
    loaded, _ = load_model(path)
    assert lstm_loss(loaded, data, tensor.lengths) == lstm_loss(model, data, tensor.lengths)
    for key in model.params:
        assert np.array_equal(loaded.params[key], model.params[key])


# -- one mutation table over every document kind ---------------------------------


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A model document of each kind, the first that the four `small_config`
    runs save."""
    root = tmp_path_factory.mktemp("runs")
    paths = {}
    for domain in DOMAINS:
        report = run_domain(small_config(domain), out_dir=str(root / domain))
        for artifact in report.artifacts.values():
            if artifact.startswith("models/"):
                path = root / domain / artifact
                paths.setdefault(json.loads(path.read_text())["kind"], path)
    assert set(paths) == set(KINDS)
    return paths


def _tabular(score):
    return lambda model, rng: score(model, rng.normal(size=(16, model.n_features)))


# Each kind's scores of 16 drawn inputs of its width.
SCORES = {
    "random_forest": _tabular(lambda model, X: model.scores(X)),
    "gradient_boosting": _tabular(lambda model, X: model.scores(X)),
    "isolation_forest": _tabular(iforest_score),
    "logistic": lambda model, rng: predict_proba(model, rng.normal(size=(16, len(model.weights)))),
    "platt": lambda model, rng: model.apply(rng.normal(size=16)),
    "dense_autoencoder": lambda model, rng: reconstruction_errors(model, rng.normal(size=(16, model.input_dim))),
    "lstm_autoencoder": lambda model, rng: score_sessions(model, SessionTensor(
        rng.normal(size=(16, 5, model.input_dim)), np.arange(16) % 5 + 1, np.zeros(16, dtype=int), [])),
}


@pytest.mark.parametrize("kind", KINDS)
def test_saved_document_loads_and_scores_bit_identically(documents, kind, tmp_path):
    """A saved document loads without a warning, saves back to its own bytes,
    and the reloaded copy scores the same finite floats."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, threshold = load_model(documents[kind])
        again = tmp_path / "again.json"
        save_model(model_json(model, threshold), again)
        assert again.read_bytes() == documents[kind].read_bytes()
        scores = SCORES[kind](model, np.random.default_rng(7))
        assert np.isfinite(scores).all()
        assert np.array_equal(SCORES[kind](load_model(again)[0], np.random.default_rng(7)), scores)


def _tree(index):
    """Where tree `index` of a document is, from the end when negative."""
    return lambda doc: doc["payload"]["trees"][index]


def _leaf(tree):
    """Where the rightmost leaf of `tree` is."""
    def where(doc):
        node = tree(doc)
        while "feature" in node:
            node = node["right"]
        return node
    return where


_root, _last = _tree(0), _tree(-1)
# The trees in each tree kind's saved document, so a message pins the index of
# the last one.
TREES = {"random_forest": 15, "gradient_boosting": 20, "isolation_forest": 30}


def _nodes(node):
    yield node
    if "feature" in node:
        yield from _nodes(node["left"])
        yield from _nodes(node["right"])


def _put(where, key, value):
    """A mutation that sets `where(doc)[key]`; `value` may be a function of the doc."""
    def mutate(doc):
        where(doc)[key] = value(doc) if callable(value) else value
    return mutate


def _drop(where, key):
    def mutate(doc):
        del where(doc)[key]
    return mutate


def _each_node(mutate_node, tree=_root):
    def mutate(doc):
        for node in _nodes(tree(doc)):
            mutate_node(node)
    return mutate


_payload = lambda doc: doc["payload"]  # noqa: E731
_config = lambda doc: doc["payload"]["config"]  # noqa: E731
_params = lambda doc: doc["payload"]["params"]  # noqa: E731
_threshold = lambda doc: doc["threshold"]  # noqa: E731
_n_features = lambda doc: doc["payload"]["n_features"]  # noqa: E731
_weights = lambda doc: doc["payload"]["weights"]  # noqa: E731
NAN, INF = float("nan"), float("inf")
NOT_FLOATS = {"string nan": "nan", "NaN": NAN, "Infinity": INF, "string": "0.5", "bool": True, "null": None,
              "int 2**53": 2**53, "int -10**20": -10**20, "int 10**400": 10**400}
NOT_INTS = {"string": "13", "float": 13.0, "bool": True, "null": None, "past int64": 2**63}


def _rows():
    """(kind, id, mutation, the DataError message it must raise). A mutation
    edits the document in place, or returns the one to write in its stead."""
    for kind in ("random_forest", "gradient_boosting", "isolation_forest"):
        malformed = f"^malformed {kind} document "
        yield kind, "node without n", _drop(lambda doc: _root(doc)["left"], "n"), malformed + ".*KeyError 'n'"
        yield kind, "node that is not an object", _put(_root, "right", 5), malformed
        for tree, name, feature in ((0, "n_features", _n_features), (2, "past n_features", lambda doc: _n_features(doc) + 5),
                                    (1, "-1", -1), (-1, "n_features", _n_features)):
            yield (kind, f"tree {tree} feature {name}", _put(_tree(tree), "feature", feature),
                   f"^tree {tree % TREES[kind]} has a feature or child index out of range$")
        for name, bad in NOT_INTS.items():
            yield kind, f"node feature {name}", _put(_root, "feature", bad), malformed + ".*node feature must be an int, got"
            yield kind, f"node n {name}", _put(_leaf(_root), "n", bad), malformed + ".*node n must be an int, got"
            yield kind, f"n_features {name}", _put(_payload, "n_features", bad), "^n_features must be an int, got"
        for name, bad in NOT_FLOATS.items():
            yield kind, f"node threshold {name}", _put(_root, "threshold", bad), malformed + ".*node threshold must be a finite"
            yield kind, f"leaf value {name}", _put(_leaf(_root), "value", bad), malformed + ".*node value must be a finite"
            yield kind, f"node mean {name}", _put(_root, "mean", bad), malformed + ".*node mean must be a finite"

    counts = "^tree 0 in .* must hold \\(nodes, 2\\) finite class counts"
    last_counts = counts.replace("tree 0", f"tree {TREES['random_forest'] - 1}")
    yield "random_forest", "tree without counts", _each_node(lambda node: node.pop("counts")), counts
    yield "random_forest", "last tree without counts", _each_node(lambda node: node.pop("counts"), _last), last_counts
    yield "random_forest", "last tree leaf counts zero", _put(_leaf(_last), "counts", [0.0, 0.0]), last_counts
    yield "random_forest", "leaf without counts", _drop(_leaf(_root), "counts"), "^malformed random_forest document "
    yield "random_forest", "one count per node", _each_node(lambda node: node.update(counts=node["counts"][:1])), counts
    for name, bad in {"zero": [0.0, 0.0], "negative": [-1.0, 3.0], "NaN": [NAN, 1.0], "Infinity": [INF, 1.0]}.items():
        yield "random_forest", f"leaf counts {name}", _put(_leaf(_root), "counts", bad), counts
    yield "random_forest", "leaf counts a number", _put(_leaf(_root), "counts", 3.0), "^malformed random_forest document "
    for name, bad in {"strings": ["1", "2"], "bool": [True, 1.0]}.items():
        yield "random_forest", f"leaf counts {name}", _put(_leaf(_root), "counts", bad), "array 'counts' must hold only numbers"
    yield "random_forest", "config max_features", _put(_config, "max_features", "x"), "^config.max_features must be an int or null"
    yield "random_forest", "config n_trees", _put(_config, "n_trees", "15"), "^config.n_trees must be an int, got"

    best = "^best_iteration must be an int in \\[0, 20\\], got"
    for name, bad in {**NOT_INTS, "past the trees": 21, "far past the trees": 99, "-1": -1, "-2": -2, "fraction": 2.5}.items():
        yield "gradient_boosting", f"best_iteration {name}", _put(_payload, "best_iteration", bad), best
    for name, bad in NOT_FLOATS.items():
        yield "gradient_boosting", f"base_score {name}", _put(_payload, "base_score", bad), "^base_score must be a finite number"
        yield ("gradient_boosting", f"learning_rate {name}", _put(_config, "learning_rate", bad),
               "^config.learning_rate must be a finite number")
    yield "gradient_boosting", "config n_rounds", _put(_config, "n_rounds", 20.0), "^config.n_rounds must be an int, got"

    yield "isolation_forest", "payload without psi", _drop(_payload, "psi"), "^malformed isolation_forest document .*KeyError 'psi'"
    for bad in (0, 1, -5, MAX_ROWS + 1):
        yield ("isolation_forest", f"psi {bad}", _put(_payload, "psi", bad),
               f"^psi must be an int in \\[2, {MAX_ROWS}\\], got {bad} in ")
    for tree in (0, -1):
        yield ("isolation_forest", f"tree {tree} node n past psi", _put(_leaf(_tree(tree)), "n", 10**12),
               f"^tree {tree % TREES['isolation_forest']} has a node of more than psi = 128 rows in ")
    for name, bad in NOT_INTS.items():
        yield "isolation_forest", f"psi {name}", _put(_payload, "psi", bad), "^psi must be an int, got"

    vector = "^weights must be a vector of finite numbers"
    yield "logistic", "2-D weights", _put(_payload, "weights", lambda doc: [doc["payload"]["weights"]]), vector
    yield "logistic", "scalar weights", _put(_payload, "weights", 1.0), vector
    for name, bad in {"NaN": NAN, "Infinity": INF}.items():
        yield "logistic", f"weight {name}", _put(_weights, 0, bad), vector
    for name, bad in {"string nan": "nan", "bool": True, "null": None}.items():
        yield ("logistic", f"weight {name}", _put(_weights, 0, bad),
               "^malformed logistic document .*array 'weights' must hold only numbers")
    for name, bad in NOT_FLOATS.items():
        yield "logistic", f"bias {name}", _put(_payload, "bias", bad), "^bias must be a finite number"
        yield "logistic", f"l2 {name}", _put(_payload, "l2", bad), "^l2 must be a finite number"
        yield ("logistic", f"class weight {name}", _put(lambda doc: doc["payload"]["class_weights"], "1", bad),
               "^class weight 1 must be a finite number")

    for name, bad in NOT_FLOATS.items():
        yield "platt", f"A {name}", _put(_payload, "A", bad), "^A must be a finite number"
        yield "platt", f"B {name}", _put(_payload, "B", bad), "^B must be a finite number"
    for name, bad in {"a list": [1, 2], "a string": "x"}.items():
        yield "platt", f"document that is {name}", lambda doc, bad=bad: bad, "is not a threatbench-model document"

    for kind, (matrix, vector) in {"dense_autoencoder": ("W1", "b0"), "lstm_autoencoder": ("enc_Wh", "out_b")}.items():
        yield kind, "wrong shape", _drop(lambda doc, m=matrix: _params(doc)[m], -1), f"^array '{matrix}' in .* has shape "
        yield kind, "missing array", _drop(_params, vector), f"^array '{vector}' is missing from "
        yield kind, "extra array", _put(_params, "extra", lambda doc, v=vector: _params(doc)[v]), \
            "^array 'extra' in .* is not one of the model's$"
        for name, bad in {"NaN": NAN, "Infinity": INF}.items():
            yield (kind, f"array value {name}", _put(lambda doc, m=matrix: _params(doc)[m][0], -1, bad),
                   f"^array '{matrix}' in .* holds a NaN or an infinity$")
        for name, bad in {"string": "1.5", "bool": True}.items():
            yield (kind, f"array value {name}", _put(lambda doc, m=matrix: _params(doc)[m][0], -1, bad),
                   f"^malformed {kind} document .*array '{matrix}' must hold only numbers")
    yield "lstm_autoencoder", "hidden string", _put(_payload, "hidden", "8"), "^hidden must be an int, got"
    yield "dense_autoencoder", "l1 NaN", _put(_payload, "l1", NAN), "^l1 must be a finite number"
    for bad in ([], [8], [8, 8], [8, 4, 6], [8.0, 4, 8.0], ["8", 4, "8"], [8, 0, 8], [True, 4, True]):
        yield ("dense_autoencoder", f"layer_sizes {bad}", _put(_payload, "layer_sizes", bad),
               "^layer_sizes must be a symmetric list of at least 3 ints >= 1")

    for kind in ("isolation_forest", "dense_autoencoder", "lstm_autoencoder"):
        for name, bad in NOT_FLOATS.items():
            yield kind, f"threshold value {name}", _put(_threshold, "value", bad), "^threshold.value must be a finite"
        for name, bad in NOT_INTS.items():
            yield (kind, f"threshold sample_size {name}", _put(_threshold, "sample_size", bad),
                   "^threshold.sample_size must be an int")
        outside = "^threshold.percentile must be in \\(0, 100\\) and threshold.sample_size >= 1"
        for key, bad in (("percentile", 0.0), ("percentile", 100.0), ("percentile", -5.0), ("sample_size", 0)):
            yield kind, f"threshold {key} {bad}", _put(_threshold, key, bad), outside
        yield kind, "threshold without value", _drop(_threshold, "value"), f"^malformed {kind} document .*KeyError 'value'"


MUTATIONS = [pytest.param(kind, mutate, match, id=f"{kind}-{name}") for kind, name, mutate, match in _rows()]


@pytest.mark.parametrize("kind, mutate, match", MUTATIONS)
def test_mutated_document_is_a_data_error(documents, tmp_path, kind, mutate, match):
    """Each mutation of a saved document fails to load with a DataError that
    names what is wrong, and no other exception or warning escapes."""
    doc = json.loads(documents[kind].read_text())
    doc = mutate(doc) or doc
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=match):
            load_model(path)


@pytest.mark.parametrize("best", [0, 20])
def test_best_iteration_at_the_ends_loads(documents, tmp_path, best):
    doc = json.loads(documents["gradient_boosting"].read_text())
    doc["payload"]["best_iteration"] = best
    path = tmp_path / "gb.json"
    path.write_text(json.dumps(doc))
    assert load_model(path)[0].best_iteration == best


def test_unsupported_object_rejected(tmp_path):
    with pytest.raises(DataError, match="serialize"):
        model_json(object())


def test_format_and_version_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(DataError, match="not a threatbench-model"):
        load_model(path)
    model = LogisticModel(weights=np.zeros(2), bias=0.0)
    good = tmp_path / "good.json"
    save_model(model_json(model), good)
    doc = json.loads(good.read_text())
    doc["version"] = 99
    good.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="version"):
        load_model(good)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_model(tmp_path / "absent.json")


@pytest.mark.parametrize("kind", UNREADABLE_JSON)
def test_unreadable_file(tmp_path, kind):
    path = unreadable_json(tmp_path, kind)
    with pytest.raises(DataError, match=f"(cannot read model file|model file .* is not valid JSON).*"):
        load_model(path)
