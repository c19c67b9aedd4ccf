import hashlib
import math

import numpy as np
import pytest

from conftest import finite_difference_check, traced_peak
from threatbench.errors import DataError, NumericError
from threatbench.neural import (
    Adam,
    AnomalyThreshold,
    DenseAutoencoder,
    calibrate_threshold,
    dense_loss_and_grads,
    detect_anomalies,
    fit_dense_autoencoder,
    fit_lstm_autoencoder,
    init_dense_autoencoder,
    init_lstm_autoencoder,
    lstm_loss,
    lstm_loss_and_grads,
    reconstruction_errors,
    score_sessions,
)
from threatbench.neural import _LstmState, _lstm_forward, _masked_sq_errors
from threatbench.preprocess import SessionTensor
from threatbench.tabular import RngStream


def session_tensor(data, lengths, labels=None):
    data = np.asarray(data, dtype=np.float64)
    return SessionTensor(
        data=data,
        lengths=np.asarray(lengths, dtype=np.int64),
        labels=np.zeros(data.shape[0], dtype=np.int64) if labels is None else np.asarray(labels),
        feature_names=[f"f{j}" for j in range(data.shape[2])],
    )


class TestDenseAutoencoder:
    def test_gradients_match_finite_differences(self, np_rng):
        X = np_rng.normal(size=(3, 4))
        for l1 in (0.0, 0.01):
            model = init_dense_autoencoder([4, 2, 1, 2, 4], l1, RngStream(9, "ae"))
            _, grads = dense_loss_and_grads(model, X)
            worst = finite_difference_check(lambda: dense_loss_and_grads(model, X)[0], model.params, grads)
            assert worst <= 1e-4

    def test_repeated_row_memorized(self, np_rng):
        X = np.tile(np_rng.normal(size=(1, 4)), (16, 1))
        model, log = fit_dense_autoencoder(X, [4, 2, 1, 2, 4], epochs=500, step_size=0.01, rng=RngStream(2, "fit"))
        assert reconstruction_errors(model, X).max() <= 1e-4
        assert len(log.train_losses) == 500

    def test_log_is_row_weighted_mean_of_batch_losses(self, np_rng):
        X = np_rng.normal(size=(7, 4))
        model, log = fit_dense_autoencoder(X, [4, 2, 4], l1=0.01, epochs=2, batch_size=3, rng=RngStream(2, "fit"))
        # replay both epochs: same init, same batch orders, same updates
        replay = init_dense_autoencoder([4, 2, 4], 0.01, RngStream(2, "fit"))
        opt = Adam(0.01)
        want = []
        for epoch in range(2):
            order = RngStream(2, "fit").child(f"epoch/{epoch}").permutation(7)
            weighted = 0.0
            for start in range(0, 7, 3):
                loss, grads = dense_loss_and_grads(replay, X[order[start : start + 3]])
                weighted += loss * len(order[start : start + 3])
                opt.update(replay.params, grads)
            want.append(weighted / 7)
        assert log.train_losses == want
        for key in model.params:
            assert np.array_equal(model.params[key], replay.params[key])

    def test_diverging_fit_raises_numeric_error(self, np_rng):
        X = np_rng.normal(size=(8, 4))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="non-finite training loss"):
                fit_dense_autoencoder(X, [4, 2, 4], epochs=3, step_size=1e300, batch_size=4, rng=RngStream(0, "fit"))
            with pytest.raises(NumericError, match="non-finite weights"):
                fit_dense_autoencoder(X, [4, 2, 4], epochs=1, step_size=float("inf"), batch_size=8,
                                      rng=RngStream(0, "fit"))

    def test_determinism(self, np_rng):
        X = np_rng.normal(size=(30, 4))
        a, _ = fit_dense_autoencoder(X, [4, 3, 2, 3, 4], epochs=10, rng=RngStream(5, "fit"))
        b, _ = fit_dense_autoencoder(X, [4, 3, 2, 3, 4], epochs=10, rng=RngStream(5, "fit"))
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])

    def test_asymmetric_layers_rejected(self, np_rng):
        with pytest.raises(DataError, match="symmetric"):
            fit_dense_autoencoder(np_rng.normal(size=(5, 4)), [4, 2, 3, 4], rng=RngStream(0, "x"))

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="non-empty"):
            fit_dense_autoencoder(np.zeros((0, 4)), [4, 2, 4], rng=RngStream(0, "x"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_a_data_error(self, np_rng, bad):
        X = np_rng.normal(size=(20, 4))
        X[7, 2] = bad
        with pytest.raises(DataError, match="non-finite"):
            fit_dense_autoencoder(X, [4, 2, 4], epochs=2, rng=RngStream(0, "x"))

    def test_l1_shrinks_weight_mass(self, np_rng):
        X = np_rng.normal(size=(60, 4))

        def weight_mass(l1):
            model, _ = fit_dense_autoencoder(X, [4, 3, 2, 3, 4], l1=l1, epochs=60, rng=RngStream(7, "fit"))
            return sum(np.abs(model.params[f"W{l}"]).sum() for l in range(model.n_layers))

        assert weight_mass(10.0) < weight_mass(0.0)


class TestReconstructionErrors:
    def test_perfect_and_shifted(self):
        # a single linear layer with identity weights and bias 1 reconstructs x+1
        ident = DenseAutoencoder(layer_sizes=[3, 3], params={"W0": np.eye(3), "b0": np.ones(3)})
        X = np.random.default_rng(0).normal(size=(6, 3))
        assert np.allclose(reconstruction_errors(ident, X), 1.0)
        perfect = DenseAutoencoder(layer_sizes=[3, 3], params={"W0": np.eye(3), "b0": np.zeros(3)})
        assert np.allclose(reconstruction_errors(perfect, X), 0.0)

    def test_oracle_loop(self, np_rng):
        model = init_dense_autoencoder([4, 2, 4], 0.0, RngStream(3, "ae"))
        X = np_rng.normal(size=(9, 4))
        errors = reconstruction_errors(model, X)
        recon = model.reconstruct(X)
        for i in range(9):
            manual = sum((X[i, j] - recon[i, j]) ** 2 for j in range(4)) / 4.0
            assert abs(errors[i] - manual) <= 1e-12
        assert np.array_equal(errors, reconstruction_errors(model, X))

    def test_width_mismatch(self):
        model = init_dense_autoencoder([4, 2, 4], 0.0, RngStream(0, "ae"))
        with pytest.raises(DataError, match="width"):
            reconstruction_errors(model, np.zeros((2, 5)))

    def test_non_finite_row_is_a_data_error(self, np_rng):
        """Unchecked, a NaN row scores NaN, which no threshold ever flags."""
        model = init_dense_autoencoder([4, 2, 4], 0.0, RngStream(0, "ae"))
        X = np_rng.normal(size=(3, 4))
        X[1, 2] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            reconstruction_errors(model, X)


class TestThreshold:
    def test_nearest_rank_examples(self):
        thr = calibrate_threshold(np.arange(1.0, 101.0), 95)
        assert thr.value == 95.0 and thr.sample_size == 100
        assert calibrate_threshold(np.full(7, 3.3), 95).value == 3.3
        assert calibrate_threshold(np.array([2.5]), 95).value == 2.5

    def test_strict_exceedance(self):
        thr = AnomalyThreshold(value=1.0, percentile=95.0, sample_size=10)
        flags = detect_anomalies(np.array([0.5, 1.0, 1.0000001]), thr)
        assert flags.tolist() == [0, 0, 1]
        assert detect_anomalies(np.zeros(5), AnomalyThreshold(0.1, 95.0, 5)).sum() == 0

    def test_calibration_set_flag_count(self, np_rng):
        for _ in range(10):
            n = int(np_rng.integers(5, 200))
            errors = np_rng.permutation(np.arange(n, dtype=float) + np_rng.random())  # distinct
            p = float(np_rng.uniform(1, 99))
            thr = calibrate_threshold(errors, p)
            expected = n - math.ceil(p / 100.0 * n)
            assert int(detect_anomalies(errors, thr).sum()) == expected

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            calibrate_threshold(np.array([]), 95)
        with pytest.raises(DataError, match="percentile"):
            calibrate_threshold(np.array([1.0]), 0.0)


class TestLstmAutoencoder:
    def test_gradients_match_finite_differences(self, np_rng):
        data = np_rng.normal(size=(3, 4, 2))
        lengths = np.array([4, 2, 3])
        for s in range(3):
            data[s, lengths[s]:, :] = 0.0
        model = init_lstm_autoencoder(2, 3, 2, RngStream(11, "lstm"))
        _, grads = lstm_loss_and_grads(model, data, lengths)
        worst = finite_difference_check(lambda: lstm_loss(model, data, lengths), model.params, grads)
        assert worst <= 1e-4

    def test_padded_steps_cannot_affect_loss_or_grads(self, np_rng):
        data = np_rng.normal(size=(3, 5, 2))
        lengths = np.array([5, 2, 3])
        for s in range(3):
            data[s, lengths[s]:, :] = 0.0
        model = init_lstm_autoencoder(2, 4, 2, RngStream(3, "lstm"))
        loss, grads = lstm_loss_and_grads(model, data, lengths)
        corrupted = data.copy()
        corrupted[1, 2:, :] = 1e6
        corrupted[2, 3:, :] = -42.0
        loss2, grads2 = lstm_loss_and_grads(model, corrupted, lengths)
        assert loss2 == loss
        for key in grads:
            assert np.array_equal(grads[key], grads2[key])

    def test_constant_sequences_memorized(self):
        const = np.tile(np.array([0.5, -0.2]), (8, 5, 1))
        tensor = session_tensor(const, [5] * 8)
        model, log = fit_lstm_autoencoder(tensor, hidden=8, latent=4, epochs=150, step_size=0.02, rng=RngStream(3, "l"))
        assert lstm_loss(model, tensor.data, tensor.lengths) <= 1e-3
        assert len(log.train_losses) == 150

    def test_log_is_row_weighted_mean_of_batch_losses(self, np_rng):
        data = np_rng.normal(size=(7, 4, 2))
        tensor = session_tensor(data, np_rng.integers(1, 5, size=7))
        model, log = fit_lstm_autoencoder(tensor, hidden=4, latent=2, epochs=1, batch_size=3, rng=RngStream(2, "l"))
        # replay the one epoch: same init, same batch order, same updates
        replay = init_lstm_autoencoder(2, 4, 2, RngStream(2, "l"))
        opt = Adam(0.01)
        order = RngStream(2, "l").child("epoch/0").permutation(7)
        weighted = 0.0
        for start in range(0, 7, 3):
            sel = order[start : start + 3]
            loss, grads = lstm_loss_and_grads(replay, tensor.data[sel], tensor.lengths[sel])
            weighted += loss * len(sel)
            opt.update(replay.params, grads)
        assert log.train_losses == [weighted / 7]
        for key in model.params:
            assert np.array_equal(model.params[key], replay.params[key])

    def test_all_empty_batch_is_skipped(self, np_rng):
        lengths = [3, 0, 2, 3]
        tensor = session_tensor(np_rng.normal(size=(4, 3, 2)), lengths)
        model, log = fit_lstm_autoencoder(tensor, hidden=4, latent=2, epochs=1, batch_size=1, rng=RngStream(5, "l"))
        # replay: the empty session's batch makes no update and has no weight
        replay = init_lstm_autoencoder(2, 4, 2, RngStream(5, "l"))
        opt = Adam(0.01)
        weighted = 0.0
        for i in RngStream(5, "l").child("epoch/0").permutation(4):
            if lengths[i] == 0:
                continue
            loss, grads = lstm_loss_and_grads(replay, tensor.data[[i]], tensor.lengths[[i]])
            weighted += loss
            opt.update(replay.params, grads)
        assert opt.t == 3
        assert log.train_losses == [weighted / 3]
        for key in model.params:
            assert np.array_equal(model.params[key], replay.params[key])

    def test_diverging_fit_raises_numeric_error(self, np_rng):
        tensor = session_tensor(np_rng.normal(size=(8, 4, 2)), [4] * 8)
        with np.errstate(all="ignore"):
            # the second batch sees weights near 1e300: its loss overflows
            with pytest.raises(NumericError, match="non-finite training loss"):
                fit_lstm_autoencoder(tensor, hidden=4, latent=2, epochs=3, step_size=1e300, batch_size=4,
                                     rng=RngStream(0, "l"))
            # one batch, one epoch: only the final weight check can see the last update
            with pytest.raises(NumericError, match="non-finite weights"):
                fit_lstm_autoencoder(tensor, hidden=4, latent=2, epochs=1, step_size=float("inf"), batch_size=8,
                                     rng=RngStream(0, "l"))

    def test_memorized_session_scores_below_threshold(self):
        rng = np.random.default_rng(8)
        data = np.tile(rng.normal(size=(4, 1, 2)), (1, 6, 1))  # four constant patterns
        tensor = session_tensor(data, [6] * 4)
        model, _ = fit_lstm_autoencoder(tensor, hidden=8, latent=4, epochs=200, step_size=0.02, rng=RngStream(4, "l"))
        errors = score_sessions(model, tensor)
        thr = calibrate_threshold(errors, 95)
        novel = data.copy()
        novel[:, :, :] = 5.0
        assert (errors <= thr.value).all()
        assert score_sessions(model, session_tensor(novel, [6] * 4)).min() > thr.value

    def test_scoring_is_permutation_equivariant(self, np_rng):
        data = np_rng.normal(size=(6, 4, 3))
        lengths = np_rng.integers(1, 5, size=6)
        tensor = session_tensor(data, lengths)
        model = init_lstm_autoencoder(3, 4, 2, RngStream(5, "lstm"))
        base = score_sessions(model, tensor)
        perm = np_rng.permutation(6)
        permuted = session_tensor(data[perm], lengths[perm])
        assert np.allclose(score_sessions(model, permuted), base[perm], atol=0, rtol=0)

    def test_determinism(self, np_rng):
        data = np_rng.normal(size=(10, 5, 2))
        tensor = session_tensor(data, [5] * 10)
        a, _ = fit_lstm_autoencoder(tensor, hidden=6, latent=3, epochs=5, rng=RngStream(6, "l"))
        b, _ = fit_lstm_autoencoder(tensor, hidden=6, latent=3, epochs=5, rng=RngStream(6, "l"))
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])

    def test_latent_must_be_smaller_than_hidden(self):
        tensor = session_tensor(np.zeros((2, 3, 2)), [3, 3])
        with pytest.raises(DataError, match="latent"):
            fit_lstm_autoencoder(tensor, hidden=4, latent=4, epochs=1, rng=RngStream(0, "l"))

    def test_all_zero_lengths_rejected(self):
        tensor = session_tensor(np.zeros((2, 3, 2)), [0, 0])
        with pytest.raises(DataError, match="lengths"):
            fit_lstm_autoencoder(tensor, hidden=4, latent=2, epochs=1, rng=RngStream(0, "l"))
        model = init_lstm_autoencoder(2, 4, 2, RngStream(0, "l"))
        for loss in (lstm_loss, lstm_loss_and_grads):
            with pytest.raises(DataError, match="lengths"):
                loss(model, tensor.data, tensor.lengths)

    @pytest.mark.parametrize("step", ["real", "padded"])
    def test_non_finite_step_is_a_data_error(self, np_rng, step):
        """A NaN in a padded step is rejected too: the masked recurrence
        multiplies it by 0, and 0 * NaN is NaN."""
        data = np_rng.normal(size=(4, 5, 2))
        lengths = [5, 3, 4, 2]
        data[1, 1 if step == "real" else 4, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            fit_lstm_autoencoder(session_tensor(data, lengths), hidden=4, latent=2, epochs=1, rng=RngStream(0, "l"))

    @pytest.mark.parametrize("step", ["real", "padded"])
    def test_non_finite_step_is_rejected_on_scoring(self, np_rng, step):
        """Scoring checks the whole tensor, padding included: unchecked, a NaN
        in a padded step scores its session NaN."""
        model = init_lstm_autoencoder(2, 4, 2, RngStream(0, "l"))
        data = np_rng.normal(size=(3, 5, 2))
        data[1, 1 if step == "real" else 4, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            score_sessions(model, session_tensor(data, [4, 2, 4]))

    def test_width_mismatch_on_scoring(self):
        model = init_lstm_autoencoder(2, 4, 2, RngStream(0, "l"))
        with pytest.raises(DataError, match="width|features"):
            score_sessions(model, session_tensor(np.zeros((2, 3, 5)), [3, 3]))

    # Unchecked, a length past T divides a T-step error sum by more steps
    # than exist, a negative length scores 0.0, and a wrong count fails in
    # numpy broadcasting.
    @pytest.mark.parametrize("lengths", [
        [5, 9, 2, 3],  # longer than T
        [5, -2, 2, 3],  # negative
        [5, 2, 3],  # one length short
        [5, 2, 3, 4, 1],  # one length too many
        [5.0, 2.0, 2.0, 3.0],  # not integers
        [[5, 2, 2, 3]],  # not a vector
    ])
    @pytest.mark.parametrize("call", ["fit", "loss", "loss_and_grads", "score"])
    def test_lengths_must_be_one_integer_in_0_to_T_per_session(self, np_rng, lengths, call):
        data = np_rng.normal(size=(4, 5, 3))
        tensor = SessionTensor(data=data, lengths=np.asarray(lengths), labels=np.zeros(4, dtype=np.int64),
                               feature_names=["a", "b", "c"])
        model = init_lstm_autoencoder(3, 4, 2, RngStream(0, "l"))
        calls = {
            "fit": lambda: fit_lstm_autoencoder(tensor, hidden=4, latent=2, epochs=1, rng=RngStream(0, "l")),
            "loss": lambda: lstm_loss(model, data, tensor.lengths),
            "loss_and_grads": lambda: lstm_loss_and_grads(model, data, tensor.lengths),
            "score": lambda: score_sessions(model, tensor),
        }
        with pytest.raises(DataError, match="session lengths must"):
            calls[call]()


class TestBufferedScan:
    """The cache-free block scan that `lstm_loss` and `score_sessions` run must
    give every entry exactly what one whole-batch forward over all T steps gives."""

    # one block; whole blocks only; a lone last row; tails of 2, 44 and 4 rows
    @pytest.mark.parametrize("n_sessions", [1, 5, 128, 129, 130, 300, 388])
    def test_matches_training_forward(self, np_rng, n_sessions):
        T, d = 6, 3
        data = np_rng.normal(size=(n_sessions, T, d))
        lengths = np_rng.integers(0, T + 1, size=n_sessions)
        lengths[::5] = 0  # zero-length sessions
        model = init_lstm_autoencoder(d, 5, 2, RngStream(n_sessions, "scan"))
        mask = (np.arange(T)[None, :] < lengths[:, None]).astype(np.float64)
        diff = np.empty_like(data)
        states = _LstmState(n_sessions, 5, T), _LstmState(n_sessions, 5, T)
        _lstm_forward(model.params, data, mask[:, :, None], *states, diff)  # whole batch, every step kept
        expected = diff**2
        assert np.array_equal(_masked_sq_errors(model, data, lengths), expected)
        if lengths.sum():
            assert lstm_loss(model, data, lengths) == float(expected.sum() / (float(mask.sum()) * d))
        scores = score_sessions(model, session_tensor(data, lengths))
        assert np.array_equal(scores, expected.sum(axis=(1, 2)) / (np.maximum(lengths, 1) * d))

    def test_scoring_never_holds_an_error_array_the_size_of_the_tensor(self, np_rng):
        B, T, d = 2000, 20, 5
        data = np_rng.normal(size=(B, T, d))
        lengths = np_rng.integers(1, T + 1, size=B)
        tensor = session_tensor(data * (np.arange(T)[None, :, None] < lengths[:, None, None]), lengths)
        model = init_lstm_autoencoder(d, 4, 2, RngStream(3, "scan"))
        assert traced_peak(lambda: score_sessions(model, tensor)) < tensor.data.nbytes

    def test_padding_values_cannot_reach_the_scan(self, np_rng):
        data = np_rng.normal(size=(9, 5, 2))
        lengths = np.array([5, 2, 0, 3, 1, 4, 5, 2, 3])
        model = init_lstm_autoencoder(2, 4, 2, RngStream(1, "scan"))
        clean = data.copy()
        for s, n in enumerate(lengths):
            clean[s, n:] = 0.0
            data[s, n:] = 1e6
        assert np.array_equal(_masked_sq_errors(model, data, lengths), _masked_sq_errors(model, clean, lengths))


class TestPinnedLstmBytes:
    """sha256 of the loss, every gradient and the session scores on one seeded
    batch, taken from the implementation that ran training and scoring as two
    separate recurrences. The batch has zero-length sessions, a longest
    session shorter than T, and 150 rows, so scoring has a 22-row tail block."""

    def test_loss_grads_and_scores_are_pinned(self):
        rng = np.random.default_rng(2024)
        B, T, d = 150, 9, 4
        data = rng.normal(size=(B, T, d))
        lengths = rng.integers(0, T, size=B)
        lengths[::6] = 0
        assert lengths.max() < T
        model = init_lstm_autoencoder(d, 6, 3, RngStream(10, "pinned"))
        loss, grads = lstm_loss_and_grads(model, data, lengths)
        digest = hashlib.sha256(np.float64(loss).tobytes())
        for key in sorted(grads):
            digest.update(grads[key].tobytes())
        assert digest.hexdigest() == "99c0759f5154cd50442bed0eb52d577eeeaf7894fb1cf8603ca26ecf9cfc6888"
        scores = score_sessions(model, session_tensor(data, lengths))
        assert hashlib.sha256(scores.tobytes()).hexdigest() == (
            "f18f4f59c2ffea31ee1d00da37e3143778d1f721bb7908f677508dfc00c29915"
        )
