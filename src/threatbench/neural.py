"""Autoencoders for anomaly detection: dense (tabular) and seq2seq LSTM (sessions).

Both train with mini-batch Adam on seeded batch orders, so (seed, data, config)
fully determine the final weights. Analytic gradients are exact; the test suite
holds them to central finite differences on every parameter. Padded session
steps are masked out of the LSTM loss entirely, so finite padding values can
never affect training or scores; both fits reject input holding a NaN or an
infinity anywhere, padding included, since 0 * NaN is NaN.

Each autoencoder has one forward pass: `DenseAutoencoder.activations`, and for
the LSTM one masked step (`_LstmState.step`) in one block forward
(`_lstm_forward`), which training runs with every step's gates kept for the
backward pass and scoring runs per row block with none kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError
from .preprocess import SessionTensor
from .tabular import RngStream, check_finite, nearest_rank


@dataclass
class TrainLog:
    """One training loss per epoch: the row-weighted mean of that epoch's
    mini-batch losses, each taken before its batch's update. It is not the
    full-set loss after the epoch; `dense_loss_and_grads` and `lstm_loss` give
    that on request.
    """

    train_losses: list = field(default_factory=list)


class Adam:
    """Adam updates over a dict of named parameter arrays."""

    def __init__(self, step_size: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.step_size = step_size
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {}
        self.v = {}

    def update(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for key, g in grads.items():
            if key not in self.m:
                self.m[key] = np.zeros_like(g)
                self.v[key] = np.zeros_like(g)
            self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * g * g
            params[key] = params[key] - self.step_size * (self.m[key] / b1c) / (
                np.sqrt(self.v[key] / b2c) + self.eps
            )


def _adam_fit(
    params: dict, batch_loss_and_grads, n: int, epochs: int, step_size: float, batch_size: int, rng: RngStream
) -> TrainLog:
    """Mini-batch Adam over `n` rows in a seeded order per epoch.

    `batch_loss_and_grads(rows)` returns (loss, grads) for a batch of row
    indices, or None for a batch with nothing to learn from: that batch makes
    no update and has no weight in the epoch's logged mean. Raises
    NumericError on a non-finite batch loss or non-finite final weights.
    """
    opt = Adam(step_size)
    log = TrainLog()
    for epoch in range(epochs):
        order = rng.child(f"epoch/{epoch}").permutation(n)
        weighted = 0.0
        rows = 0
        for start in range(0, n, batch_size):
            sel = order[start : start + batch_size]
            step = batch_loss_and_grads(sel)
            if step is None:
                continue
            loss, grads = step
            if not math.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch + 1}")
            weighted += loss * len(sel)
            rows += len(sel)
            opt.update(params, grads)
        log.train_losses.append(weighted / rows)
    if not all(np.isfinite(v).all() for v in params.values()):
        raise NumericError(f"non-finite weights after epoch {epochs}")
    return log


# -- thresholding ----------------------------------------------------------------


@dataclass(frozen=True)
class AnomalyThreshold:
    """Nearest-rank percentile of the calibration errors."""

    value: float
    percentile: float
    sample_size: int


def calibrate_threshold(errors, percentile: float) -> AnomalyThreshold:
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise DataError("cannot calibrate a threshold on an empty error sample")
    if not 0.0 < percentile < 100.0:
        raise DataError(f"percentile must be in (0, 100), got {percentile}")
    value = nearest_rank(np.sort(errors), percentile / 100.0)
    return AnomalyThreshold(value=value, percentile=float(percentile), sample_size=int(errors.size))


def detect_anomalies(errors, threshold: AnomalyThreshold) -> np.ndarray:
    """1 iff error strictly exceeds the threshold value."""
    errors = np.asarray(errors, dtype=np.float64)
    return (errors > threshold.value).astype(np.int64)


# -- dense autoencoder --------------------------------------------------------------


@dataclass
class DenseAutoencoder:
    """Symmetric tanh-hidden, linear-output autoencoder with L1 on the weights."""

    layer_sizes: list
    params: dict  # W0, b0, W1, b1, ...
    l1: float = 0.0

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def param_shapes(self) -> dict:
        """The shape of each array of `params`, by name, in the order
        `init_dense_autoencoder` draws them."""
        sizes = self.layer_sizes
        return {name: shape for l in range(len(sizes) - 1)
                for name, shape in ((f"W{l}", (sizes[l], sizes[l + 1])), (f"b{l}", (sizes[l + 1],)))}

    def activations(self, X: np.ndarray) -> list:
        """The input and every layer's output; the last is the reconstruction."""
        out = [X]
        for l in range(self.n_layers):
            z = out[-1] @ self.params[f"W{l}"] + self.params[f"b{l}"]
            out.append(z if l == self.n_layers - 1 else np.tanh(z))
        return out

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        a = np.asarray(X, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.input_dim:
            raise DataError(f"input width does not match autoencoder width {self.input_dim}")
        return self.activations(a)[-1]


def init_dense_autoencoder(layer_sizes, l1: float, rng: RngStream) -> DenseAutoencoder:
    sizes = list(int(s) for s in layer_sizes)
    if len(sizes) < 3 or sizes != sizes[::-1]:
        raise DataError(f"layer sizes must be a symmetric encoder/decoder stack, got {sizes}")
    ri = rng.child("init")
    model = DenseAutoencoder(layer_sizes=sizes, params={}, l1=l1)
    for name, shape in model.param_shapes().items():  # weights N(0, 2 / (fan_in + fan_out)), biases 0
        model.params[name] = ri.normal(0.0, math.sqrt(2.0 / sum(shape)), size=shape) if len(shape) == 2 else np.zeros(shape)
    return model


def dense_loss_and_grads(model: DenseAutoencoder, X: np.ndarray):
    """Mean squared reconstruction error + l1 * sum|W|, with exact gradients."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    L = model.n_layers
    *activations, recon = model.activations(X)
    mse = float(np.mean((recon - X) ** 2))
    l1_term = sum(float(np.abs(model.params[f"W{l}"]).sum()) for l in range(L))
    loss = mse + model.l1 * l1_term

    grads = {}
    delta = 2.0 * (recon - X) / (n * d)
    for l in range(L - 1, -1, -1):
        a_prev = activations[l]
        grads[f"W{l}"] = a_prev.T @ delta + model.l1 * np.sign(model.params[f"W{l}"])
        grads[f"b{l}"] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.params[f"W{l}"].T) * (1.0 - a_prev**2)
    return loss, grads


def fit_dense_autoencoder(
    X_clean,
    layer_sizes,
    l1: float = 0.0,
    epochs: int = 50,
    step_size: float = 0.01,
    rng: RngStream | None = None,
    batch_size: int = 64,
):
    """Train on clean rows only (the caller guarantees label-0 input).

    Batch order per epoch comes from the rng, so training is reproducible.
    Returns (model, TrainLog); see `_adam_fit` for the log and the checks.
    """
    rng = rng or RngStream(0, "dense-ae")
    X = np.asarray(X_clean, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("training input must be a non-empty 2-D matrix")
    check_finite(X)
    model = init_dense_autoencoder(layer_sizes, l1, rng)
    if model.input_dim != X.shape[1]:
        raise DataError(f"layer sizes start at {model.input_dim}, data has {X.shape[1]} features")
    log = _adam_fit(
        model.params, lambda rows: dense_loss_and_grads(model, X[rows]), X.shape[0], epochs, step_size, batch_size, rng
    )
    return model, log


def reconstruction_errors(model: DenseAutoencoder, X) -> np.ndarray:
    """Per-row mean over features of squared reconstruction difference."""
    X = check_finite(np.asarray(X, dtype=np.float64))
    return np.mean((model.reconstruct(X) - X) ** 2, axis=1)


# -- LSTM autoencoder ---------------------------------------------------------------


@dataclass
class LstmAutoencoder:
    """Seq2seq LSTM: encoder -> latent projection -> latent-fed decoder -> output.

    Gate layout in the fused weight matrices is [input, forget, candidate,
    output]. The decoder sees the latent vector as its input at every step.
    """

    input_dim: int
    hidden: int
    latent: int
    params: dict  # as `param_shapes` names them

    def param_shapes(self) -> dict:
        """The shape of each array of `params`, by name, in the order
        `init_lstm_autoencoder` draws them."""
        d, H, z = self.input_dim, self.hidden, self.latent
        return {
            "enc_Wx": (d, 4 * H), "enc_Wh": (H, 4 * H), "enc_b": (4 * H,),
            "lat_W": (H, z), "lat_b": (z,),
            "dec_Wx": (z, 4 * H), "dec_Wh": (H, 4 * H), "dec_b": (4 * H,),
            "out_W": (H, d), "out_b": (d,),
        }


def init_lstm_autoencoder(input_dim: int, hidden: int, latent: int, rng: RngStream) -> LstmAutoencoder:
    if latent >= hidden:
        raise DataError(f"latent size {latent} must be smaller than hidden size {hidden}")
    ri = rng.child("init")
    model = LstmAutoencoder(input_dim=input_dim, hidden=hidden, latent=latent, params={})
    for name, shape in model.param_shapes().items():  # weights N(0, 1 / fan_in), biases 0
        model.params[name] = ri.normal(0.0, math.sqrt(1.0 / shape[0]), size=shape) if len(shape) == 2 else np.zeros(shape)
    return model


def _step_mask(lengths, T: int) -> np.ndarray:
    """(B, steps, 1) float mask, 1 on real steps and 0 on padding, cut after
    the longest session: past it every step is masked."""
    mask = np.arange(T)[None, :] < lengths[:, None]
    return mask[:, : int(mask.any(axis=0).sum()), None].astype(np.float64)


class _LstmState:
    """Buffers of one LSTM over `rows` sessions.

    With `steps` > 0 (training) every step is kept for the backward pass:
    step t reads h[t] and c[t], writes h[t + 1] and c[t + 1], and caches the
    gates i, f, g, o and tanh(c_new), each a contiguous (rows, H) array, in
    cache[t]. With steps=0 (scoring) every array has one slot, which each
    step reads and overwrites in place. Slot k of an array with n slots is k % n.
    """

    def __init__(self, rows: int, hidden: int, steps: int = 0):
        self.h, self.c = np.zeros((2, steps + 1, rows, hidden))
        self.cache = np.empty((max(steps, 1), 5, rows, hidden))  # i, f, g, o, tanh(c_new)
        self.pre = np.empty((rows, 4 * hidden))
        self.c_new = np.empty((rows, hidden))
        self.tmp = np.empty((rows, hidden))

    def step(self, t, xw, m, keep, Wh, b) -> np.ndarray:
        """Masked step t on the input projection xw, written through `out=`;
        returns the new h. Rows with mask 0 carry h and c through unchanged.

        `m` None says every row of the step is real: the masked formulas are
        then computed with m = 1 and keep = 0, skipping their products with
        1.0, each of which is its operand, so the bytes are the same."""
        n = len(self.h)
        h, c, h_out, c_out = self.h[t % n], self.c[t % n], self.h[(t + 1) % n], self.c[(t + 1) % n]
        cache = self.cache[t % len(self.cache)]
        gates, (i, f, g, o, tanh_c) = cache[:4], cache
        pre, c_new, tmp = self.pre, self.c_new, self.tmp
        np.matmul(h, Wh, out=pre)
        np.add(xw, pre, out=pre)
        np.add(pre, b, out=pre)
        pre = pre.reshape(len(pre), 4, -1).swapaxes(0, 1)
        np.multiply(pre, 0.5, out=gates)  # linear.sigmoid on all four gates, then tanh on g
        np.tanh(gates, out=gates)
        np.add(gates, 1.0, out=gates)
        np.multiply(gates, 0.5, out=gates)
        np.tanh(pre[2], out=g)
        np.multiply(f, c, out=c_new)
        np.multiply(i, g, out=tmp)
        np.add(c_new, tmp, out=c_new)
        np.tanh(c_new, out=tanh_c)
        if m is None:  # c = c_new + 0 * c, h = o * tanh(c_new) + 0 * h; c_out, h_out may be c, h
            np.multiply(c, 0.0, out=c_out)
            np.add(c_new, c_out, out=c_out)
            np.multiply(h, 0.0, out=h_out)
            np.multiply(o, tanh_c, out=tmp)
            return np.add(tmp, h_out, out=h_out)
        np.multiply(c_new, m, out=tmp)  # c = m * c_new + (1 - m) * c
        np.multiply(c, keep, out=c_out)
        np.add(tmp, c_out, out=c_out)
        np.multiply(o, tanh_c, out=tmp)  # h = m * o * tanh(c_new) + (1 - m) * h
        np.multiply(tmp, m, out=tmp)
        np.multiply(h, keep, out=h_out)
        return np.add(tmp, h_out, out=h_out)


def _lstm_forward(p: dict, x, mk, enc: _LstmState, dec: _LstmState, out) -> np.ndarray:
    """Forward pass over a block of sessions x (rows, steps, d) with step mask
    mk (rows, steps, 1). Writes (recon - x) * mk into `out` and returns the
    latent z; the states keep what the backward pass reads. A step on which
    every row is real runs unmasked (`_LstmState.step` with m None)."""
    steps = x.shape[1]
    keep = 1.0 - mk
    masks = [None if full else mk[:, t] for t, full in enumerate(mk.all(axis=0)[:, 0])]
    xw = np.empty(enc.pre.shape)
    for t in range(steps):
        np.matmul(x[:, t], p["enc_Wx"], out=xw)
        enc.step(t, xw, masks[t], keep[:, t], p["enc_Wh"], p["enc_b"])
    z = enc.h[-1] @ p["lat_W"] + p["lat_b"]
    zx = z @ p["dec_Wx"]  # the decoder input is z at every step
    for t in range(steps):
        h = dec.step(t, zx, masks[t], keep[:, t], p["dec_Wh"], p["dec_b"])
        r = out[:, t]
        np.matmul(h, p["out_W"], out=r)
        np.add(r, p["out_b"], out=r)
        np.subtract(r, x[:, t], out=r)
        np.multiply(r, mk[:, t], out=r)
    return z


def _lstm_cell_backward(dh, dc, x, s: _LstmState, t, mm, Wh, grads, prefix):
    """Backward through masked step t of state s; returns (dh_prev, dc_prev,
    dpre), where dpre @ Wx.T is the gradient of the step input x."""
    h_prev, c_prev, (i, f, g, o, tanh_c) = s.h[t], s.c[t], s.cache[t]
    dh_new = mm * dh
    dh_prev_pass = (1.0 - mm) * dh
    dc_new = mm * dc + dh_new * o * (1.0 - tanh_c**2)
    dc_prev_pass = (1.0 - mm) * dc

    do = dh_new * tanh_c
    df = dc_new * c_prev
    di = dc_new * g
    dg = dc_new * i

    dpre = np.concatenate([di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g**2), do * o * (1.0 - o)], axis=1)
    grads[f"{prefix}_Wx"] += x.T @ dpre
    grads[f"{prefix}_Wh"] += h_prev.T @ dpre
    grads[f"{prefix}_b"] += dpre.sum(axis=0)

    dh_prev = dpre @ Wh.T + dh_prev_pass
    dc_prev = dc_new * f + dc_prev_pass
    return dh_prev, dc_prev, dpre


_SCAN_CHUNK = 128


def _scan_blocks(lengths) -> list:
    """Row blocks for `_sq_error_blocks`, the one scan behind `lstm_loss` and
    `score_sessions`: full blocks of `_SCAN_CHUNK` rows in length order, then
    the last B % _SCAN_CHUNK rows in place. A block is also the unit of memory:
    scoring reduces each block's errors to per-session sums before the next.

    A BLAS product may compute its last M mod 2^k rows through another kernel
    path than the rows before them. Keeping the tail of the whole set as the
    tail of its own block, at the same positions mod `_SCAN_CHUNK`, gives every
    row the value the whole-set product gives it. A lone last row joins the
    block before it, because a one-row product runs as a matrix-vector product.
    """
    B = len(lengths)
    cut = B - B % _SCAN_CHUNK
    if B - cut == 1 and cut:
        cut -= _SCAN_CHUNK
    head = np.argsort(lengths[:cut], kind="stable")
    blocks = [head[start : start + _SCAN_CHUNK] for start in range(0, cut, _SCAN_CHUNK)]
    if cut < B:
        blocks.append(np.arange(cut, B))
    return blocks


def _sq_error_blocks(model: LstmAutoencoder, data, lengths):
    """Yields (rows, err) per `_scan_blocks` block, err being the rows'
    (recon - data)**2 * mask in a zero-padded (len(rows), T, d) array, with no
    caches kept.

    Rows of the recurrence are independent, so `_lstm_forward` runs once per
    block, each stopping after its longest session. Every real step gets the
    value a whole-batch forward gives it; padded steps are 0. Only one block's
    errors are alive at a time.
    """
    T, d = data.shape[1:]
    for rows in _scan_blocks(lengths):
        mk = _step_mask(lengths[rows], T)
        steps = mk.shape[1]
        err = np.zeros((len(rows), T, d))
        states = _LstmState(len(rows), model.hidden), _LstmState(len(rows), model.hidden)
        e = err[:, :steps]
        _lstm_forward(model.params, data[rows, :steps], mk, *states, e)
        np.square(e, out=e)
        yield rows, err


def _masked_sq_errors(model: LstmAutoencoder, data, lengths) -> np.ndarray:
    """The blocks of `_sq_error_blocks` stacked into one (B, T, d) array."""
    out = np.empty_like(data)
    for rows, err in _sq_error_blocks(model, data, lengths):
        out[rows] = err
    return out


def _session_arrays(data, lengths):
    """`data` as a float64 (B, T, d) array and `lengths` as an int64 vector,
    after checking that `lengths` holds one integer in [0, T] per session."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3:
        raise DataError(f"session tensor must be 3-D, got shape {data.shape}")
    B, T = data.shape[:2]
    lengths = np.asarray(lengths)
    if lengths.shape != (B,) or lengths.dtype.kind not in "iu":
        raise DataError(f"session lengths must be {B} integers, got {lengths.dtype} of shape {lengths.shape}")
    if B and not (lengths.min() >= 0 and lengths.max() <= T):
        raise DataError(f"session lengths must lie in [0, {T}], got [{lengths.min()}, {lengths.max()}]")
    return data, lengths.astype(np.int64, copy=False)


def _real_entries(mask, d: int) -> float:
    """The count of real (step, feature) entries: the loss's denominator."""
    count = float(mask.sum()) * d
    if count == 0:
        raise DataError("no real session steps: all session lengths are zero")
    return count


def lstm_loss(model: LstmAutoencoder, data, lengths) -> float:
    """Masked mean squared error over every real (step, feature) entry."""
    data, lengths = _session_arrays(data, lengths)
    denom = _real_entries(_step_mask(lengths, data.shape[1]), data.shape[2])
    return float(_masked_sq_errors(model, data, lengths).sum() / denom)


def lstm_loss_and_grads(model: LstmAutoencoder, data, lengths):
    """`lstm_loss` with exact gradients. The forward stops at the longest
    session: past it every gradient term is an exact zero."""
    data, lengths = _session_arrays(data, lengths)
    B, T, d = data.shape
    H = model.hidden
    p = model.params
    mk = _step_mask(lengths, T)
    steps = mk.shape[1]
    enc, dec = _LstmState(B, H, steps), _LstmState(B, H, steps)
    diff = np.zeros_like(data)  # zero past `steps`, so the loss sums what the full (B, T, d) array sums
    denom = _real_entries(mk, d)
    z = _lstm_forward(p, data[:, :steps], mk, enc, dec, diff[:, :steps])
    loss = float((diff**2).sum() / denom)

    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dz = np.zeros_like(z)
    dh, dc = np.zeros((2, B, H))
    for t in range(steps - 1, -1, -1):
        dy = 2.0 * diff[:, t, :] / denom
        grads["out_W"] += dec.h[t + 1].T @ dy
        grads["out_b"] += dy.sum(axis=0)
        dh = dh + dy @ p["out_W"].T
        dh, dc, dpre = _lstm_cell_backward(dh, dc, z, dec, t, mk[:, t], p["dec_Wh"], grads, "dec")
        dz += dpre @ p["dec_Wx"].T

    grads["lat_W"] = enc.h[-1].T @ dz
    grads["lat_b"] = dz.sum(axis=0)
    dh = dz @ p["lat_W"].T
    dc = np.zeros((B, H))
    for t in range(steps - 1, -1, -1):
        dh, dc, _ = _lstm_cell_backward(dh, dc, data[:, t], enc, t, mk[:, t], p["enc_Wh"], grads, "enc")
    return loss, grads


def fit_lstm_autoencoder(
    sessions: SessionTensor,
    hidden: int = 32,
    latent: int = 16,
    epochs: int = 20,
    step_size: float = 0.01,
    rng: RngStream | None = None,
    batch_size: int = 64,
):
    """Train the seq2seq autoencoder on (assumed clean) sessions.

    Returns (model, TrainLog); see `_adam_fit` for the log and the checks.
    A mini-batch whose sessions all have length 0 is skipped.
    """
    rng = rng or RngStream(0, "lstm-ae")
    data, lengths = _session_arrays(sessions.data, sessions.lengths)
    if data.shape[0] == 0:
        raise DataError("session tensor must be non-empty")
    has_steps = lengths > 0
    if not has_steps.any():
        raise DataError("all session lengths are zero")
    check_finite(data, "session tensor")
    model = init_lstm_autoencoder(data.shape[2], hidden, latent, rng)

    def batch(rows):
        if has_steps[rows].any():
            return lstm_loss_and_grads(model, data[rows], lengths[rows])
        return None

    log = _adam_fit(model.params, batch, data.shape[0], epochs, step_size, batch_size, rng)
    return model, log


def score_sessions(model: LstmAutoencoder, sessions: SessionTensor) -> np.ndarray:
    """Per-session masked mean squared reconstruction error.

    The scan keeps one block's errors at a time and only each session's sum
    of them, so scoring never holds a second array the size of the tensor.
    The whole tensor must be finite, padding included: the masked recurrence
    multiplies padded steps by 0, and 0 * NaN is NaN.
    """
    data, lengths = _session_arrays(sessions.data, sessions.lengths)
    if data.shape[2] != model.input_dim:
        raise DataError(f"session features do not match model width {model.input_dim}")
    check_finite(data, "session tensor")
    sq = np.empty(len(lengths))
    for rows, err in _sq_error_blocks(model, data, lengths):
        sq[rows] = err.sum(axis=(1, 2))
    denom = np.maximum(lengths, 1) * data.shape[2]
    return sq / denom
