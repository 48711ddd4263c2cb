"""Forecast models: layout, initialization, predictions, analytic gradients.

The gradient tests compare the analytic gradient against central finite
differences of the loss, and predictions against a hand-rolled dense-algebra
oracle written with explicit loops. Neither oracle shares code with the
implementation under test.
"""

import numpy as np
import pytest

from fedforecast import model
from fedforecast.errors import (
    ConfigError,
    InsufficientDataError,
    NumericError,
    ShapeError,
)
from fedforecast.model import (
    PARAM_HEADER_BYTES,
    ModelParams,
    ModelSpec,
    init_params,
    loss,
    loss_and_grad,
    param_message_bytes,
    predict_batch,
    to_bytes,
)


def linear_spec(d=1, h=1):
    return ModelSpec(kind="linear", input_dim=d, horizon=h)


def mlp_spec(d=1, m=2, h=1):
    return ModelSpec(kind="mlp", input_dim=d, horizon=h, hidden_dim=m)


def params_from(spec, values):
    return ModelParams(spec=spec, values=np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------- oracles


def predict_oracle(params, x):
    """Dense reference prediction using explicit loops only."""
    spec = params.spec
    v = params.values
    d, h = spec.input_dim, spec.horizon
    if spec.kind == "linear":
        out = []
        for i in range(h):
            acc = v[d * h + i]
            for j in range(d):
                acc += v[i * d + j] * x[j]
            out.append(acc)
        return np.array(out)
    m = spec.hidden_dim
    w1_end = m * d
    b1_end = w1_end + m
    w2_end = b1_end + h * m
    hidden = []
    for i in range(m):
        acc = v[w1_end + i]
        for j in range(d):
            acc += v[i * d + j] * x[j]
        hidden.append(np.tanh(acc))
    out = []
    for i in range(h):
        acc = v[w2_end + i]
        for j in range(m):
            acc += v[b1_end + i * m + j] * hidden[j]
        out.append(acc)
    return np.array(out)


def finite_diff_grad(params, inputs, targets, step=1e-6):
    base = params.values
    grad = np.empty_like(base)
    for i in range(base.size):
        up = base.copy()
        dn = base.copy()
        up[i] += step
        dn[i] -= step
        lu = loss(ModelParams(params.spec, up), inputs, targets)
        ld = loss(ModelParams(params.spec, dn), inputs, targets)
        grad[i] = (lu - ld) / (2.0 * step)
    return grad


def random_case(rng, kind):
    d = int(rng.integers(1, 6))
    h = int(rng.integers(1, 4))
    n = int(rng.integers(1, 8))
    if kind == "linear":
        spec = linear_spec(d, h)
    else:
        spec = mlp_spec(d, int(rng.integers(1, 5)), h)
    values = rng.normal(scale=0.8, size=spec.param_count)
    params = params_from(spec, values)
    inputs = rng.normal(size=(n, d))
    targets = rng.normal(size=(n, h))
    return params, inputs, targets


# ----------------------------------------------------------------- shapes


def test_param_counts():
    assert linear_spec(24, 1).param_count == 25
    assert mlp_spec(24, 16, 1).param_count == 24 * 16 + 16 + 16 + 1 == 417


def test_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(kind="cnn", input_dim=1)
    with pytest.raises(ConfigError):
        ModelSpec(kind="linear", input_dim=0)
    with pytest.raises(ConfigError):
        ModelSpec(kind="mlp", input_dim=3, hidden_dim=0)


def test_params_length_checked():
    with pytest.raises(ShapeError):
        params_from(linear_spec(2, 1), [1.0, 2.0])


def test_params_must_be_finite():
    with pytest.raises(NumericError):
        params_from(linear_spec(1, 1), [np.nan, 0.0])


# ----------------------------------------------------------- initialization


def test_init_same_seed_identical():
    spec = mlp_spec(5, 3, 2)
    a = init_params(spec, 11)
    b = init_params(spec, 11)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, init_params(spec, 12).values)


def test_init_biases_zero_and_weights_bounded():
    spec = mlp_spec(d=7, m=4, h=2)
    p = init_params(spec, 0)
    v = p.values
    w1 = v[: 4 * 7]
    b1 = v[4 * 7 : 4 * 7 + 4]
    w2 = v[4 * 7 + 4 : 4 * 7 + 4 + 2 * 4]
    b2 = v[-2:]
    assert np.all(b1 == 0.0) and np.all(b2 == 0.0)
    s1 = np.sqrt(6.0 / (7 + 4))
    s2 = np.sqrt(6.0 / (4 + 2))
    assert np.all(np.abs(w1) <= s1)
    assert np.all(np.abs(w2) <= s2)
    lin = init_params(linear_spec(d=9, h=3), 0)
    assert np.all(lin.values[-3:] == 0.0)
    assert np.all(np.abs(lin.values[: 9 * 3]) <= np.sqrt(6.0 / (9 + 3)))


# ------------------------------------------------------------- predictions


def test_linear_prediction_hand_value():
    p = params_from(linear_spec(1, 1), [2.0, 0.0])
    assert predict_batch(p, np.array([[3.0]]))[0] == pytest.approx(6.0)


def test_mlp_zero_weights_pass_output_bias():
    p = params_from(mlp_spec(1, 2, 1), [0, 0, 0, 0, 0, 0, 0.5])
    np.testing.assert_allclose(predict_batch(p, np.array([[0.0], [3.0], [-7.0]])), 0.5)


def test_linear_layout_row_major():
    # W = [[1,2],[3,4]], b = [5,6]; x = [1,1] -> [8, 13]
    p = params_from(linear_spec(2, 2), [1, 2, 3, 4, 5, 6])
    np.testing.assert_allclose(predict_batch(p, np.array([[1.0, 1.0]])), [[8.0, 13.0]])


def test_predictions_match_dense_oracle():
    rng = np.random.default_rng(5)
    for kind in ("linear", "mlp"):
        for _ in range(20):
            params, inputs, _ = random_case(rng, kind)
            got = predict_batch(params, inputs)
            for row, x in zip(got, inputs):
                np.testing.assert_allclose(row, predict_oracle(params, x), atol=1e-12)


def test_predict_rejects_wrong_width():
    p = init_params(linear_spec(3, 1), 0)
    with pytest.raises(ShapeError):
        predict_batch(p, np.array([[1.0, 2.0]]))


# ---------------------------------------------------------------- gradients


def test_loss_and_grad_hand_value():
    p = params_from(linear_spec(1, 1), [2.0, 0.0])
    value, grad = loss_and_grad(p, np.array([[1.0]]), np.array([[1.0]]))
    assert value == pytest.approx(1.0)
    np.testing.assert_allclose(grad, [2.0, 2.0])


def test_gradient_zero_at_exact_fit():
    # y = 3x - 1 fit exactly by W=[3], b=[-1]
    p = params_from(linear_spec(1, 1), [3.0, -1.0])
    x = np.linspace(-2, 2, 9).reshape(-1, 1)
    y = 3.0 * x - 1.0
    value, grad = loss_and_grad(p, x, y)
    assert value == pytest.approx(0.0, abs=1e-24)
    assert np.max(np.abs(grad)) <= 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for kind, tol in (("linear", 1e-6), ("mlp", 1e-5)):
        for _ in range(25):
            params, inputs, targets = random_case(rng, kind)
            _, grad = loss_and_grad(params, inputs, targets)
            fd = finite_diff_grad(params, inputs, targets)
            err = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))
            assert err <= tol, f"{kind}: relative gradient error {err}"


def test_loss_is_mean_over_samples_and_horizon():
    p = params_from(linear_spec(1, 2), [0.0, 0.0, 0.0, 0.0])
    inputs = np.zeros((2, 1))
    targets = np.array([[1.0, 2.0], [3.0, 4.0]])
    # residuals -1,-2,-3,-4 -> mean square (1+4+9+16)/4
    assert loss(p, inputs, targets) == pytest.approx(30.0 / 4.0)


def test_empty_batch_rejected():
    p = init_params(linear_spec(1, 1), 0)
    with pytest.raises(InsufficientDataError):
        loss_and_grad(p, np.empty((0, 1)), np.empty((0, 1)))


def test_batch_width_mismatch_rejected():
    p = init_params(linear_spec(2, 1), 0)
    with pytest.raises(ShapeError):
        loss_and_grad(p, np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(ShapeError):
        loss_and_grad(p, np.ones((3, 2)), np.ones((3, 2)))


# ------------------------------------------------------------ serialization


def test_blob_is_header_then_little_endian_values():
    rng = np.random.default_rng(3)
    for code, spec in enumerate((linear_spec(4, 2), mlp_spec(3, 5, 2))):
        p = params_from(spec, rng.normal(size=spec.param_count))
        blob = to_bytes(p)
        assert len(blob) == param_message_bytes(spec)
        assert len(blob) == PARAM_HEADER_BYTES + 8 * spec.param_count
        assert model.PARAM_HEADER.unpack_from(blob) == (
            code, spec.input_dim, spec.hidden_dim, spec.horizon
        )
        assert blob[PARAM_HEADER_BYTES:] == p.values.astype("<f8").tobytes()


def test_message_size_formula():
    assert param_message_bytes(linear_spec(24, 1)) == 25 * 8 + PARAM_HEADER_BYTES
