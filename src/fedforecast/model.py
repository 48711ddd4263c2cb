"""Forecast models over flat parameter vectors.

Two model kinds, both mapping an input row of d floats to h horizon steps:

* ``linear``: y = W x + b
* ``mlp``:    y = W2 tanh(W1 x + b1) + b2   (one hidden layer, tanh)

Parameters live in one flat float64 vector so federated averaging, clipping,
and noising are plain vector arithmetic. Layout is fixed and documented:

* linear: W (h x d, row-major), then b (h)
* mlp:    W1 (m x d), b1 (m), W2 (h x m), b2 (h)

The loss is the mean squared error over samples AND horizon steps, so client
sample counts are the only scale carrier in federated weighting. Gradients
are analytic, exact, and match the layout above.

The arithmetic works on stacks of C models (C x P values, C x n x d inputs,
C x n x h targets), so training can step many clients at once; ``loss``,
``loss_and_grad`` and ``predict_batch`` are its one-model views.

Vectors serialize to a little-endian binary blob: a 16-byte header
(kind code, input_dim, hidden_dim, horizon as uint32) followed by the raw
float64 values. The communication meter counts exactly these blob sizes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, InsufficientDataError, NumericError, ShapeError
from .seeds import rng_for

KINDS = ("linear", "mlp")

# struct '<IIII': kind code, input_dim, hidden_dim, horizon
PARAM_HEADER = struct.Struct("<IIII")
PARAM_HEADER_BYTES = PARAM_HEADER.size

# The error text of a parameter vector that is not finite, wherever found.
NON_FINITE_PARAMS = "parameter vector contains non-finite values"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; hidden_dim is ignored for linear models."""

    kind: str
    input_dim: int
    horizon: int = 1
    hidden_dim: int = 0

    def __post_init__(self) -> None:
        # Messages start with the field name, as config reports them.
        if self.kind not in KINDS:
            raise ConfigError(f"kind: must be one of {KINDS}, got {self.kind!r}")
        if self.input_dim < 1:
            raise ConfigError(f"input_dim: must be >= 1, got {self.input_dim}")
        if self.horizon < 1:
            raise ConfigError(f"horizon: must be >= 1, got {self.horizon}")
        if self.kind == "mlp" and self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim: must be >= 1 for mlp, got {self.hidden_dim}")

    @property
    def param_count(self) -> int:
        d, h, m = self.input_dim, self.horizon, self.hidden_dim
        if self.kind == "linear":
            return h * d + h
        return m * d + m + h * m + h


@dataclass(frozen=True, eq=False)
class ModelParams:
    """A spec plus its flat float64 parameter vector. Treated as immutable."""

    spec: ModelSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] != self.spec.param_count:
            raise ShapeError(
                f"parameter vector has length {values.shape}, "
                f"spec requires {self.spec.param_count}"
            )
        if not np.all(np.isfinite(values)):
            raise NumericError(NON_FINITE_PARAMS)
        object.__setattr__(self, "values", values)


def _unflatten(spec: ModelSpec, values: np.ndarray):
    """Views of a C x P stack of flat vectors as C-stacked weight matrices
    and bias vectors (no copy)."""
    d, h, m = spec.input_dim, spec.horizon, spec.hidden_dim
    c = values.shape[0]
    if spec.kind == "linear":
        w = values[:, : h * d].reshape(c, h, d)
        b = values[:, h * d :]
        return w, b
    o = 0
    w1 = values[:, o : o + m * d].reshape(c, m, d)
    o += m * d
    b1 = values[:, o : o + m]
    o += m
    w2 = values[:, o : o + h * m].reshape(c, h, m)
    o += h * m
    b2 = values[:, o:]
    return w1, b1, w2, b2


def _flatten(spec: ModelSpec, *parts: np.ndarray) -> np.ndarray:
    flat = np.concatenate([np.asarray(p, dtype=np.float64).ravel() for p in parts])
    if flat.shape[0] != spec.param_count:
        raise ShapeError(f"flattened length {flat.shape[0]} != spec count {spec.param_count}")
    return flat


def init_params(spec: ModelSpec, seed: int) -> ModelParams:
    """Glorot-uniform weights (s = sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = rng_for(seed, "glorot", spec.kind)
    d, h, m = spec.input_dim, spec.horizon, spec.hidden_dim
    if spec.kind == "linear":
        s = np.sqrt(6.0 / (d + h))
        w = rng.uniform(-s, s, size=(h, d))
        return ModelParams(spec, _flatten(spec, w, np.zeros(h)))
    s1 = np.sqrt(6.0 / (d + m))
    s2 = np.sqrt(6.0 / (m + h))
    w1 = rng.uniform(-s1, s1, size=(m, d))
    w2 = rng.uniform(-s2, s2, size=(h, m))
    return ModelParams(spec, _flatten(spec, w1, np.zeros(m), w2, np.zeros(h)))


def row_norms(rows: np.ndarray) -> np.ndarray:
    """L2 norm of each row of a C x P stack, each bitwise
    ``np.linalg.norm(row)``: the row times itself as a 1 x P @ P x 1 matmul
    reaches the BLAS dot product that ``np.linalg.norm`` takes. Overflow to
    inf is silent, as it is there."""
    with np.errstate(over="ignore"):
        return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _check_input_matrix(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ShapeError(f"input has shape {x.shape}, expected (*, {spec.input_dim})")
    return x


def _forward(weights, x: np.ndarray, r_out=None, a_out=None):
    """Stacked forward pass of the _unflatten views ``weights`` of C x P
    values on C x n x d inputs; returns the C x n x h predictions and the
    mlp hidden activations (None for linear). Slice c is bitwise the
    unstacked computation of model c on x[c]. The output and hidden layer
    go into r_out and a_out when given, else into fresh arrays."""
    if len(weights) == 2:
        w, b = weights
        pred = np.matmul(x, w.transpose(0, 2, 1), out=r_out)
        pred += b[:, None, :]
        return pred, None
    w1, b1, w2, b2 = weights
    a = np.matmul(x, w1.transpose(0, 2, 1), out=a_out)
    a += b1[:, None, :]
    np.tanh(a, out=a)
    pred = np.matmul(a, w2.transpose(0, 2, 1), out=r_out)
    pred += b2[:, None, :]
    return pred, a


def _mse(r: np.ndarray, sq: np.ndarray | None = None) -> np.ndarray:
    """Per-slice mean of r*r (written to sq when given) over a C x n x h
    residual stack, summed and divided as np.mean sums and divides one n x h matrix."""
    return np.add.reduce(np.multiply(r, r, out=sq), axis=(1, 2)) / (r.shape[1] * r.shape[2])


class Workspace:
    """The arrays stack_loss_and_grad writes into, per (C, n) stack shape:
    mlp activations a and dz1, residual r and its square sq, and the C x P
    grad with its _unflatten views parts; plus the _unflatten views of the
    last C-contiguous values passed, which follow their in-place updates.
    A loop passing one workspace allocates once; each call overwrites grad."""

    def __init__(self, spec: ModelSpec):
        self.spec, self._values, self._buffers = spec, None, {}

    def weights(self, values: np.ndarray):
        if values is not self._values:
            self._values, self._weights = values, _unflatten(self.spec, values)
        return self._weights

    def buffers(self, c: int, n: int) -> SimpleNamespace:
        if (c, n) not in self._buffers:
            hidden = (c, n, self.spec.hidden_dim if self.spec.kind == "mlp" else 0)
            out = (c, n, self.spec.horizon)
            grad = np.empty((c, self.spec.param_count))
            self._buffers[c, n] = SimpleNamespace(
                a=np.empty(hidden), dz1=np.empty(hidden), r=np.empty(out), sq=np.empty(out),
                grad=grad, parts=_unflatten(self.spec, grad),
            )
        return self._buffers[c, n]


def predict_batch(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Predictions for an n x d input matrix; returns n x h."""
    x = _check_input_matrix(params.spec, inputs)
    return _forward(_unflatten(params.spec, params.values[None]), x[None])[0][0]


def _check_batch(spec: ModelSpec, inputs: np.ndarray, targets: np.ndarray):
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeError("batch inputs and targets must be 2-D")
    if x.shape[0] == 0:
        raise InsufficientDataError("empty batch")
    if x.shape[1] != spec.input_dim or y.shape[1] != spec.horizon or x.shape[0] != y.shape[0]:
        raise ShapeError(
            f"batch shapes {x.shape}/{y.shape} do not match model "
            f"({spec.input_dim} inputs, {spec.horizon} horizon)"
        )
    return x, y


def stack_loss(
    spec: ModelSpec, values: np.ndarray, inputs: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Per-model mean squared error of a C x P stack of parameter vectors,
    model c on inputs[c] (n x d) against targets[c] (n x h); returns C losses.

    Overflow to inf is deliberate and silent: divergence is detected from
    non-finite values by the training loop, which reports the round.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = _forward(_unflatten(spec, values), inputs)[0]
        r -= targets
        return _mse(r)


def stack_loss_and_grad(
    spec: ModelSpec, values: np.ndarray, inputs: np.ndarray, targets: np.ndarray, workspace=None
) -> tuple[np.ndarray, np.ndarray]:
    """C losses plus the C x P exact analytic gradients, flattened in
    parameter layout, of a stack of models (shapes as in ``stack_loss``).

    Per model, with n samples, horizon h, residual R = pred - Y and
    G = 2R/(n*h):

    * linear: dW = G^T X, db = column sums of G
    * mlp:    dW2 = G^T A, db2 = colsum G, dZ1 = (G W2) * (1 - A^2),
              dW1 = dZ1^T X, db1 = colsum dZ1   (A = tanh(X W1^T + b1))

    Every array is written into ``workspace`` (by default, one made for
    this call), the gradient's parts straight into its parameter layout.
    Inputs are not validated: this is the training kernel's inner step.
    """
    c, n, h = targets.shape
    workspace = Workspace(spec) if workspace is None else workspace
    buffers, weights = workspace.buffers(c, n), workspace.weights(values)
    with np.errstate(over="ignore", invalid="ignore"):
        r, a = _forward(weights, inputs, buffers.r, buffers.a)
        r -= targets
        losses = _mse(r, buffers.sq)
        r *= 2.0 / (n * h)  # G overwrites R
        gt = r.transpose(0, 2, 1)
        if spec.kind == "linear":
            np.matmul(gt, inputs, out=buffers.parts[0])
        else:
            dw1, db1, dw2, _ = buffers.parts
            np.matmul(gt, a, out=dw2)
            dz1 = np.matmul(r, weights[2], out=buffers.dz1)
            # 1 - A^2 overwrites A.
            np.multiply(a, a, out=a)
            np.subtract(1.0, a, out=a)
            dz1 *= a
            np.matmul(dz1.transpose(0, 2, 1), inputs, out=dw1)
            np.add.reduce(dz1, axis=1, out=db1)
        np.add.reduce(r, axis=1, out=buffers.parts[-1])  # db (linear) or db2
        return losses, buffers.grad


def loss(params: ModelParams, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error over samples and horizon steps (may be inf)."""
    x, y = _check_batch(params.spec, inputs, targets)
    return float(stack_loss(params.spec, params.values[None], x[None], y[None])[0])


def loss_and_grad(
    params: ModelParams, inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss plus the exact analytic gradient of one model on an n x d batch:
    the stack-of-one view of ``stack_loss_and_grad``."""
    x, y = _check_batch(params.spec, inputs, targets)
    losses, grads = stack_loss_and_grad(params.spec, params.values[None], x[None], y[None])
    return float(losses[0]), grads[0]


_KIND_CODES = {"linear": 0, "mlp": 1}


def to_bytes(params: ModelParams) -> bytes:
    """Serialize to the wire blob: 16-byte header + little-endian float64s."""
    spec = params.spec
    header = PARAM_HEADER.pack(
        _KIND_CODES[spec.kind], spec.input_dim, spec.hidden_dim, spec.horizon
    )
    return header + params.values.astype("<f8").tobytes()


def param_message_bytes(spec: ModelSpec) -> int:
    """Exact size of one serialized parameter message."""
    return PARAM_HEADER_BYTES + 8 * spec.param_count
