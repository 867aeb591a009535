"""Minimal dense-network engine: forward with tape, exact reverse-mode backward,
Adam updates, soft target updates, and bit-exact checkpoints.

Inputs are one sample `(n,)` or a batch `(B, n)`; every layer is `a @ w.T + b`,
so both run the same code and a 1-D input stays 1-D. Hidden layers are relu,
the output layer identity or tanh. Everything is float64 so finite-difference
gradient checks hold to 1e-5 relative error.

A net's parameters are one flat vector `params`: every weight, then every
bias, in layer order; `weights` and `biases` are reshaped views of it.
backward() returns the parameter gradient, summed over the batch, as a plain
vector in the same layout (`net.views(grad)` splits it per layer), and Adam
moments share it too. Clones and checkpoints are whole-vector operations;
Adam and soft updates walk the vectors in BLOCK-sized pieces, so neither
allocates a parameter-sized temporary. adam_step() consumes its gradient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidStateError

_OUTPUT_ACTIVATIONS = ("identity", "tanh")

# Float64 elements per piece of adam_step and soft_update (64 KiB). The one
# scratch block stays below glibc's 128 KiB mmap threshold, so an update
# reuses heap pages instead of faulting a fresh parameter-sized array in.
BLOCK = 8192


@dataclass
class DenseNet:
    """Fully connected net; weights[l] has shape (n_out_l, n_in_l).

    Construction copies the given arrays into `params`. version increments on
    every parameter mutation so stale tapes can be rejected by backward().
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_activation: str = "identity"
    version: int = 0
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.output_activation not in _OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation; choose from {_OUTPUT_ACTIVATIONS}")
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError(f"need >= 1 layer and one bias per weight: {len(self.weights)} vs {len(self.biases)}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight rows {w.shape[0]} != bias size {b.shape[0]}")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"layer {i}: input size {w.shape[1]} does not chain")
        arrays = list(self.weights) + list(self.biases)
        ends = np.cumsum([a.size for a in arrays]).tolist()
        self._layout = [(slice(end - a.size, end), a.shape) for a, end in zip(arrays, ends)]
        self.params = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        self.weights, self.biases = self.views(self.params)

    def views(self, vector: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(weights, biases) lists as reshaped views of a vector in the params layout."""
        arrays = [vector[sl].reshape(shape) for sl, shape in self._layout]
        return arrays[: len(arrays) // 2], arrays[len(arrays) // 2 :]

    @classmethod
    def zeros(cls, sizes, output_activation: str = "identity") -> "DenseNet":
        """A net with layer sizes `sizes` and every parameter zero."""
        shapes = list(zip(sizes[1:], sizes[:-1]))
        return cls([np.zeros(s) for s in shapes], [np.zeros(n) for n, _ in shapes], output_activation)

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def n_in(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_out(self) -> int:
        return self.weights[-1].shape[0]


@dataclass
class Tape:
    """Activation record from one forward pass, consumed by backward()."""

    net_id: int
    net_version: int
    x: np.ndarray  # (n_in,) or (B, n_in)
    pre: list[np.ndarray]  # pre-activation z per layer
    post: list[np.ndarray]  # post-activation a per layer


def init_dense(
    sizes: tuple[int, ...],
    rng: np.random.Generator,
    *,
    output_activation: str = "identity",
    final_scale: float = 1.0,
) -> DenseNet:
    """Uniform fan-in initialization; final_scale shrinks the output layer
    (used to start policies near zero actions)."""
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        n_in, n_out = sizes[i], sizes[i + 1]
        bound = 1.0 / np.sqrt(n_in)
        w = rng.uniform(-bound, bound, size=(n_out, n_in))
        b = rng.uniform(-bound, bound, size=n_out)
        if i == len(sizes) - 2:
            w *= final_scale
            b *= final_scale
        weights.append(w)
        biases.append(b)
    return DenseNet(weights, biases, output_activation)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    return z


def _act_grad(grad: np.ndarray, z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    """d(loss)/dz from d(loss)/da; an identity layer passes grad through."""
    if kind == "relu":
        return grad * (z > 0.0).astype(np.float64)
    if kind == "tanh":
        return grad * (1.0 - a * a)
    return grad


def forward(net: DenseNet, x: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Affine + activation composition over one sample (n_in,) or a batch
    (B, n_in); returns the output and a tape that suffices for one backward
    pass against the current parameters."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != net.n_in:
        raise ValueError(f"input shape {x.shape} is neither ({net.n_in},) nor (B, {net.n_in})")
    pre, post = [], []
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        a = _act(z, net.output_activation if i == last else "relu")
        pre.append(z)
        post.append(a)
    return a, Tape(net_id=id(net), net_version=net.version, x=x, pre=pre, post=post)


def forward_only(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Forward pass without recording a tape (target nets, evaluation)."""
    a = np.asarray(x, dtype=np.float64)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = _act(a @ w.T + b, net.output_activation if i == last else "relu")
    return a


def backward(
    net: DenseNet, tape: Tape, output_gradient: np.ndarray, *, param_grads: bool = True, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Exact reverse-mode gradients of forward(); returns (parameter gradient
    vector summed over the batch, d_input shaped like the tape's input).

    With param_grads=False the weight and bias products are skipped and the
    first element is None: for callers that need only d_input. With
    input_grad=False layer 0's product with its weights is skipped and the
    second element is None: for callers that need only the parameters."""
    if tape.net_id != id(net) or tape.net_version != net.version:
        raise InvalidStateError("tape is stale: parameters changed since forward()")
    dy = np.asarray(output_gradient, dtype=np.float64)
    if dy.shape != tape.x.shape[:-1] + (net.n_out,):
        raise ValueError(f"output_gradient shape {dy.shape} != {tape.x.shape[:-1] + (net.n_out,)}")
    n_rows = 1 if dy.ndim == 1 else dy.shape[0]
    grads = None
    if param_grads:
        grads = np.empty_like(net.params)
        d_weights, d_biases = net.views(grads)
    last = len(net.weights) - 1
    grad = dy.reshape(n_rows, -1)
    for i in range(last, -1, -1):
        z, a = tape.pre[i].reshape(n_rows, -1), tape.post[i].reshape(n_rows, -1)
        dz = _act_grad(grad, z, a, net.output_activation if i == last else "relu")
        if param_grads:
            a_prev = (tape.x if i == 0 else tape.post[i - 1]).reshape(n_rows, -1)
            np.matmul(dz.T, a_prev, out=d_weights[i])
            dz.sum(axis=0, out=d_biases[i])
        if i == 0 and not input_grad:
            return grads, None
        grad = dz @ net.weights[i]
    return grads, grad.reshape(tape.x.shape)


@dataclass
class AdamState:
    """Bias-corrected Adam state for one DenseNet; m and v are in its params layout."""

    m: np.ndarray
    v: np.ndarray
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0

    @classmethod
    def for_net(cls, net: DenseNet, lr: float, **kw) -> "AdamState":
        return cls(np.zeros_like(net.params), np.zeros_like(net.params), lr, **kw)


def adam_step(net: DenseNet, g: np.ndarray, state: AdamState, *, maximize: bool = False) -> None:
    """One in-place Adam update from gradient vector g in the params layout;
    maximize flips the gradient sign (ascent).

    Consumes g: each BLOCK of it is scratch, and one more block-sized array is
    the only temporary. Per element: v += ((1-b2)*g)*g, m += (1-b1)*g,
    p -= lr*(m/corr1) / (sqrt(v/corr2)+eps)."""
    state.step += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    corr1, corr2 = 1.0 - b1**state.step, 1.0 - b2**state.step
    scratch = np.empty(min(BLOCK, g.size))
    for start in range(0, g.size, BLOCK):
        sl = slice(start, start + BLOCK)
        gb, m, v, p = g[sl], state.m[sl], state.v[sl], net.params[sl]
        s = scratch[: gb.size]
        if maximize:
            np.negative(gb, out=gb)
        np.multiply(gb, 1.0 - b2, out=s)
        s *= gb
        v *= b2
        v += s
        gb *= 1.0 - b1
        m *= b1
        m += gb
        np.divide(v, corr2, out=s)
        np.sqrt(s, out=s)
        s += eps
        np.divide(m, corr1, out=gb)
        gb *= lr
        gb /= s
        p -= gb
    net.version += 1


def soft_update(target: DenseNet, online: DenseNet, tau: float) -> DenseNet:
    """In-place target' = tau*online + (1-tau)*target, one BLOCK at a time
    through one block-sized scratch; returns target."""
    if target.sizes != online.sizes:
        raise ValueError(f"architecture mismatch: {target.sizes} vs {online.sizes}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    scratch = np.empty(min(BLOCK, target.params.size))
    for start in range(0, target.params.size, BLOCK):
        t = target.params[start : start + BLOCK]
        s = scratch[: t.size]
        t *= 1.0 - tau
        np.multiply(online.params[start : start + BLOCK], tau, out=s)
        t += s
    target.version += 1
    return target


def clone(net: DenseNet) -> DenseNet:
    """An independent copy at version 0 (construction copies the parameters)."""
    return replace(net, version=0)


def save_checkpoint(net: DenseNet, path) -> None:
    """Write an architecture header plus the params vector; round-trip is bit-exact."""
    header = json.dumps({"sizes": list(net.sizes), "output_activation": net.output_activation})
    with open(path, "wb") as fh:  # a file object, so savez adds no .npz suffix to path
        np.savez(fh, header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8), params=net.params)


def load_checkpoint(path) -> DenseNet:
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode("utf-8"))
        params = data["params"]
    net = DenseNet.zeros(header["sizes"], header["output_activation"])
    if params.shape != net.params.shape:
        raise ValueError(f"{path}: {params.size} parameters do not fit sizes {header['sizes']}")
    net.params[:] = params
    return net
