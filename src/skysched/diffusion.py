"""Denoising-diffusion machinery for action generation.

A schedule of I diffusion rates drives a conditional reverse chain: starting
from isotropic Gaussian noise, a denoiser net predicts the noise to subtract
at each step given (current vector, one-hot step index, state); the final
vector is squashed once by tanh into [-1, 1]. Step indices are 1-based
(arrays store index i at position i-1). The samplers take one state (n,) or
a batch (B, n) and run the same code for both. Training differentiates
through the reverse chain, and chain_backward returns one gradient vector in
the params layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neural import DenseNet, Tape, backward, forward, forward_only


@dataclass(frozen=True)
class DiffusionSchedule:
    """Diffusion rates and derived arrays; entry j holds step i = j + 1.

    beta_bar[0] is 0 by the phi_bar_0 := 1 convention, so the last denoising
    step is deterministic. The reverse step's constants are tabled per step:
    mean (pi_i - eps_coeff_i*eps_hat)/sqrt_phi_i, noise sqrt(beta_bar_i).
    """

    steps: int
    beta_min: float
    beta_max: float
    beta: np.ndarray
    phi: np.ndarray
    phi_bar: np.ndarray
    beta_bar: np.ndarray
    sqrt_phi: np.ndarray
    eps_coeff: np.ndarray  # (1 - phi_i) / sqrt(1 - phi_bar_i)
    noise_scale: np.ndarray  # sqrt(beta_bar_i)


def build_schedule(steps: int, beta_min: float = 0.1, beta_max: float = 10.0) -> DiffusionSchedule:
    """beta_i = 1 - exp(-beta_min/I - (2i-1)/(2I^2)*(beta_max-beta_min)), i = 1..I."""
    if steps < 1:
        raise ValueError(f"denoise_steps must be >= 1, got {steps}")
    if not 0.0 < beta_min < beta_max:
        raise ValueError(f"need 0 < beta_min < beta_max, got ({beta_min}, {beta_max})")
    i = np.arange(1, steps + 1, dtype=np.float64)
    beta = 1.0 - np.exp(-beta_min / steps - (2.0 * i - 1.0) / (2.0 * steps**2) * (beta_max - beta_min))
    phi = 1.0 - beta
    phi_bar = np.cumprod(phi)
    phi_bar_prev = np.concatenate(([1.0], phi_bar[:-1]))
    beta_bar = (1.0 - phi_bar_prev) / (1.0 - phi_bar) * beta
    if not (np.all(beta > 0.0) and np.all(beta < 1.0) and np.all(np.diff(beta) > 0.0)):
        raise ValueError("schedule produced rates outside (0,1) or non-increasing")
    return DiffusionSchedule(
        steps=steps,
        beta_min=beta_min,
        beta_max=beta_max,
        beta=beta,
        phi=phi,
        phi_bar=phi_bar,
        beta_bar=beta_bar,
        sqrt_phi=np.sqrt(phi),
        eps_coeff=(1.0 - phi) / np.sqrt(1.0 - phi_bar),
        noise_scale=np.sqrt(beta_bar),
    )


def _reverse_chain(
    denoiser: DenseNet,
    state: np.ndarray,
    schedule: DiffusionSchedule,
    rng: np.random.Generator,
    tapes: list[Tape] | None,
    *,
    evaluation: bool,
) -> np.ndarray:
    """Reverse chain over one state (n,) or a batch (B, n); returns pi_0 and
    appends one denoiser tape per step to tapes unless it is None.

    All noise comes from one draw of shape (..., 1 + noisy steps, dim): per
    sample, pi_I and then each noisy step's noise, outermost first. That is the
    order of running the samples' chains one after another, so a batch
    consumes the rng exactly like B single-state chains.
    """
    steps, dim = schedule.steps, denoiser.n_out
    noisy = 0 if evaluation else int(np.count_nonzero(schedule.beta_bar > 0.0))
    lead = np.shape(state)[:-1]
    draws = rng.standard_normal(lead + (1 + noisy, dim))
    # Denoiser input (pi, one-hot step, state): per step only pi and the hot
    # entry change, so a tape-free chain rewrites one buffer in place.
    x = np.concatenate([np.zeros(lead + (dim + steps,)), state], axis=-1)
    pi = draws[..., 0, :]
    drawn = 0
    for i in range(steps, 0, -1):
        if tapes is not None:
            x = x.copy()  # each tape keeps its own step's input
        x[..., :dim] = pi
        if i < steps:
            x[..., dim + i] = 0.0
        x[..., dim + i - 1] = 1.0
        if tapes is None:
            eps_hat = forward_only(denoiser, x)
        else:
            eps_hat, tape = forward(denoiser, x)
            tapes.append(tape)
        pi = (pi - schedule.eps_coeff[i - 1] * eps_hat) / schedule.sqrt_phi[i - 1]
        if noisy and schedule.beta_bar[i - 1] > 0.0:
            drawn += 1
            pi += schedule.noise_scale[i - 1] * draws[..., drawn, :]
    return pi


def sample_action(
    denoiser: DenseNet,
    state: np.ndarray,
    schedule: DiffusionSchedule,
    rng: np.random.Generator,
    *,
    evaluation: bool = False,
) -> np.ndarray:
    """Run the reverse chain from Gaussian noise; returns tanh(pi_0) in [-1,1],
    one action per state row.

    In evaluation mode only the initial pi_I is drawn and every reverse step
    uses its mean; in training mode each step with beta_bar_i > 0 adds
    sqrt(beta_bar_i) noise, which leaves the final step (beta_bar_1 = 0)
    noise-free.
    """
    pi_0 = _reverse_chain(denoiser, state, schedule, rng, None, evaluation=evaluation)
    return np.tanh(pi_0)


@dataclass
class ChainTape:
    """Record of one differentiable reverse chain (noise draws held constant)."""

    tapes: list[Tape]  # denoiser tapes, outermost step I first
    action: np.ndarray


def sample_action_with_tape(
    denoiser: DenseNet,
    state: np.ndarray,
    schedule: DiffusionSchedule,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ChainTape]:
    """Like training-mode sample_action but records tapes so chain_backward can run."""
    tapes: list[Tape] = []
    pi_0 = _reverse_chain(denoiser, state, schedule, rng, tapes, evaluation=False)
    action = np.tanh(pi_0)
    return action, ChainTape(tapes=tapes, action=action)


def chain_backward(
    denoiser: DenseNet,
    schedule: DiffusionSchedule,
    chain: ChainTape,
    d_action: np.ndarray,
) -> np.ndarray:
    """Backpropagate d_action through tanh and all reverse steps to the
    denoiser parameters (reparameterized; noise draws are constants); returns
    the gradient vector in the denoiser's params layout. For a batched chain
    the gradients are summed over its rows."""
    dim = denoiser.n_out
    grads = np.zeros_like(denoiser.params)
    d_pi = np.asarray(d_action, dtype=np.float64) * (1.0 - chain.action * chain.action)
    # chain.tapes[idx] corresponds to step i = steps - idx; walk back up.
    for idx in range(len(chain.tapes) - 1, -1, -1):
        i = schedule.steps - idx
        sqrt_phi = schedule.sqrt_phi[i - 1]
        d_eps = -(schedule.eps_coeff[i - 1] / sqrt_phi) * d_pi
        step_grads, d_input = backward(denoiser, chain.tapes[idx], d_eps, input_grad=idx > 0)
        grads += step_grads
        if idx > 0:
            d_pi = d_pi / sqrt_phi + d_input[..., :dim]
    return grads
