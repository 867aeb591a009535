import math

import numpy as np
import pytest

from skysched.diffusion import (
    build_schedule,
    chain_backward,
    sample_action,
    sample_action_with_tape,
)
from skysched.neural import forward_only, init_dense


def forward_marginal(pi_0, i, schedule, noise):
    """Reference closed-form noising to step i: sqrt(phi_bar_i)*pi_0 + sqrt(1-phi_bar_i)*noise."""
    pb = schedule.phi_bar[i - 1]
    return math.sqrt(pb) * pi_0 + math.sqrt(1.0 - pb) * noise


def posterior_mean(pi_i, eps_hat, i, schedule):
    """Reference reverse-step mean (pi_i - (1-phi_i)/sqrt(1-phi_bar_i)*eps_hat)/sqrt(phi_i),
    written from phi and phi_bar; test_reverse_step_reference_equals_sampler
    checks it against the sampler bit for bit."""
    phi_i, phi_bar_i = schedule.phi[i - 1], schedule.phi_bar[i - 1]
    return (pi_i - (1.0 - phi_i) / math.sqrt(1.0 - phi_bar_i) * eps_hat) / math.sqrt(phi_i)


def eq25_mean(pi_i, pi_0, i, schedule):
    """Bayesian-inference posterior mean oracle, written from the pre-substitution form."""
    phi_i = schedule.phi[i - 1]
    phi_bar_i = schedule.phi_bar[i - 1]
    phi_bar_prev = 1.0 if i == 1 else schedule.phi_bar[i - 2]
    beta_i = schedule.beta[i - 1]
    return (
        math.sqrt(phi_i) * (1.0 - phi_bar_prev) / (1.0 - phi_bar_i) * pi_i
        + math.sqrt(phi_bar_prev) * beta_i / (1.0 - phi_bar_i) * pi_0
    )


# -- schedule -----------------------------------------------------------------


def test_schedule_first_rate_matches_formula():
    sched = build_schedule(4, 0.1, 10.0)
    expected = 1.0 - math.exp(-0.1 / 4.0 - (2.0 * 1 - 1) / (2.0 * 16) * 9.9)
    assert sched.beta[0] == pytest.approx(expected, rel=1e-15)
    assert sched.beta[0] == pytest.approx(0.284214687599888, abs=1e-12)


def test_schedule_single_step():
    sched = build_schedule(1, 0.1, 10.0)
    assert sched.beta[0] == pytest.approx(1.0 - math.exp(-0.1 - 9.9 / 2.0), rel=1e-15)


def test_schedule_identities():
    sched = build_schedule(8, 0.1, 10.0)
    assert np.all(sched.beta > 0.0) and np.all(sched.beta < 1.0)
    assert np.all(np.diff(sched.beta) > 0.0)
    running = 1.0
    for j in range(8):
        running *= sched.phi[j]
        assert sched.phi_bar[j] == pytest.approx(running, rel=1e-15)
    assert np.all(np.diff(sched.phi_bar) < 0.0)
    assert sched.beta_bar[0] == 0.0
    for j in range(1, 8):
        expected = (1.0 - sched.phi_bar[j - 1]) / (1.0 - sched.phi_bar[j]) * sched.beta[j]
        assert sched.beta_bar[j] == pytest.approx(expected, rel=1e-15)


def test_schedule_validation():
    with pytest.raises(ValueError):
        build_schedule(0, 0.1, 10.0)
    with pytest.raises(ValueError):
        build_schedule(4, 10.0, 0.1)
    with pytest.raises(ValueError):
        build_schedule(4, 0.0, 10.0)


# -- forward process ----------------------------------------------------------


def test_forward_marginal_near_identity_for_tiny_rates():
    sched = build_schedule(1, 1e-9, 2e-9)
    pi_0 = np.array([0.4, -1.2])
    out = forward_marginal(pi_0, 1, sched, np.array([1.0, 1.0]))
    assert np.allclose(out, pi_0, atol=1e-4)


def test_forward_marginal_zero_input():
    sched = build_schedule(4, 0.1, 10.0)
    noise = np.array([0.7, -0.3])
    out = forward_marginal(np.zeros(2), 3, sched, noise)
    assert np.allclose(out, math.sqrt(1.0 - sched.phi_bar[2]) * noise)


def test_forward_marginal_matches_iterated_single_steps():
    """Monte-Carlo: iterating pi_i = sqrt(1-beta_i) pi_{i-1} + sqrt(beta_i) eps
    agrees with the closed form in mean and variance within 3 standard errors."""
    sched = build_schedule(4, 0.1, 10.0)
    rng = np.random.default_rng(0)
    pi_0 = 0.8
    n = 100_000
    samples = np.full(n, pi_0)
    for j in range(4):
        samples = math.sqrt(1.0 - sched.beta[j]) * samples + math.sqrt(sched.beta[j]) * rng.standard_normal(n)
    mean_expected = math.sqrt(sched.phi_bar[3]) * pi_0
    var_expected = 1.0 - sched.phi_bar[3]
    mean_se = samples.std(ddof=1) / math.sqrt(n)
    assert abs(samples.mean() - mean_expected) < 3 * mean_se
    # SE of the sample variance of a normal: var * sqrt(2/(n-1))
    var_se = samples.var(ddof=1) * math.sqrt(2.0 / (n - 1))
    assert abs(samples.var(ddof=1) - var_expected) < 3 * var_se


# -- posterior mean -----------------------------------------------------------


def test_posterior_mean_zero_noise_estimate():
    sched = build_schedule(4, 0.1, 10.0)
    pi = np.array([1.0, -2.0])
    out = posterior_mean(pi, np.zeros(2), 2, sched)
    assert np.allclose(out, pi / math.sqrt(sched.phi[1]), rtol=1e-15)


def test_posterior_mean_recovers_bayesian_mean_with_exact_noise():
    """Substituting the exact forward noise reproduces the two-coefficient
    Bayesian mean at every step (algebraic identity)."""
    sched = build_schedule(5, 0.1, 10.0)
    rng = np.random.default_rng(1)
    pi_0 = rng.standard_normal(3)
    for i in range(1, 6):
        eps = rng.standard_normal(3)
        pi_i = forward_marginal(pi_0, i, sched, eps)
        mu = posterior_mean(pi_i, eps, i, sched)
        expected = eq25_mean(pi_i, pi_0, i, sched)
        assert np.allclose(mu, expected, rtol=1e-10, atol=1e-12)


def test_posterior_mean_approaches_identity_for_tiny_rates():
    sched = build_schedule(2, 1e-9, 2e-9)
    pi = np.array([0.3, 0.9])
    out = posterior_mean(pi, np.zeros(2), 1, sched)
    assert np.allclose(out, pi, atol=1e-6)


@pytest.mark.parametrize("steps", [1, 4])
def test_reverse_step_reference_equals_sampler(steps):
    """An evaluation-mode chain is pi_I followed by one posterior_mean step
    per denoiser call, so iterating the reference over the sampler's own draw
    gives its action bit for bit."""
    sched = build_schedule(steps, 0.1, 10.0)
    net = make_denoiser(5, steps, 7, seed=21)
    state = np.random.default_rng(22).standard_normal(7)
    action = sample_action(net, state, sched, np.random.default_rng(23), evaluation=True)
    pi = np.random.default_rng(23).standard_normal(5)
    for i in range(steps, 0, -1):
        eps_hat = forward_only(net, np.concatenate([pi, np.eye(steps)[i - 1], state]))
        pi = posterior_mean(pi, eps_hat, i, sched)
    assert np.array_equal(action, np.tanh(pi))


# -- sampler ------------------------------------------------------------------


def make_denoiser(action_dim, steps, state_dim, seed=0, zero=False):
    sizes = (action_dim + steps + state_dim, 16, action_dim)
    net = init_dense(sizes, np.random.default_rng(seed))
    if zero:
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
    return net


def test_sample_action_deterministic_for_fixed_seed():
    sched = build_schedule(4, 0.1, 10.0)
    net = make_denoiser(5, 4, 7, seed=2)
    state = np.random.default_rng(3).standard_normal(7)
    a1 = sample_action(net, state, sched, np.random.default_rng(10))
    a2 = sample_action(net, state, sched, np.random.default_rng(10))
    assert np.array_equal(a1, a2)


def test_sample_action_single_step_closed_form():
    sched = build_schedule(1, 0.1, 10.0)
    net = make_denoiser(4, 1, 6, zero=True)
    state = np.zeros(6)
    rng = np.random.default_rng(5)
    action = sample_action(net, state, sched, rng)
    pi_1 = np.random.default_rng(5).standard_normal(4)
    assert np.allclose(action, np.tanh(pi_1 / math.sqrt(sched.phi[0])), rtol=1e-15)


@pytest.mark.parametrize("steps", [1, 4, 8])
def test_training_chain_draws_no_noise_at_step_one(steps):
    """A training-mode chain draws pi_I plus one noise vector per step
    I..2 and none at step 1, so the rng ends where (I, dim) draws leave it."""
    sched = build_schedule(steps, 0.1, 10.0)
    net = make_denoiser(5, steps, 7, seed=9)
    rng, reference = np.random.default_rng(11), np.random.default_rng(11)
    sample_action(net, np.zeros(7), sched, rng)
    reference.standard_normal((steps, 5))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_sample_action_range_and_dimension():
    sched = build_schedule(4, 0.1, 10.0)
    k, m = 3, 4
    action_dim = k * m + k + m + 1
    state_dim = m * k + 2 * k + m + 1
    net = make_denoiser(action_dim, 4, state_dim, seed=6)
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        state = rng.standard_normal(state_dim)
        action = sample_action(net, state, sched, rng)
        assert action.shape == (action_dim,)
        assert np.all(action >= -1.0) and np.all(action <= 1.0)


def test_evaluation_mode_is_function_of_seeded_start():
    sched = build_schedule(4, 0.1, 10.0)
    net = make_denoiser(5, 4, 7, seed=8)
    state = np.random.default_rng(9).standard_normal(7)
    a1 = sample_action(net, state, sched, np.random.default_rng(0), evaluation=True)
    a2 = sample_action(net, state, sched, np.random.default_rng(0), evaluation=True)
    assert np.array_equal(a1, a2)


def test_chain_gradient_matches_finite_differences():
    """End-to-end oracle: d(sum(action))/d(theta) through the whole reverse
    chain vs central differences with the noise draws held fixed."""
    check_chain_gradient(np.random.default_rng(13).standard_normal(4))


def test_batched_chain_gradient_matches_finite_differences():
    """The same oracle over a batch of 5 states: the gradient of the summed
    actions of all rows."""
    check_chain_gradient(np.random.default_rng(13).standard_normal((5, 4)))


def check_chain_gradient(state):
    sched = build_schedule(3, 0.1, 10.0)
    action_dim, state_dim = 3, state.shape[-1]
    net = make_denoiser(action_dim, 3, state_dim, seed=12)

    def run(seed=99):
        return sample_action_with_tape(net, state, sched, np.random.default_rng(seed))

    action, chain = run()
    assert action.shape == state.shape[:-1] + (action_dim,)
    grads = chain_backward(net, sched, chain, np.ones_like(action))

    h = 1e-6
    rng_idx = np.random.default_rng(14)
    for _ in range(25):
        layer = int(rng_idx.integers(len(net.weights)))
        r = int(rng_idx.integers(net.weights[layer].shape[0]))
        c = int(rng_idx.integers(net.weights[layer].shape[1]))
        orig = net.weights[layer][r, c]
        net.weights[layer][r, c] = orig + h
        up = float(np.sum(run()[0]))
        net.weights[layer][r, c] = orig - h
        down = float(np.sum(run()[0]))
        net.weights[layer][r, c] = orig
        fd = (up - down) / (2.0 * h)
        analytic = net.views(grads)[0][layer][r, c]
        assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-8)


@pytest.mark.parametrize("evaluation", [False, True])
def test_batched_sampler_equals_single_state_chains(evaluation):
    """A (B, n) batch draws the rng like B single-state chains in turn, so
    the actions match row by row and the rng ends in the same state."""
    sched = build_schedule(4, 0.1, 10.0)
    net = make_denoiser(5, 4, 7, seed=15)
    states = np.random.default_rng(16).standard_normal((6, 7))
    rng_batch, rng_rows = np.random.default_rng(17), np.random.default_rng(17)
    batched = sample_action(net, states, sched, rng_batch, evaluation=evaluation)
    rows = [sample_action(net, s, sched, rng_rows, evaluation=evaluation) for s in states]
    assert batched.shape == (6, 5)
    assert np.allclose(batched, rows, rtol=0, atol=1e-12)
    assert rng_batch.bit_generator.state == rng_rows.bit_generator.state


def test_batched_chain_backward_equals_single_state_chains():
    """Taped batched chain + chain_backward against B single-state chains run
    from the same rng: actions, summed gradients and the rng state after."""
    sched = build_schedule(4, 0.1, 10.0)
    net = make_denoiser(5, 4, 7, seed=18)
    rng_data = np.random.default_rng(19)
    states, d_actions = rng_data.standard_normal((6, 7)), rng_data.standard_normal((6, 5))
    rng_batch, rng_rows = np.random.default_rng(20), np.random.default_rng(20)
    action, chain = sample_action_with_tape(net, states, sched, rng_batch)
    grads = chain_backward(net, sched, chain, d_actions)
    summed = np.zeros_like(net.params)
    for row, (state, d_action) in enumerate(zip(states, d_actions)):
        action_row, chain_row = sample_action_with_tape(net, state, sched, rng_rows)
        assert np.allclose(action[row], action_row, rtol=0, atol=1e-12)
        summed += chain_backward(net, sched, chain_row, d_action)
    assert rng_batch.bit_generator.state == rng_rows.bit_generator.state
    assert np.allclose(grads, summed, rtol=0, atol=1e-12)


def test_single_state_sampler_matches_row_of_one():
    """A 1-D state runs the same code as a batch of one and returns a 1-D action."""
    sched = build_schedule(4, 0.1, 10.0)
    net = make_denoiser(5, 4, 7, seed=21)
    state = np.random.default_rng(22).standard_normal(7)
    single = sample_action(net, state, sched, np.random.default_rng(23))
    batch_of_one = sample_action(net, state[None, :], sched, np.random.default_rng(23))
    assert single.shape == (5,) and batch_of_one.shape == (1, 5)
    assert np.allclose(single, batch_of_one[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("batch", [None, 32])
def test_tape_free_training_sample_equals_the_taped_chain(batch):
    """From equal generator states the tape-free chain (one reused denoiser
    input) and the taped chain give the same action bit for bit and leave the
    generators in the same state."""
    sched = build_schedule(4, 0.1, 10.0)
    net = make_denoiser(6, 4, 9, seed=12)
    state = np.random.default_rng(13).standard_normal(9 if batch is None else (batch, 9))
    rng, taped_rng = np.random.default_rng(14), np.random.default_rng(14)
    action = sample_action(net, state, sched, rng)
    taped, chain = sample_action_with_tape(net, state, sched, taped_rng)
    assert action.shape == state.shape[:-1] + (6,)
    assert np.array_equal(action, taped)
    assert rng.bit_generator.state == taped_rng.bit_generator.state
    assert len(chain.tapes) == 4


def test_evaluation_actions_are_pinned():
    """Evaluation actions of a fixed net and seed, single and batched, as the
    chain gave them before its constants were tabled and its input reused."""
    sched = build_schedule(4, 0.1, 2.0)
    net = init_dense((5 + 4 + 7, 16, 16, 5), np.random.default_rng(4), final_scale=0.01)
    states = np.random.default_rng(5).standard_normal((3, 7))
    pinned = [
        ["0x1.e3e5dc2a94a24p-1", "0x1.fd7dd1d1c3917p-1", "-0x1.ffd0d7f5b9ec3p-1", "-0x1.c4ed5ac3b6f8bp-3",
         "0x1.dfe5a8aaa9428p-1"],
        ["0x1.f59436c5ea6c0p-1", "0x1.9a91c2026c2b7p-1", "0x1.f98e430443281p-1", "0x1.d438a0da5ec1bp-2",
         "0x1.77f4b72a92d28p-1"],
        ["0x1.2c8cd5f6b136dp-2", "-0x1.e56398858d10fp-1", "-0x1.c86fbc75fc8bap-1", "0x1.21cd045aef221p-1",
         "-0x1.81881b79ebb5cp-1"],
    ]
    expected = np.array([[float.fromhex(v) for v in row] for row in pinned])
    batch = sample_action(net, states, sched, np.random.default_rng(6), evaluation=True)
    single = sample_action(net, states[0], sched, np.random.default_rng(6), evaluation=True)
    assert np.array_equal(batch, expected)
    assert np.array_equal(single, expected[0])
