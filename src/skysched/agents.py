"""Learning agents and the training loop.

Four policies share one harness: the diffusion-actor deterministic policy
gradient learner (optionally fed delay-blind observations by the env), its
plain MLP-actor ancestor, a Hungarian-assignment + factored double-DQN
baseline over discretized powers and altitude steps, and a uniform-random
reference. The two deterministic policy gradient learners are one
ActorCriticAgent that differs only in its policy object. All agents consume
raw [-1,1] action vectors through the same env surface. Updates run each
replay batch as stacked (B, n) arrays through one batched pass per net; only
acting is single-sample.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams
from .diffusion import (
    DiffusionSchedule,
    build_schedule,
    chain_backward,
    sample_action,
    sample_action_with_tape,
)
from .env import NetworkScenario, VehicularEnv
from .errors import NonFiniteActionError, NonFiniteLossError, NonFiniteRewardError, require_finite
from .neural import (
    AdamState,
    DenseNet,
    adam_step,
    backward,
    clone,
    forward,
    forward_only,
    init_dense,
    soft_update,
)

AGENT_KINDS = ("d3pg", "d3pg_wcsi", "ddpg", "h_ddqn", "random")


@dataclass
class AgentHyperparams:
    """Training knobs. Defaults are full-scale values; desk_scale_hyperparams()
    returns a preset tuned for short runs."""

    lr_actor: float = 3e-6
    lr_critic: float = 1e-5
    discount: float = 0.99
    tau: float = 0.005
    batch_size: int = 64
    buffer_capacity: int = 50_000
    warmup_steps: int = 1000
    update_every: int = 1
    hidden_width: int = 256
    hidden_layers: int = 3
    denoise_steps: int = 4
    beta_min: float = 0.1
    beta_max: float = 10.0
    exploration_sigma: float = 0.2
    exploration_decay_steps: int = 50_000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 25_000
    power_levels: int = 4
    altitude_levels: int = 5
    reward_scale: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.update_every < 1:
            raise ValueError("update_every must be >= 1")
        if self.power_levels < 2:
            raise ValueError("power_levels must be >= 2")
        if self.altitude_levels < 1:
            raise ValueError("altitude_levels must be >= 1")
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        # The buffer's and the schedule's own rules, checked before any agent is built.
        ReplayBuffer(self.buffer_capacity, None)
        build_schedule(self.denoise_steps, self.beta_min, self.beta_max)


def desk_scale_hyperparams(**overrides) -> AgentHyperparams:
    """Preset for toy scenarios: smaller nets, faster learning rates, scaled
    rewards. Full-scale learning rates move parameters too little over a few
    thousand steps to measure anything."""
    base = dict(
        lr_actor=3e-5,
        lr_critic=1e-3,
        discount=0.9,
        batch_size=32,
        warmup_steps=500,
        hidden_width=64,
        exploration_decay_steps=4000,
        epsilon_decay_steps=3000,
        reward_scale=1e-3,
    )
    base.update(overrides)
    return AgentHyperparams(**base)


class ReplayBuffer:
    """Capacity-bounded FIFO ring with uniform seeded sampling."""

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError(f"buffer_capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = rng
        self._items: list = []
        self._pos = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._pos] = item
        self._pos = (self._pos + 1) % self.capacity

    def sample(self, batch_size: int) -> list:
        idx = self._rng.integers(0, len(self._items), size=batch_size)
        return [self._items[i] for i in idx]


@functools.cache
def _lsap_solver():
    """scipy's compiled linear_sum_assignment, loaded once per process.

    scipy.optimize takes it from its extension module optimize/_lsap; loading
    that file alone skips the package init, which imports hundreds of scipy
    modules (sparse, linalg, special, ...). A later `import scipy.optimize`
    reuses the initialised extension, so both names are the same function.
    """
    import scipy

    directory = os.path.join(os.path.dirname(scipy.__file__), "optimize")
    paths = [os.path.join(directory, "_lsap" + suffix) for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled _lsap extension; tried {paths}")
    loader = ExtensionFileLoader("scipy.optimize._lsap", path)
    module = module_from_spec(spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module.linear_sum_assignment


def hungarian_assign(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-total-cost injective assignment of rows to columns.

    Returns (assignment, total) where assignment[k] is the column given to
    row k. Requires K <= M and finite costs. The solve is scipy's compiled
    linear_sum_assignment, loaded on first use by _lsap_solver() without the
    scipy.optimize package.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if cost.shape[0] > cost.shape[1]:
        raise ValueError(f"need rows <= cols, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    rows, cols = _lsap_solver()(cost)
    assignment = np.empty(cost.shape[0], dtype=np.int64)
    assignment[rows] = cols
    return assignment, float(cost[rows, cols].sum())


# -- update rules ----------------------------------------------------------


def _columns(batch: list) -> list[np.ndarray]:
    """Stack a list of transition tuples into one array per field."""
    if not batch:
        raise ValueError("batch must be non-empty")
    return [np.array(column) for column in zip(*batch)]


def critic_td_update(
    critic: DenseNet,
    critic_adam: AdamState,
    target_critic: DenseNet,
    target_policy,
    batch: list,
    hp: AgentHyperparams,
) -> float:
    """One Adam descent step on the mean squared TD error over (s, a, r, s2)
    transitions; returns the pre-step loss. target_policy maps a (B, n) batch
    of next states to a (B, action_dim) batch of next actions."""
    s, a, r, s2 = _columns(batch)
    n = len(r)
    q2 = forward_only(target_critic, np.concatenate([s2, target_policy(s2)], axis=1))[:, 0]
    y = r * hp.reward_scale + hp.discount * q2
    q, tape = forward(critic, np.concatenate([s, a], axis=1))
    err = q[:, 0] - y
    grads, _ = backward(critic, tape, (2.0 * err / n)[:, None], input_grad=False)
    adam_step(critic, grads, critic_adam)
    return float(err @ err) / n


def actor_pg_update(policy, critic: DenseNet, states, hp: AgentHyperparams) -> float:
    """One Adam ascent step on mean Q(s, pi(s)) through the policy's own
    differentiable sampler, run once over the whole (B, n) batch of states;
    returns the pre-step mean Q. The critic's parameters are left untouched."""
    states = np.asarray(states, dtype=np.float64)
    if len(states) == 0:
        raise ValueError("states must be non-empty")
    n, state_dim = states.shape
    actions, backfn = policy.sample_for_training(states)
    q, tape = forward(critic, np.concatenate([states, actions], axis=1))
    mean_q = float(np.mean(q))
    _, d_input = backward(critic, tape, np.full((n, 1), 1.0 / n), param_grads=False)
    del q, tape  # the critic's activations need not outlive the policy's gradient
    adam_step(policy.net, backfn(d_input[:, state_dim:]), policy.adam, maximize=True)
    return mean_q


def ddqn_update(
    qnet: DenseNet,
    qnet_adam: AdamState,
    target_qnet: DenseNet,
    batch: list,
    hp: AgentHyperparams,
    heads: list[tuple[int, int]],
) -> float:
    """Factored double-Q update: each head picks argmax with the online net and
    evaluates it with the target net. One descent step on the mean squared
    error across heads; returns the pre-step loss."""
    s, idxs, r, s2 = _columns(batch)
    n, n_heads = len(r), len(heads)
    q_next_online = forward_only(qnet, s2)
    q_next_target = forward_only(target_qnet, s2)
    q, tape = forward(qnet, s)
    a_star = np.stack(
        [offset + np.argmax(q_next_online[:, offset : offset + size], axis=1) for offset, size in heads], axis=1
    )
    y = (r * hp.reward_scale)[:, None] + hp.discount * np.take_along_axis(q_next_target, a_star, axis=1)
    sel = np.array([offset for offset, _ in heads]) + idxs
    err = np.take_along_axis(q, sel, axis=1) - y
    dy = np.zeros_like(q)
    np.put_along_axis(dy, sel, 2.0 * err / (n * n_heads), axis=1)
    grads, _ = backward(qnet, tape, dy, input_grad=False)
    adam_step(qnet, grads, qnet_adam)
    return float(np.sum(err * err)) / (n * n_heads)


def _check_finite(name: str, value: float, update: int) -> None:
    """Raise NonFiniteLossError when an update rule's returned loss or mean Q is
    NaN or infinite; update is the updated net's Adam step count."""
    if not np.isfinite(value):
        raise NonFiniteLossError(f"update {update}: {name} is {value}")


# -- policies and agents ----------------------------------------------------


def _mlp_sizes(n_in: int, n_out: int, hp: AgentHyperparams) -> tuple[int, ...]:
    return (n_in, *([hp.hidden_width] * hp.hidden_layers), n_out)


class DiffusionPolicy:
    """Denoiser net plus schedule; exposes the differentiable sampler.

    Exploration comes from the stochastic reverse chain; evaluation actions
    re-seed the chain start per call from eval_seed, making the policy a pure
    function of (parameters, state).
    """

    gaussian_exploration = False

    def __init__(
        self,
        net: DenseNet,
        schedule: DiffusionSchedule,
        adam: AdamState,
        rng: np.random.Generator,
        eval_seed: tuple[int, int],
    ):
        self.net = net
        self.schedule = schedule
        self.adam = adam
        self.rng = rng
        self.eval_seed = eval_seed

    def act(self, state: np.ndarray, *, evaluation: bool = False) -> np.ndarray:
        if evaluation:
            rng = np.random.default_rng(self.eval_seed)
            return sample_action(self.net, state, self.schedule, rng, evaluation=True)
        return sample_action(self.net, state, self.schedule, self.rng)

    def target_act(self, target_net: DenseNet, states: np.ndarray) -> np.ndarray:
        return sample_action(target_net, states, self.schedule, self.rng, evaluation=True)

    def sample_for_training(self, states: np.ndarray):
        action, chain = sample_action_with_tape(self.net, states, self.schedule, self.rng)
        return action, lambda d_action: chain_backward(self.net, self.schedule, chain, d_action)


class MlpPolicy:
    """Plain tanh-output actor; the agent adds Gaussian exploration noise."""

    gaussian_exploration = True

    def __init__(self, net: DenseNet, adam: AdamState):
        self.net = net
        self.adam = adam

    def act(self, state: np.ndarray, *, evaluation: bool = False) -> np.ndarray:
        return forward_only(self.net, state)

    def target_act(self, target_net: DenseNet, states: np.ndarray) -> np.ndarray:
        return forward_only(target_net, states)

    def sample_for_training(self, states: np.ndarray):
        action, tape = forward(self.net, states)
        return action, lambda d_action: backward(self.net, tape, d_action, input_grad=False)[0]


class ActorCriticAgent:
    """Deterministic policy gradient learner with a Q critic, for any policy
    object: a DiffusionPolicy gives D3PG, an MlpPolicy gives DDPG with
    linearly decayed Gaussian exploration noise on the raw actions.

    Seeds: (seed, 2001) initializes the policy net then the critic, (seed,
    2002) drives acting, target actions and training chains, (seed, 2003)
    samples the replay buffer, and (seed, 2004) starts every D3PG evaluation
    chain.
    """

    def __init__(self, kind: str, scenario: NetworkScenario, hp: AgentHyperparams, seed: int):
        self.kind = kind
        self.hp = hp
        self.seed = seed
        state_dim, action_dim = scenario.state_dim, scenario.action_dim
        init_rng = np.random.default_rng((seed, 2001))
        self.rng = np.random.default_rng((seed, 2002))
        if kind == "d3pg":
            schedule = build_schedule(hp.denoise_steps, hp.beta_min, hp.beta_max)
            net = init_dense(
                _mlp_sizes(action_dim + hp.denoise_steps + state_dim, action_dim, hp), init_rng, final_scale=0.01
            )
            self.policy = DiffusionPolicy(
                net, schedule, AdamState.for_net(net, hp.lr_actor), self.rng, (seed, 2004)
            )
        else:
            net = init_dense(
                _mlp_sizes(state_dim, action_dim, hp), init_rng, output_activation="tanh", final_scale=0.01
            )
            self.policy = MlpPolicy(net, AdamState.for_net(net, hp.lr_actor))
        self.critic = init_dense(_mlp_sizes(state_dim + action_dim, 1, hp), init_rng)
        self.target_actor = clone(self.policy.net)
        self.target_critic = clone(self.critic)
        self.critic_adam = AdamState.for_net(self.critic, hp.lr_critic)
        self.buffer = ReplayBuffer(hp.buffer_capacity, np.random.default_rng((seed, 2003)))
        self.train_steps = 0

    def _sigma(self) -> float:
        progress = min(1.0, self.train_steps / max(1, self.hp.exploration_decay_steps))
        return self.hp.exploration_sigma * (1.0 - progress)

    def act(self, state: np.ndarray, info: dict | None = None, *, evaluation: bool = False) -> np.ndarray:
        action = self.policy.act(state, evaluation=evaluation)
        if evaluation or not self.policy.gaussian_exploration:
            return action
        noise = self._sigma() * self.rng.standard_normal(action.shape)
        return np.clip(action + noise, -1.0, 1.0)

    def observe(self, s, a, r, s2) -> None:
        self.buffer.push((s, a, r, s2))
        self.train_steps += 1

    def _target_policy(self, states: np.ndarray) -> np.ndarray:
        return self.policy.target_act(self.target_actor, states)

    def update(self) -> None:
        if len(self.buffer) == 0:
            return
        batch = self.buffer.sample(self.hp.batch_size)
        loss = critic_td_update(self.critic, self.critic_adam, self.target_critic, self._target_policy, batch, self.hp)
        _check_finite("critic loss", loss, self.critic_adam.step)
        mean_q = actor_pg_update(self.policy, self.critic, [s for s, _, _, _ in batch], self.hp)
        _check_finite("mean Q", mean_q, self.critic_adam.step)
        soft_update(self.target_actor, self.policy.net, self.hp.tau)
        soft_update(self.target_critic, self.critic, self.hp.tau)


class HDDQNAgent:
    """Hungarian channel assignment plus a factored double-DQN over discrete
    power levels (one head per transmitter) and altitude steps.

    The assignment cost of putting V2V link k on channel m is the negative
    pre-delay SINR estimate at reference power p_max/2, built from the
    observed gain families.
    """

    kind = "h_ddqn"

    def __init__(
        self, scenario: NetworkScenario, hp: AgentHyperparams, seed: int, channel_params: ChannelParams
    ):
        self.hp = hp
        self.seed = seed
        self.scenario = scenario
        self.channel_params = channel_params
        k, m = scenario.k_links, scenario.m_links
        self.heads: list[tuple[int, int]] = []
        offset = 0
        for _ in range(k + m):  # p_k heads then p_m heads
            self.heads.append((offset, hp.power_levels))
            offset += hp.power_levels
        self.heads.append((offset, hp.altitude_levels))
        offset += hp.altitude_levels
        init_rng = np.random.default_rng((seed, 2001))
        self.qnet = init_dense(_mlp_sizes(scenario.state_dim, offset, hp), init_rng)
        self.target_qnet = clone(self.qnet)
        self.qnet_adam = AdamState.for_net(self.qnet, hp.lr_critic)
        self.rng = np.random.default_rng((seed, 2002))
        self.buffer = ReplayBuffer(hp.buffer_capacity, np.random.default_rng((seed, 2003)))
        self.train_steps = 0
        self._last_idxs: np.ndarray | None = None
        self._altitude_raws = np.linspace(-1.0, 1.0, hp.altitude_levels)
        # Load hungarian_assign's compiled solver now, so its one-off load cost
        # lands in set-up rather than inside the first timed act().
        _lsap_solver()

    def _epsilon(self) -> float:
        progress = min(1.0, self.train_steps / max(1, self.hp.epsilon_decay_steps))
        return self.hp.epsilon_start + (self.hp.epsilon_end - self.hp.epsilon_start) * progress

    def _channel_scores(self, gains) -> np.ndarray:
        k_links, m_links = self.scenario.k_links, self.scenario.m_links
        p_ref = self.scenario.p_max / 2.0
        noise = self.channel_params.noise_power
        desired = p_ref * gains.h_v_k_hat  # (K,)
        interference = p_ref * gains.h_v_mk_hat  # (M, K)
        sinr = desired[None, :] / (interference + noise)  # (M, K)
        assignment, _ = hungarian_assign(-sinr.T)  # cost[k, m] = -sinr estimate
        scores = -np.ones((k_links, m_links))
        scores[np.arange(k_links), assignment] = 1.0
        return scores

    def act(self, state: np.ndarray, info: dict, *, evaluation: bool = False) -> np.ndarray:
        scores = self._channel_scores(info["gains"])
        q = forward_only(self.qnet, state)
        eps = 0.0 if evaluation else self._epsilon()
        idxs = np.empty(len(self.heads), dtype=np.int64)
        for h, (offset, size) in enumerate(self.heads):
            if eps > 0.0 and self.rng.random() < eps:
                idxs[h] = self.rng.integers(size)
            else:
                idxs[h] = int(np.argmax(q[offset : offset + size]))
        self._last_idxs = idxs
        k, m = self.scenario.k_links, self.scenario.m_links
        p_fracs = idxs[: k + m] / (self.hp.power_levels - 1)
        raw = np.concatenate(
            [scores.ravel(), 2.0 * p_fracs - 1.0, [self._altitude_raws[idxs[-1]]]]
        )
        return raw

    def observe(self, s, a, r, s2) -> None:
        self.buffer.push((s, self._last_idxs, r, s2))
        self.train_steps += 1

    def update(self) -> None:
        if len(self.buffer) == 0:
            return
        batch = self.buffer.sample(self.hp.batch_size)
        loss = ddqn_update(self.qnet, self.qnet_adam, self.target_qnet, batch, self.hp, self.heads)
        _check_finite("double-Q loss", loss, self.qnet_adam.step)
        soft_update(self.target_qnet, self.qnet, self.hp.tau)


class RandomAgent:
    """Uniform random raw actions; the no-learning reference policy."""

    kind = "random"

    def __init__(self, scenario: NetworkScenario, seed: int):
        self.action_dim = scenario.action_dim
        self.rng = np.random.default_rng((seed, 2002))
        self.train_steps = 0

    def act(self, state: np.ndarray, info: dict | None = None, *, evaluation: bool = False) -> np.ndarray:
        return self.rng.uniform(-1.0, 1.0, self.action_dim)

    def observe(self, s, a, r, s2) -> None:
        self.train_steps += 1

    def update(self) -> None:
        pass


def make_agent(
    kind: str, scenario: NetworkScenario, channel_params: ChannelParams, hp: AgentHyperparams, seed: int
):
    """Agent factory. d3pg_wcsi shares the D3PG learner; only the env's
    observation mode differs, so identical seeds give identical machinery."""
    if kind in ("d3pg", "d3pg_wcsi"):
        return ActorCriticAgent("d3pg", scenario, hp, seed)
    if kind == "ddpg":
        return ActorCriticAgent("ddpg", scenario, hp, seed)
    if kind == "h_ddqn":
        return HDDQNAgent(scenario, hp, seed, channel_params)
    if kind == "random":
        return RandomAgent(scenario, seed)
    raise ValueError(f"unknown agent kind {kind!r}; choose from {AGENT_KINDS}")


# -- training loop -----------------------------------------------------------


class SlotRecord(NamedTuple):
    """One slot's emitted metrics (episode == n_episodes marks evaluation); the
    fields but the last are the metrics.csv / eval.csv columns, in order."""

    run_id: str
    seed: int
    episode: int
    slot: int
    reward: float
    mean_v2u_rate_mbps: float
    energy_j: float
    moving_avg_energy_j: float
    queue_j: float
    outage_violations: int
    inference_ms: float


@dataclass
class TrainResult:
    episode_rewards: list[float]
    records: list[SlotRecord]
    agent: object
    eval_records: list[SlotRecord] = field(default_factory=list)


def train(
    agent_kind: str,
    env: VehicularEnv,
    hp: AgentHyperparams,
    seed: int,
    episodes: int,
    *,
    run_id: str = "run",
) -> TrainResult:
    """Run episodes x slots of act / step / store / (after warmup) update, with
    soft target updates inside each agent update, then one deterministic
    evaluation episode (recorded with episode index == episodes).

    Timing covers policy inference only. Identical (env seed, agent seed,
    config) reproduce the metric series exactly. Non-finite action, reward or
    loss errors are re-raised with the run_id and seed prefixed.
    """
    if agent_kind == "d3pg_wcsi" and env.observe_aged:
        raise ValueError("d3pg_wcsi requires an env constructed with observe_aged=False")
    agent = make_agent(agent_kind, env.scenario, env.channel_params, hp, seed)
    dt = env.scenario.slot_duration
    records: list[SlotRecord] = []
    eval_records: list[SlotRecord] = []
    episode_rewards: list[float] = []

    def run_episode(ep: int, evaluation: bool) -> float:
        state, info = env.reset(ep)
        cum_energy = 0.0
        ep_reward = 0.0
        for t in range(env.n_slots):
            t0 = perf_counter()
            action = agent.act(state, info, evaluation=evaluation)
            inference_ms = (perf_counter() - t0) * 1e3
            next_state, rb, done, info = env.step(action)
            if not evaluation:
                agent.observe(state, action, rb.reward, next_state)
                if agent.train_steps >= hp.warmup_steps and agent.train_steps % hp.update_every == 0:
                    agent.update()
            cum_energy += rb.power * dt
            record = SlotRecord(
                run_id=run_id,
                seed=seed,
                episode=ep,
                slot=t,
                reward=rb.reward,
                mean_v2u_rate_mbps=rb.mean_v2u_rate * 1e-6,
                energy_j=rb.power * dt,
                moving_avg_energy_j=cum_energy / (t + 1),
                queue_j=info["queue"],
                outage_violations=rb.outage_violations,
                inference_ms=inference_ms,
            )
            (eval_records if evaluation else records).append(record)
            ep_reward += rb.reward
            state = next_state
        return ep_reward

    try:
        for ep in range(episodes):
            episode_rewards.append(run_episode(ep, evaluation=False))
        run_episode(episodes, evaluation=True)
    except (NonFiniteActionError, NonFiniteRewardError, NonFiniteLossError) as exc:
        raise type(exc)(f"run {run_id}, seed {seed}: {exc}") from exc
    return TrainResult(episode_rewards=episode_rewards, records=records, agent=agent, eval_records=eval_records)
