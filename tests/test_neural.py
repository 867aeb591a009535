import tracemalloc

import numpy as np
import pytest

from skysched.errors import InvalidStateError
from skysched.neural import (
    BLOCK,
    AdamState,
    DenseNet,
    adam_step,
    backward,
    clone,
    forward,
    forward_only,
    init_dense,
    load_checkpoint,
    save_checkpoint,
    soft_update,
)


def flatten_params(net: DenseNet) -> np.ndarray:
    return np.concatenate([w.ravel() for w in net.weights] + [b.ravel() for b in net.biases])


def loss_fd(net: DenseNet, x: np.ndarray, grad_out: np.ndarray, arrays, h=1e-5):
    """Central-difference gradient of grad_out . forward(x) for every entry of
    the given parameter arrays (independent finite-difference oracle)."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = float(grad_out @ forward_only(net, x))
            arr[idx] = orig - h
            down = float(grad_out @ forward_only(net, x))
            arr[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
            it.iternext()
        grads.append(g)
    return grads


def make_net(sizes, seed=0, output_activation="identity", hidden_activation="relu"):
    return init_dense(
        sizes,
        np.random.default_rng(seed),
        hidden_activation=hidden_activation,
        output_activation=output_activation,
    )


def min_preactivation(tape) -> float:
    return min(float(np.min(np.abs(z))) for z in tape.pre)


def test_forward_zero_net_outputs_zero():
    net = DenseNet(
        weights=[np.zeros((3, 2)), np.zeros((1, 3))],
        biases=[np.zeros(3), np.zeros(1)],
    )
    y, _ = forward(net, np.array([1.0, -2.0]))
    assert np.array_equal(y, np.zeros(1))


def test_forward_identity_layer():
    net = DenseNet(weights=[np.eye(4)], biases=[np.zeros(4)], output_activation="identity")
    x = np.array([0.5, -1.0, 2.0, 0.0])
    y, _ = forward(net, x)
    assert np.array_equal(y, x)


def test_forward_deterministic():
    net = make_net((5, 16, 16, 2), seed=3)
    x = np.random.default_rng(1).standard_normal(5)
    y1, _ = forward(net, x)
    y2, _ = forward(net, x)
    assert np.array_equal(y1, y2)
    assert np.array_equal(y1, forward_only(net, x))


def test_forward_shape_mismatch():
    net = make_net((5, 8, 1))
    with pytest.raises(ValueError):
        forward(net, np.zeros(4))


def test_forward_rejects_three_dimensional_input():
    net = make_net((5, 8, 1))
    with pytest.raises(ValueError):
        forward(net, np.zeros((2, 3, 5)))


@pytest.mark.parametrize("output_activation", ["identity", "tanh"])
def test_batched_pass_equals_sum_of_single_rows(output_activation):
    """One (B, n) forward/backward gives the row-wise outputs and input
    gradients (the same bits with param_grads=False), and parameter gradients
    equal to the sum of B single-row calls."""
    net = make_net((6, 16, 16, 3), seed=7, output_activation=output_activation)
    rng = np.random.default_rng(8)
    xs, dys = rng.standard_normal((9, 6)), rng.standard_normal((9, 3))
    y, tape = forward(net, xs)
    grads, dx = backward(net, tape, dys)
    assert y.shape == (9, 3) and dx.shape == (9, 6)
    no_grads, dx_only = backward(net, tape, dys, param_grads=False)
    assert no_grads is None and np.array_equal(dx_only, dx)
    assert np.allclose(forward_only(net, xs), y, rtol=0, atol=1e-12)
    summed = np.zeros_like(net.params)
    for row, (x, dy) in enumerate(zip(xs, dys)):
        y_row, tape_row = forward(net, x)
        grads_row, dx_row = backward(net, tape_row, dy)
        assert np.allclose(y[row], y_row, rtol=0, atol=1e-12)
        assert np.allclose(dx[row], dx_row, rtol=0, atol=1e-12)
        summed += grads_row
    assert grads.shape == net.params.shape
    assert np.allclose(grads, summed, rtol=0, atol=1e-12)


@pytest.mark.parametrize("sizes", [(6, 16, 16, 3), (6, 3)])
def test_backward_without_input_gradient_keeps_parameter_gradient_bits(sizes):
    """input_grad=False returns None for d_input and the same parameter
    gradient bits, for a batch and a single sample, deep and one-layer nets."""
    net = make_net(sizes, seed=9, output_activation="tanh")
    rng = np.random.default_rng(10)
    for xs, dys in ((rng.standard_normal((5, 6)), rng.standard_normal((5, 3))), (rng.standard_normal(6), rng.standard_normal(3))):
        _, tape = forward(net, xs)
        grads, _ = backward(net, tape, dys)
        param_only, no_dx = backward(net, tape, dys, input_grad=False)
        assert no_dx is None and param_only.tobytes() == grads.tobytes()


def test_backward_rejects_gradient_of_other_batch_size():
    net = make_net((4, 8, 2), seed=3)
    _, tape = forward(net, np.zeros((5, 4)))
    with pytest.raises(ValueError):
        backward(net, tape, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        backward(net, tape, np.zeros(2))


def test_backward_linear_closed_form():
    # y = w*x: dy/dw = x, dy/dx = w
    net = DenseNet(weights=[np.array([[3.0]])], biases=[np.array([0.0])])
    x = np.array([2.0])
    y, tape = forward(net, x)
    grads, dx = backward(net, tape, np.array([1.0]))
    d_weights, _ = net.views(grads)
    assert d_weights[0][0, 0] == pytest.approx(2.0)
    assert dx[0] == pytest.approx(3.0)


def test_backward_zero_output_gradient():
    net = make_net((4, 8, 8, 3), seed=1)
    x = np.random.default_rng(0).standard_normal(4)
    _, tape = forward(net, x)
    grads, dx = backward(net, tape, np.zeros(3))
    assert np.all(grads == 0.0)
    assert np.all(dx == 0.0)


def test_backward_rejects_stale_tape():
    net = make_net((3, 8, 1), seed=2)
    x = np.zeros(3)
    _, tape = forward(net, x)
    adam = AdamState.for_net(net, lr=1e-3)
    g = np.zeros_like(net.params)
    g[0] = 1.0  # weights[0][0, 0]
    adam_step(net, g, adam)
    with pytest.raises(InvalidStateError):
        backward(net, tape, np.array([1.0]))


@pytest.mark.parametrize("output_activation", ["identity", "tanh"])
def test_gradients_match_finite_differences(output_activation):
    """20 random (net, input) draws; skip draws with a pre-activation within
    10*h of a ReLU kink, where central differences are invalid."""
    rng = np.random.default_rng(2024)
    checked = 0
    attempt = 0
    while checked < 20:
        attempt += 1
        sizes = (rng.integers(2, 6), rng.integers(4, 12), rng.integers(4, 12), rng.integers(1, 4))
        net = make_net(tuple(int(s) for s in sizes), seed=attempt, output_activation=output_activation)
        x = rng.standard_normal(net.n_in)
        y, tape = forward(net, x)
        if min_preactivation(tape) < 1e-4:
            continue
        grad_out = rng.standard_normal(net.n_out)
        grads, dx = backward(net, tape, grad_out)
        fd_w = loss_fd(net, x, grad_out, net.weights)
        fd_b = loss_fd(net, x, grad_out, net.biases)
        d_weights, d_biases = net.views(grads)
        for analytic, numeric in zip(d_weights + d_biases, fd_w + fd_b):
            denom = np.maximum(np.abs(numeric), 1e-6)
            rel = np.max(np.abs(analytic - numeric) / denom)
            assert rel < 1e-5
        # input gradient against finite differences too
        fd_x = np.zeros_like(x)
        h = 1e-5
        for j in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd_x[j] = (grad_out @ forward_only(net, xp) - grad_out @ forward_only(net, xm)) / (2 * h)
        assert np.max(np.abs(dx - fd_x) / np.maximum(np.abs(fd_x), 1e-6)) < 1e-5
        checked += 1


def test_adam_zero_gradient_keeps_parameters():
    net = make_net((3, 6, 1), seed=5)
    before = flatten_params(net)
    adam = AdamState.for_net(net, lr=0.1)
    adam_step(net, np.zeros_like(net.params), adam)
    assert np.array_equal(flatten_params(net), before)


def test_adam_descends_on_square():
    # f(w) = w^2 from w=1: one minimize step decreases w.
    net = DenseNet(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
    adam = AdamState.for_net(net, lr=0.1)
    g = np.array([2.0, 0.0])  # df/dw at w=1, then df/db
    adam_step(net, g, adam)
    assert net.weights[0][0, 0] < 1.0


def test_adam_maximize_flips_direction():
    net = DenseNet(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
    adam = AdamState.for_net(net, lr=0.1)
    g = np.array([2.0, 0.0])
    adam_step(net, g, adam, maximize=True)
    assert net.weights[0][0, 0] > 1.0


def test_soft_update_tau_one_copies():
    target, online = make_net((3, 8, 2), seed=1), make_net((3, 8, 2), seed=2)
    soft_update(target, online, 1.0)
    assert np.array_equal(flatten_params(target), flatten_params(online))


def test_soft_update_fixed_point():
    online = make_net((3, 8, 2), seed=3)
    target = clone(online)
    before = flatten_params(target)
    soft_update(target, online, 0.005)
    assert np.allclose(flatten_params(target), before, rtol=0, atol=1e-15)


def test_soft_update_scalar_case():
    target = DenseNet(weights=[np.array([[0.0]])], biases=[np.array([0.0])])
    online = DenseNet(weights=[np.array([[1.0]])], biases=[np.array([1.0])])
    soft_update(target, online, 0.5)
    assert target.weights[0][0, 0] == pytest.approx(0.5)


def test_soft_update_is_exact_contraction():
    target, online = make_net((4, 10, 3), seed=4), make_net((4, 10, 3), seed=5)
    tau = 0.3
    gap_before = np.linalg.norm(flatten_params(target) - flatten_params(online))
    soft_update(target, online, tau)
    gap_after = np.linalg.norm(flatten_params(target) - flatten_params(online))
    assert gap_after == pytest.approx((1.0 - tau) * gap_before, rel=1e-12)


def test_soft_update_architecture_mismatch():
    with pytest.raises(ValueError):
        soft_update(make_net((3, 8, 2)), make_net((3, 9, 2)), 0.5)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = make_net((7, 32, 32, 5), seed=11, output_activation="tanh")
    path = tmp_path / "net.npz"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.sizes == net.sizes
    assert loaded.output_activation == net.output_activation
    for a, b in zip(loaded.weights + loaded.biases, net.weights + net.biases):
        assert np.array_equal(a, b)
    x = np.random.default_rng(0).standard_normal(7)
    assert np.array_equal(forward_only(loaded, x), forward_only(net, x))


# -- flat parameter layout -----------------------------------------------------

TINY = (3, 8, 2)  # 50 parameters: less than one block
TWO_BLOCKS = (127, 128)  # 127*128 + 128 = 2 * BLOCK parameters
DESK_DENOISER = (58, 64, 64, 64, 25)  # D3PG denoiser, desk preset, M=K=4
FULL_CRITIC = (252, 256, 256, 256, 1)  # DDPG critic, full preset, M=K=10


def test_dense_net_rejects_unpaired_weights_and_biases():
    with pytest.raises(ValueError, match="one bias per weight"):
        DenseNet(weights=[np.ones((3, 2)), np.ones((1, 3))], biases=[np.zeros(3)])


def test_dense_net_rejects_zero_layers():
    with pytest.raises(ValueError, match="layer"):
        DenseNet(weights=[], biases=[])


def test_params_vector_and_layer_views_share_memory():
    w0, b0 = np.arange(6.0).reshape(3, 2), np.arange(3.0)
    net = DenseNet(weights=[w0, np.ones((1, 3))], biases=[b0, np.zeros(1)])
    assert np.array_equal(net.params, np.concatenate([w0.ravel(), np.ones(3), b0, np.zeros(1)]))
    net.weights[1][0, 2] = 7.0
    assert net.params[8] == 7.0
    net.params[9] = -4.0  # first bias entry
    assert net.biases[0][0] == -4.0
    w0[0, 0] = 99.0  # construction copied its inputs
    assert net.weights[0][0, 0] == 0.0 and net.params[0] == 0.0


def reference_adam(params, grads, m, v, state, step, maximize):
    """Per-layer Adam in the textbook operation order, on lists of arrays."""
    b1, b2 = state.beta1, state.beta2
    corr1, corr2 = 1.0 - b1**step, 1.0 - b2**step
    for p, g, mm, vv in zip(params, grads, m, v):
        g = (-1.0 if maximize else 1.0) * g
        mm *= b1
        mm += (1.0 - b1) * g
        vv *= b2
        vv += (1.0 - b2) * g * g
        p -= state.lr * (mm / corr1) / (np.sqrt(vv / corr2) + state.eps)


@pytest.mark.parametrize(
    "sizes", [TINY, TWO_BLOCKS, DESK_DENOISER, FULL_CRITIC], ids=["tiny", "two_blocks", "desk_denoiser", "full_critic"]
)
@pytest.mark.parametrize("maximize", [False, True])
def test_adam_step_equals_per_layer_reference_bit_for_bit(sizes, maximize):
    net = make_net(sizes, seed=21)
    ref = [a.copy() for a in net.weights + net.biases]
    ref_m, ref_v = [np.zeros_like(a) for a in ref], [np.zeros_like(a) for a in ref]
    adam = AdamState.for_net(net, lr=1e-3)
    rng = np.random.default_rng(22)
    for step in range(1, 6):
        grads = rng.standard_normal(net.params.size)
        d_weights, d_biases = net.views(grads)
        reference_adam(ref, [g.copy() for g in d_weights + d_biases], ref_m, ref_v, adam, step, maximize)
        adam_step(net, grads, adam, maximize=maximize)
        assert all(np.array_equal(a, b) for a, b in zip(net.weights + net.biases, ref))
    assert adam.step == 5
    assert np.array_equal(adam.m, np.concatenate([a.ravel() for a in ref_m]))
    assert np.array_equal(adam.v, np.concatenate([a.ravel() for a in ref_v]))


def assert_soft_update_equals_per_layer_reference(sizes) -> DenseNet:
    """Soft-update two nets of the given sizes against a per-layer reference; returns the online net."""
    target, online = make_net(sizes, seed=1), make_net(sizes, seed=2)
    expected = [t * (1.0 - 0.005) + 0.005 * o for t, o in zip(target.weights + target.biases, online.weights + online.biases)]
    soft_update(target, online, 0.005)
    assert all(np.array_equal(a, b) for a, b in zip(target.weights + target.biases, expected))
    return online


@pytest.mark.parametrize("sizes", [TINY, TWO_BLOCKS, FULL_CRITIC], ids=["tiny", "two_blocks", "full_critic"])
def test_soft_update_equals_per_layer_reference_at_other_block_counts(sizes):
    assert_soft_update_equals_per_layer_reference(sizes)


def test_soft_update_and_clone_equal_per_layer_reference():
    online = assert_soft_update_equals_per_layer_reference(DESK_DENOISER)
    twin = clone(online)
    assert all(np.array_equal(a, b) for a, b in zip(twin.weights + twin.biases, online.weights + online.biases))
    twin.params[:] = 0.0
    assert np.all(twin.weights[0] == 0.0) and not np.all(online.params == 0.0)


def traced_peak(fn) -> int:
    """Bytes at the tracemalloc peak of one fn() call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BLOCK_BYTES = BLOCK * np.dtype(np.float64).itemsize


def test_adam_step_peak_memory_is_at_most_two_blocks():
    """Adam reuses each consumed gradient block as scratch and allocates one
    block more; a whole-vector pass would hold a parameter-sized temporary
    (1.5 MiB here)."""
    net = make_net(FULL_CRITIC, seed=3)
    adam = AdamState.for_net(net, lr=1e-3)
    adam_step(net, np.zeros_like(net.params), adam)  # warm up any lazy allocations
    grads = np.random.default_rng(4).standard_normal(net.params.size)
    assert traced_peak(lambda: adam_step(net, grads, adam)) <= 2 * BLOCK_BYTES + 4096


def test_soft_update_peak_memory_is_one_block():
    target, online = make_net(FULL_CRITIC, seed=5), make_net(FULL_CRITIC, seed=6)
    soft_update(target, online, 0.005)  # warm up any lazy allocations
    assert traced_peak(lambda: soft_update(target, online, 0.005)) <= BLOCK_BYTES + 4096


def test_load_checkpoint_rejects_vector_that_does_not_fit_sizes(tmp_path):
    net = make_net((3, 4, 2), seed=0)
    path = tmp_path / "net.npz"
    save_checkpoint(net, path)
    with np.load(path) as data:
        header = data["header"]
    np.savez(path, header=header, params=np.zeros(net.params.size - 1))
    with pytest.raises(ValueError, match="net.npz"):
        load_checkpoint(path)
