import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiqgan import critic as cr
from spiqgan.errors import ConfigurationError

from _oracles import central_difference, critic_forward


def zero_params(d):
    return cr.CriticParams(
        w1=np.zeros((cr.HIDDEN_UNITS, d)),
        b1=np.zeros(cr.HIDDEN_UNITS),
        w2=np.zeros(cr.HIDDEN_UNITS),
        b2=np.asarray(0.0),
    )


def random_params(d, seed=0):
    return cr.init_critic(d, np.random.default_rng(seed))


def forward_one(p, x):
    """The package's critic score of one input."""
    return cr.critic_forward_batch(p, np.asarray(x, dtype=float)[None])[0]


def test_forward_zero_params():
    assert forward_one(zero_params(3), [0.3, 1.0, 0.0]) == 0.0


def test_forward_bias_only_path():
    p = zero_params(2)
    p.b1 = np.ones(cr.HIDDEN_UNITS)
    p.w2 = np.zeros(cr.HIDDEN_UNITS)
    p.w2[0] = 1.0
    assert forward_one(p, [5.0, -2.0]) == pytest.approx(1.0)


def test_forward_matches_hand_computation():
    rng = np.random.default_rng(12)
    p = random_params(4, seed=12)
    x = rng.normal(size=4)
    expected = 0.0
    for h in range(cr.HIDDEN_UNITS):
        pre = sum(p.w1[h, i] * x[i] for i in range(4)) + p.b1[h]
        expected += p.w2[h] * max(pre, 0.0)
    expected += float(p.b2)
    assert forward_one(p, x) == pytest.approx(expected, rel=1e-12)


def test_forward_length_mismatch():
    with pytest.raises(ConfigurationError):
        forward_one(zero_params(3), [1.0, 2.0])


def test_forward_batch_matches_single():
    p = random_params(3, seed=5)
    xs = np.random.default_rng(5).normal(size=(7, 3))
    batch = cr.critic_forward_batch(p, xs)
    for j in range(7):
        assert batch[j] == pytest.approx(critic_forward(p, xs[j]), rel=1e-12)


def backward_one(p, x):
    """Parameter gradients (w1, b1, w2, b2) and input gradient of C(x)."""
    grads, input_grads = cr.critic_backward_batch(
        p, np.asarray(x, dtype=float)[None], np.ones(1))
    return cr.CriticParams(*grads), input_grads[0]


def test_backward_bias_gradient_is_one():
    p = random_params(2, seed=1)
    grads, _ = backward_one(p, [0.2, 0.8])
    assert float(grads.b2) == 1.0


def test_backward_dead_units_zero_input_grad():
    p = zero_params(2)
    p.b1 = -np.ones(cr.HIDDEN_UNITS)
    p.w1 = np.random.default_rng(2).normal(size=p.w1.shape)
    p.w2 = np.ones(cr.HIDDEN_UNITS)
    grads, input_grad = backward_one(p, [0.0, 0.0])
    np.testing.assert_array_equal(input_grad, [0.0, 0.0])
    np.testing.assert_array_equal(grads.w1, np.zeros_like(p.w1))


@pytest.mark.parametrize("seed", range(20))
def test_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    p = random_params(d, seed=seed)
    x = rng.normal(size=d)
    grads, input_grad = backward_one(p, x)

    # keep pre-activations away from the ReLU kink so FD is clean
    pre = p.w1 @ x + p.b1
    assert np.abs(pre).min() > 1e-4

    fd_x = central_difference(lambda v: critic_forward(p, v), x)
    np.testing.assert_allclose(input_grad, fd_x, rtol=1e-6, atol=1e-9)

    for name in ("w1", "b1", "w2", "b2"):
        def f(tensor, name=name):
            q = p.copy()
            setattr(q, name, tensor.reshape(np.shape(getattr(p, name))))
            return critic_forward(q, x)
        fd = central_difference(f, np.asarray(getattr(p, name), dtype=float))
        np.testing.assert_allclose(np.asarray(getattr(grads, name)), fd,
                                   rtol=1e-6, atol=1e-9)


def test_piecewise_linearity_within_region():
    p = random_params(3, seed=7)
    rng = np.random.default_rng(7)
    x = rng.normal(size=3)
    direction = rng.normal(size=3) * 1e-4
    x1, x2 = x + direction, x - direction
    signs = np.sign(p.w1 @ x + p.b1)
    assert (np.sign(p.w1 @ x1 + p.b1) == signs).all()
    assert (np.sign(p.w1 @ x2 + p.b1) == signs).all()
    alpha = 0.3
    mix = forward_one(p, alpha * x1 + (1 - alpha) * x2)
    combo = alpha * forward_one(p, x1) + (1 - alpha) * forward_one(p, x2)
    assert mix == pytest.approx(combo, rel=1e-10)


def test_clip_examples():
    p = zero_params(2)
    p.w1 += 0.005
    clipped = cr.clip_weights(p, 0.01)
    np.testing.assert_array_equal(clipped.w1, p.w1)

    p.w1[0, 0] = 0.7
    p.b1[0] = -5.0
    clipped = cr.clip_weights(p, 0.01)
    assert clipped.w1[0, 0] == 0.01
    assert clipped.b1[0] == -0.01

    with pytest.raises(ConfigurationError):
        cr.clip_weights(p, 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.floats(0.001, 1.0))
def test_clip_bounds_everything(seed, c):
    p = random_params(3, seed=seed)
    p.w1 *= 100
    clipped = cr.clip_weights(p, c)
    for t in clipped.tensors():
        assert (np.abs(t) <= c).all()


def test_init_respects_fan_in_bounds():
    p = random_params(16, seed=3)
    assert (np.abs(p.w1) <= 1 / 4).all()
    assert (np.abs(p.b1) <= 1 / 4).all()
    assert (np.abs(p.w2) <= 1 / 8).all()
    assert abs(float(p.b2)) <= 1 / 8


# --- Adam ---------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    p = (np.array([1.0, -2.0]),)
    state = cr.adam_init(p)
    updated, new_state = cr.adam_step(p, (np.zeros(2),), state, lr=0.1)
    np.testing.assert_array_equal(updated[0], p[0])
    assert new_state.step_count == 1


def test_adam_first_step_is_signed_lr():
    # epsilon shaves |step| by a factor 1/(1 + eps/|g|), so allow 2 percent
    for scale in (1e-6, 1.0, 1e6):
        p = (np.array([0.0, 0.0]),)
        g = (np.array([scale, -scale]),)
        updated, _ = cr.adam_step(p, g, cr.adam_init(p), lr=0.05)
        np.testing.assert_allclose(updated[0], [-0.05, 0.05], rtol=0.02)


def test_adam_three_steps_match_hand_recurrence():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    theta = 0.5
    m = v = 0.0
    grads = [0.3, -0.2, 0.05]
    p = (np.asarray(theta),)
    state = cr.adam_init(p)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        p, state = cr.adam_step(p, (np.asarray(g),), state, lr=lr)
        assert float(p[0]) == pytest.approx(theta, abs=1e-12)
    assert state.step_count == 3


def test_adam_shape_mismatch():
    p = (np.zeros(3),)
    with pytest.raises(ConfigurationError):
        cr.adam_step(p, (np.zeros(2),), cr.adam_init(p), lr=0.1)
