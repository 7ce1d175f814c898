"""Gate-level checks of the dense state-vector kernel that simulates every
patch (``generator.batch_patch_probs``), read out as basis-state
probabilities.  Qubit 0 is the least-significant bit of a basis index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiqgan import generator as gen
from spiqgan.errors import ConfigurationError

from _oracles import ansatz_probs


def cfg_for(n, layers=1, aux=0, **kw):
    return gen.GeneratorConfig(n_feature=n, n_patches=1, n_layers=layers,
                               n_aux=aux, **kw)


def readout(cfg, theta, z):
    """Basis-state probabilities of one patch instance."""
    return gen.batch_patch_probs(cfg, np.asarray(theta, dtype=float)[None],
                                 np.asarray(z, dtype=float)[None])[0]


def test_init_zero_single_qubit():
    probs = readout(cfg_for(1), np.zeros((1, 1, 2)), [0.0])
    np.testing.assert_array_equal(probs, [1, 0])


def test_init_zero_two_qubits():
    probs = readout(cfg_for(2), np.zeros((1, 2, 2)), [0.0, 0.0])
    np.testing.assert_array_equal(probs, [1, 0, 0, 0])


@pytest.mark.parametrize("bad", [0, 25, -3])
def test_init_zero_guards(bad):
    # the state needs 1 .. MAX_QUBITS qubits
    with pytest.raises(ConfigurationError):
        cfg_for(bad)


def test_rx_pi_flips_bit():
    probs = readout(cfg_for(1), np.zeros((1, 1, 2)), [np.pi])
    np.testing.assert_allclose(probs, [0.0, 1.0], atol=1e-12)


def test_ry_closed_form():
    probs = readout(cfg_for(1), [[[np.pi / 3, 0.0]]], [0.0])
    assert probs[1] == pytest.approx(np.sin(np.pi / 6) ** 2)
    assert probs[1] == pytest.approx(0.25)


def test_cnot_truth_table():
    # RX(pi) on qubit k sets it before the chain; CNOT(0, 1) then acts
    cfg = cfg_for(2)
    for z, basis in [([0, 0], 0b00), ([np.pi, 0], 0b11),
                     ([0, np.pi], 0b10), ([np.pi, np.pi], 0b01)]:
        probs = readout(cfg, np.zeros((1, 2, 2)), z)
        assert probs[basis] == pytest.approx(1.0, abs=1e-12)
    # the chain runs 0 -> 1 -> 2 in order: qubit 0 set flips both others
    probs = readout(cfg_for(3), np.zeros((1, 3, 2)), [np.pi, 0.0, 0.0])
    assert probs[0b111] == pytest.approx(1.0, abs=1e-12)


def test_random_circuit_matches_dense_oracle():
    rng = np.random.default_rng(7)
    cfg = cfg_for(2, layers=3, aux=1)
    theta = rng.uniform(0, 2 * np.pi, (3, 3, 2))
    z = rng.uniform(0, np.pi, 3)
    np.testing.assert_allclose(readout(cfg, theta, z), ansatz_probs(theta, z),
                               atol=1e-10)


def test_rx_pi_twice_returns_to_zero():
    # two layers re-upload RX(pi)
    theta = np.zeros((2, 1, 2))
    probs = readout(cfg_for(1, layers=2), theta, [np.pi])
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_probabilities_basics():
    assert readout(cfg_for(1), np.zeros((1, 1, 2)), [0.0])[0] == 1.0
    probs = readout(cfg_for(1), np.zeros((1, 1, 2)), [np.pi / 2])
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 1), st.integers(1, 4),
       st.integers(0, 2**31))
def test_norm_preserved(n, aux, layers, seed):
    cfg = cfg_for(n, layers=layers, aux=aux)
    rng = np.random.default_rng(seed)
    theta = gen.init_params(cfg, rng).theta[0]
    z = gen.sample_noise(cfg, rng, 1)[0, 0]
    probs = readout(cfg, theta, z)
    assert (probs >= 0).all()
    assert abs(probs.sum() - 1.0) < 1e-10


@pytest.mark.parametrize("kind", ["RX", "RY", "RZ"])
def test_four_pi_identity_two_pi_phase(kind):
    # R(phi + 2 pi) = -R(phi) and R(phi + 4 pi) = R(phi); readout sees neither
    cfg = cfg_for(2, layers=2)
    rng = np.random.default_rng(6)
    theta = gen.init_params(cfg, rng).theta[0]
    z = gen.sample_noise(cfg, rng, 1)[0, 0]
    base = readout(cfg, theta, z)
    for turn in (2 * np.pi, 4 * np.pi):
        theta2, z2 = theta.copy(), z.copy()
        if kind == "RX":
            z2[0] += turn
        else:
            theta2[0, 0, "YZ".index(kind[1])] += turn
        np.testing.assert_allclose(readout(cfg, theta2, z2), base, atol=1e-12)
