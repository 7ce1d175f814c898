import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiqgan import generator as gen
from spiqgan.errors import ConfigurationError

from _oracles import (ansatz_probs, central_difference, cnot_unitary,
                      dense_readout, oracle_forward, pair_sums_through_chain,
                      param_shift_oracle, rotation_matrix,
                      single_qubit_unitary)


def cfg_for(n=2, t=1, layers=4, aux=0, **kw):
    return gen.GeneratorConfig(n_feature=n, n_patches=t, n_layers=layers,
                               n_aux=aux, **kw)


def test_param_count_defaults():
    assert gen.init_params(cfg_for(2, 1), np.random.default_rng(0)).count == 16
    assert gen.init_params(cfg_for(10, 30), np.random.default_rng(0)).count == 2400


def test_param_count_identity_with_aux_and_layers():
    cfg = cfg_for(3, 2, layers=5, aux=1)
    params = gen.init_params(cfg, np.random.default_rng(0))
    assert params.count == 2 * 5 * 4 * 2
    assert params.count == cfg.param_count


def test_init_params_deterministic():
    a = gen.init_params(cfg_for(3, 2), np.random.default_rng(9)).theta
    b = gen.init_params(cfg_for(3, 2), np.random.default_rng(9)).theta
    np.testing.assert_array_equal(a, b)
    assert (a >= 0).all() and (a < 2 * np.pi).all()


def test_config_validation():
    with pytest.raises(ConfigurationError):
        cfg_for(0, 1)
    with pytest.raises(ConfigurationError):
        cfg_for(2, 0)
    with pytest.raises(ConfigurationError):
        gen.GeneratorConfig(n_feature=20, n_patches=1, n_aux=5)
    for low, high in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0),
                      (-1e308, 1e308)):
        with pytest.raises(ConfigurationError, match="finite"):
            cfg_for(2, 1, noise_low=low, noise_high=high)
    # 0.0 <= -0.0, but NumPy's uniform reads high - low = -0.0 as negative.
    for low, high in ((1.0, 0.5), (0.0, -0.0)):
        with pytest.raises(ConfigurationError, match=">= \\+0.0"):
            cfg_for(2, 1, noise_low=low, noise_high=high)
    for low, high in ((-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0)):
        cfg = cfg_for(2, 1, noise_low=low, noise_high=high)
        assert not gen.sample_noise(cfg, np.random.default_rng(0), 2).any()


def one_row(theta_patch, z_patch):
    """Batch-of-one arguments for the per-patch kernels."""
    return np.asarray(theta_patch)[None], np.asarray(z_patch, dtype=float)[None]


def test_zero_angles_give_zero_state():
    cfg = cfg_for(3, 1, layers=2)
    probs = gen.batch_patch_probs(cfg, *one_row(np.zeros((2, 3, 2)),
                                                np.zeros(3)))
    assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)


def rotations(q, kind, angles):
    return [single_qubit_unitary(q, k, rotation_matrix(kind, angles[k]))
            for k in range(q)]


def test_single_qubit_circuit_structure():
    # per layer on one qubit: RX(z), then RY, then RZ, and no CNOT
    cfg = cfg_for(1, 1, layers=2)
    th = np.array([[[1.1, 0.4]], [[0.3, 2.0]]])
    z = 0.7
    gates = []
    for layer in range(2):
        gates += [rotation_matrix("RX", z), rotation_matrix("RY", th[layer, 0, 0]),
                  rotation_matrix("RZ", th[layer, 0, 1])]
    probs = gen.batch_patch_probs(cfg, *one_row(th, [z]))[0]
    np.testing.assert_allclose(probs, dense_readout(gates), atol=1e-12)
    # RZ before RY would read differently
    swapped = [gates[i] for i in (0, 2, 1, 3, 5, 4)]
    assert np.abs(probs - dense_readout(swapped)).max() > 1e-3


def test_circuit_gate_count():
    q, layers = 3, 2
    rng = np.random.default_rng(13)
    th = rng.uniform(0, 2 * np.pi, (layers, q, 2))
    z = rng.uniform(0, np.pi, q)
    gates = []
    for layer in range(layers):
        gates += rotations(q, "RX", z)
        for k in range(q):
            gates += [single_qubit_unitary(q, k, rotation_matrix(kind, angle))
                      for kind, angle in zip(("RY", "RZ"), th[layer, k])]
        gates += [cnot_unitary(q, 0, 1), cnot_unitary(q, 1, 2)]
    assert len(gates) == 22  # 2 * (3 RX + 3 RY + 3 RZ + 2 CNOT)
    probs = gen.batch_patch_probs(cfg_for(q, 1, layers=layers),
                                  *one_row(th, z))[0]
    np.testing.assert_allclose(probs, dense_readout(gates), atol=1e-12)
    # one CNOT fewer reads differently
    assert np.abs(probs - dense_readout(gates[:-1])).max() > 1e-3


def test_circuit_shape_mismatch():
    cfg = cfg_for(2, 1, layers=2)
    with pytest.raises(ConfigurationError):
        gen.batch_patch_probs(cfg, *one_row(np.zeros((1, 2, 2)), np.zeros(2)))
    with pytest.raises(ConfigurationError):
        gen.batch_patch_probs(cfg, *one_row(np.zeros((2, 2, 2)), np.zeros(3)))


def test_chain_permutation_matches_cnot_sequence():
    for q in (1, 2, 4, 8):
        idx = np.arange(2**q)
        expected = idx.copy()
        for k in range(q - 1):
            expected = np.where((expected >> k) & 1,
                                expected ^ (1 << (k + 1)), expected)
        # new[i] = old[perm[i]]: basis b is carried to position expected[b]
        perm = gen._chain_permutation(q)
        np.testing.assert_array_equal(perm[expected], idx)


DENSE_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def dense_kron(mats):
    """mats[q-1] x ... x mats[0]: qubit 0 is the least-significant bit."""
    out = np.eye(1)
    for m in mats:
        out = np.kron(m, out)
    return out


@pytest.mark.parametrize("q", range(1, 11))
def test_frame_chain_is_the_conjugated_cnot_chain(q):
    """H^q P H^q, with P the dense CNOT chain, is the permutation that the
    kernel gathers in the Hadamard frame."""
    hadamards = dense_kron([DENSE_H] * q)
    frame = hadamards
    for k in range(q - 1):
        frame = cnot_unitary(q, k, k + 1).real @ frame
    frame = hadamards @ frame
    np.testing.assert_allclose(
        frame, np.eye(2**q)[gen._chain_permutation(q, True)], rtol=0,
        atol=1e-12)


@pytest.mark.parametrize("q", range(1, 11))
def test_frame_chain_splits_at_the_cut(q):
    """The frame chain is F_hi C F_lo: the chains of the top qubits split ..
    q-1 and of the bottom qubits alone, around C = CNOT(split -> split-1),
    its one gate across the cut (none at q=1, which has no bottom half).
    With ``new[i] = old[perm[i]]``, gathering A then B is ``A[B]``."""
    split = q // 2
    idx = np.arange(2**q)
    top, bottom = idx >> split, idx & (2**split - 1)
    f_lo = top << split | gen._chain_permutation(split, True)[bottom]
    f_hi = gen._chain_permutation(q - split, True)[top] << split | bottom
    cross = idx ^ (top & 1) << split - 1 if split else idx
    np.testing.assert_array_equal(f_lo[cross[f_hi]],
                                  gen._chain_permutation(q, True))


def dense_layer_gates(theta, p, layer, q, layers):
    """Patch p's gates on one layer as a dense matrix: H RZ RY H per qubit,
    or on the last layer sqrt(2) RZ RY H (the kernel starts the frame at
    2^{-q/2} times the uniform state, which that factor restores)."""
    gates = [rotation_matrix("RZ", theta[p, layer, k, 1])
             @ rotation_matrix("RY", theta[p, layer, k, 0])
             @ DENSE_H for k in range(q)]
    if layer < layers - 1:
        return dense_kron([DENSE_H @ g for g in gates])
    return dense_kron([np.sqrt(2.0) * g for g in gates])


@pytest.mark.parametrize("q", range(1, 11))
def test_layer_factors_match_dense_gates(monkeypatch, q):
    """Each (patch, layer) pair of Kronecker factors, top x bottom, is the
    dense product over qubits of the layer's gates.  Both ways of building
    them are checked: once per call, and, with one-amplitude blocks that a
    patch's factors outgrow, once per layer."""
    layers = 3
    cfg = cfg_for(q, 2, layers=layers)
    theta = np.random.default_rng(60 + q).uniform(0, 2 * np.pi,
                                                  (2, layers, q, 2))
    z = gen.sample_noise(cfg, np.random.default_rng(0), batch=1)
    blocks = list(gen._blocks(cfg, theta, z))
    monkeypatch.setattr(gen, "_CHUNK_ELEMS", 1)
    blocks += gen._blocks(cfg, theta, z)
    seen = []
    for blk in blocks:
        for i, p in enumerate(range(blk.patches.start, blk.patches.stop)):
            seen.append(p)
            for layer in range(layers):
                hi, lo = blk.factors(layer)
                np.testing.assert_allclose(
                    np.kron(hi[i], lo[i]),
                    dense_layer_gates(theta, p, layer, q, layers), rtol=0,
                    atol=1e-12)
    assert seen == [0, 1, 0, 1]


def counting(monkeypatch, name):
    """Replace generator function ``name`` by a wrapper that counts its
    calls; returns the count, a one-entry list."""
    inner, calls = getattr(gen, name), [0]

    def call(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)
    monkeypatch.setattr(gen, name, call)
    return calls


@pytest.mark.parametrize("q", [1, 2, 3, 6])
def test_each_patch_group_builds_its_own_factors_once(monkeypatch, q):
    """With chunks of twice one patch's factors, five patches fall into
    groups of two, two and one.  The per-qubit gates are computed once per
    call, each group takes the Kronecker products of its own patches' gates
    once (one ``_kron`` per half), and each patch's factors, all from
    distinct angles, are its own dense gates."""
    layers = 3
    cfg = cfg_for(q, 5, layers=layers)
    split = q // 2
    held = layers * (4**(q - split) + 4**split)
    monkeypatch.setattr(gen, "_CHUNK_ELEMS", 2 * held)
    theta = np.random.default_rng(70 + q).uniform(0, 2 * np.pi,
                                                  (5, layers, q, 2))
    assert len(np.unique(theta)) == theta.size
    z = gen.sample_noise(cfg, np.random.default_rng(1), batch=1)
    gates, krons = (counting(monkeypatch, name)
                    for name in ("_layer_gates", "_kron"))
    blocks = list(gen._blocks(cfg, theta, z))
    assert [(blk.patches.start, blk.patches.stop) for blk in blocks] == [
        (0, 2), (2, 4), (4, 5)]
    assert (gates[0], krons[0]) == (1, 2 * len(blocks))
    for blk in blocks:
        for i, p in enumerate(range(blk.patches.start, blk.patches.stop)):
            for layer in range(layers):
                hi, lo = blk.factors(layer)
                np.testing.assert_allclose(
                    np.kron(hi[i], lo[i]),
                    dense_layer_gates(theta, p, layer, q, layers), rtol=0,
                    atol=1e-12)
    # Reading a block's factors builds none.
    assert krons[0] == 2 * len(blocks)


# Angles where the phase table's t = tan(z/4) is exact, tiny or at its
# extremes: signed zeros, subnormals, multiples of 2 pi (at 2 pi, z/4 sits
# next to pi/2 and |t| ~ 1.6e16), large and huge angles, the largest double,
# and 6381956970095103 * 2^799, whose quarter is the double closest to an
# odd multiple of pi/2 (|t| ~ 2.1e18, the largest tan of any double).
PHASE_ANGLES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-20,
                np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 4 * np.pi, -4 * np.pi,
                6 * np.pi, -6 * np.pi, 2e3 * np.pi, -2e6 * np.pi, 1e12,
                -1e12, 1e300, -1e300, np.finfo(float).max,
                6381956970095103 * 2.0**799]


def phase_table(z):
    """The kernel's (e^{-iz/2}, e^{iz/2}) for angles z (S,): a one-qubit
    patch's top half."""
    return gen._phases(np.asarray(z, dtype=float)[None], 0)[0]


def check_phase_table(z):
    minus, plus = phase_table(z)
    assert np.isfinite(plus).all()
    np.testing.assert_array_equal(minus, plus.conj())
    np.testing.assert_allclose(plus.real, np.cos(np.divide(z, 2)), rtol=0,
                               atol=1e-15)
    np.testing.assert_allclose(plus.imag, np.sin(np.divide(z, 2)), rtol=0,
                               atol=1e-15)
    assert np.abs(np.square(plus.real) + np.square(plus.imag) - 1).max() \
        <= 1e-15


def test_phase_table_matches_cos_and_sin():
    rng = np.random.default_rng(80)
    check_phase_table(PHASE_ANGLES)
    check_phase_table(rng.uniform(-4 * np.pi, 4 * np.pi, 100_000))
    check_phase_table(rng.uniform(-1e15, 1e15, 10_000))
    finite = rng.integers(-2**63, 2**63 - 1, 100_000).view(float)
    check_phase_table(finite[np.isfinite(finite)])


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_phase_table_is_finite_for_every_finite_angle(z):
    check_phase_table([z, -z])


def patch_marginals(cfg, theta_patch, z_patch):
    """forward_batch of a one-patch generator on one sample."""
    params = gen.GeneratorParams(np.asarray(theta_patch, dtype=float)[None])
    return gen.forward_batch(cfg, params,
                             np.asarray(z_patch, dtype=float)[None, None])[0]


def test_patch_marginals_examples():
    cfg = cfg_for(2, 1, layers=1)
    marg = patch_marginals(cfg, np.zeros((1, 2, 2)), np.zeros(2))
    np.testing.assert_allclose(marg, [0.0, 0.0], atol=1e-12)
    single = cfg_for(1, 1, layers=1)
    marg = patch_marginals(single, np.zeros((1, 1, 2)), [np.pi])
    assert marg[0] == pytest.approx(1.0)


def test_patch_marginals_match_probability_sums():
    cfg = cfg_for(3, 1, layers=2)
    rng = np.random.default_rng(4)
    th = rng.uniform(0, 2 * np.pi, (2, 3, 2))
    z = rng.uniform(0, np.pi, 3)
    probs = gen.batch_patch_probs(cfg, *one_row(th, z))[0]
    marg = patch_marginals(cfg, th, z)
    for k in range(3):
        expected = sum(p for b, p in enumerate(probs) if (b >> k) & 1)
        assert marg[k] == pytest.approx(expected, abs=1e-12)


def test_forward_single_patch_equals_patch_marginals():
    cfg = cfg_for(2, 1)
    rng = np.random.default_rng(1)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=1)
    np.testing.assert_allclose(
        gen.forward_batch(cfg, params, z)[0],
        oracle_forward(params.theta, z[0], 2), atol=1e-12)


def test_forward_patch_independence_and_layout():
    cfg = cfg_for(2, 2)
    rng = np.random.default_rng(2)
    params = gen.init_params(cfg, rng)
    params.theta[1] = 0.0
    z = gen.sample_noise(cfg, rng, batch=1)
    z[0, 1] = 0.0
    out = gen.forward_batch(cfg, params, z)[0]
    assert out.shape == (4,)
    np.testing.assert_allclose(out[2:], [0.0, 0.0], atol=1e-12)
    assert (out[:2] > 0).any()


def test_forward_shape():
    cfg = cfg_for(2, 3)
    rng = np.random.default_rng(3)
    params = gen.init_params(cfg, rng)
    out = gen.forward_batch(cfg, params, gen.sample_noise(cfg, rng, batch=5))
    assert out.shape == (5, 6)
    assert ((out >= 0) & (out <= 1)).all()


def test_sample_deterministic_cases():
    cfg = cfg_for(2, 1)
    params = gen.GeneratorParams(np.zeros((1, 4, 2, 2)))
    uniforms = np.random.default_rng(0).random((3, 1))
    out = gen.sample_batch(cfg, params, np.zeros((3, 1, 2)), uniforms)
    np.testing.assert_array_equal(out, np.zeros((3, 2, 1)))

    single = cfg_for(1, 1, layers=1)
    params = gen.GeneratorParams(np.zeros((1, 1, 1, 2)))
    out = gen.sample_batch(single, params, np.full((3, 1, 1), np.pi),
                           uniforms)
    np.testing.assert_array_equal(out, np.ones((3, 1, 1)))


def test_sample_deterministic_given_seeded_rng():
    cfg = cfg_for(3, 2)
    rng = np.random.default_rng(14)
    params = gen.init_params(cfg, rng)
    noise = gen.sample_noise(cfg, rng, batch=20)
    a = gen.sample_batch(cfg, params, noise,
                         np.random.default_rng(99).random((20, 2)))
    b = gen.sample_batch(cfg, params, noise,
                         np.random.default_rng(99).random((20, 2)))
    np.testing.assert_array_equal(a, b)


def test_sample_frequencies_match_exact_distribution():
    cfg = cfg_for(2, 1)
    rng = np.random.default_rng(8)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, 1)[0]
    probs = ansatz_probs(params.theta[0], z[0])
    draws = 100_000
    noise = np.broadcast_to(z, (draws,) + z.shape)
    uniforms = np.random.default_rng(123).random((draws, 1))
    bits = gen.sample_batch(cfg, params, noise, uniforms)[:, :, 0]
    counts = np.bincount(bits[:, 0] + 2 * bits[:, 1], minlength=4)
    freq = counts / draws
    sigma = np.sqrt(probs * (1 - probs) / draws)
    assert (np.abs(freq - probs) <= 3 * sigma + 1e-12).all()


def test_batch_kernels_match_single_path():
    cfg = cfg_for(3, 2, layers=2, aux=1)
    rng = np.random.default_rng(5)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=6)
    batch = gen.forward_batch(cfg, params, z)
    for j in range(6):
        np.testing.assert_allclose(
            batch[j], oracle_forward(params.theta, z[j], 3), atol=1e-12)


def test_chunked_probs_match_oracle(monkeypatch):
    cfg = cfg_for(2, 1, layers=2, aux=1)
    rng = np.random.default_rng(12)
    thetas = rng.uniform(0, 2 * np.pi, (5, 2, 3, 2))
    z = rng.uniform(0, np.pi, (5, 3))
    monkeypatch.setattr(gen, "_CHUNK_ELEMS", 16)  # two 8-amplitude rows
    probs = gen.batch_patch_probs(cfg, thetas, z)
    for j in range(5):
        np.testing.assert_allclose(probs[j], ansatz_probs(thetas[j], z[j]),
                                   atol=1e-12)


# (qubits, aux qubits, layers) for every width from 1 to 10: odd widths
# split into Kronecker factors of unequal size, and every width from 6 up
# has a layer after the first.  The ids keep the flag of the removed
# per-layer noise option, so each still names the case it named before.
WIDTHS = [pytest.param(q, aux, layers, id=f"{q}-{aux}-{layers}-{old}")
          for q, aux, layers, old in [
              (1, 0, 1, False), (2, 1, 4, True), (3, 0, 3, False),
              (4, 1, 2, True), (5, 0, 1, True), (6, 1, 4, False),
              (7, 0, 3, True), (8, 1, 2, False), (9, 0, 4, True),
              (10, 1, 3, False)]]


@pytest.mark.parametrize("q, aux, layers", WIDTHS)
def test_batch_probs_match_dense_oracle_at_every_width(q, aux, layers):
    cfg = cfg_for(q - aux, 1, layers=layers, aux=aux)
    rng = np.random.default_rng(40 + q)
    thetas = rng.uniform(0, 2 * np.pi, (2, layers, q, 2))
    z = rng.uniform(0, np.pi, (2, q))
    probs = gen.batch_patch_probs(cfg, thetas, z)
    for j in range(2):
        np.testing.assert_allclose(probs[j], ansatz_probs(thetas[j], z[j]),
                                   rtol=0, atol=1e-10)


# (features, aux qubits, layers) where the rows leave the product form at
# different layers: q=4 and q=6 after layer 0 (narrower than the factored
# prefix), q=7 after layer 1 of 2 and after layer 2 of 4, q=8 after layer 3
# of 6 or 8, and q=7 after layer 2 of 3, with one of its qubits auxiliary.
# The ids keep the flag of the removed per-layer noise option, so each
# still names the case it named before.
HANDOVERS = [pytest.param(n, aux, layers, id=f"{n}-{aux}-{layers}-False")
             for n, aux, layers in [(4, 0, 4), (6, 0, 4), (7, 0, 2),
                                    (7, 0, 4), (8, 0, 6), (8, 0, 8),
                                    (6, 1, 3)]]


@pytest.mark.parametrize("n, aux, layers", HANDOVERS)
def test_factored_prefix_matches_oracles(n, aux, layers):
    """Probabilities match the dense unitary, draws follow the inverse-CDF
    rule and patch laws the oracle mean; the gradient of the first patch
    matches the shift-rule oracle."""
    cfg = cfg_for(n, 2, layers=layers, aux=aux)
    rng = np.random.default_rng(80 + n + layers)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=2)
    uniforms = rng.random((2, 2))
    upstream = rng.normal(size=(2, cfg.output_dim))
    exact = [[ansatz_probs(params.theta[p], z[j, p]) for p in range(2)]
             for j in range(2)]
    probs = gen.batch_patch_probs(cfg, params.theta, z[0])
    np.testing.assert_allclose(probs, exact[0], rtol=0, atol=1e-10)
    sampled = gen.sample_batch(cfg, params, z, uniforms)
    laws = gen.patch_distributions(cfg, params, z)
    for p in range(2):
        for j in range(2):
            basis = min(int(np.searchsorted(np.cumsum(exact[j][p]),
                                            uniforms[j, p], side="right")),
                        2**cfg.n_qubits - 1)
            np.testing.assert_array_equal(sampled[j, :, p],
                                          (basis >> np.arange(n)) & 1)
        mean = (exact[0][p] + exact[1][p]) / 2
        np.testing.assert_allclose(
            laws[p], mean.reshape(2**aux, 2**n).sum(axis=0), rtol=0,
            atol=1e-10)
    one = dataclasses.replace(cfg, n_patches=1)
    theta, z, upstream = params.theta[:1], z[:1, :1], upstream[:1, :n]
    np.testing.assert_allclose(
        gen.param_shift_batch(one, gen.GeneratorParams(theta), z, upstream),
        param_shift_oracle(theta, z, upstream), rtol=0, atol=1e-10)


# Kernel chunk sizes, in amplitudes, for a q=3 (two features, one aux), t=2
# batch of five samples: the blocks, as (patches, samples), that forward
# and sampling walk and that the gradient walks too, since its seven slots
# per row (each layer's psi and five more) stay within ``_SCRATCH_CHUNKS``.
# At 8 every block is one row; at 32 a block holds four samples of one
# patch, so the last block of each patch is short; at 64 a block holds a
# patch's whole batch; at 800 one block holds both patches' whole batch.
CHUNK_LAYOUTS = {8: [(1, 1)] * 10,
                 32: [(1, 4), (1, 1)] * 2,
                 64: [(1, 5)] * 2,
                 800: [(2, 5)]}


@pytest.mark.parametrize("chunk", sorted(CHUNK_LAYOUTS))
def test_sample_blocks_match_oracles(monkeypatch, chunk):
    cfg = cfg_for(2, 2, layers=2, aux=1)
    rng = np.random.default_rng(21)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=5)
    uniforms = rng.random((5, 2))
    upstream = rng.normal(size=(5, cfg.output_dim))
    monkeypatch.setattr(gen, "_CHUNK_ELEMS", chunk)
    layout = tuple([(blk.patches.stop - blk.patches.start,
                     blk.samples.stop - blk.samples.start)
                    for blk in gen._blocks(cfg, params.theta, z, slots)]
                   for slots in (3, gen._kept_slots(cfg)))
    assert layout == (CHUNK_LAYOUTS[chunk],) * 2

    forward = gen.forward_batch(cfg, params, z)
    sampled = gen.sample_batch(cfg, params, z, uniforms)
    for j in range(5):
        np.testing.assert_allclose(
            forward[j], oracle_forward(params.theta, z[j], 2), atol=1e-12)
        for p in range(2):
            cum = np.cumsum(ansatz_probs(params.theta[p], z[j, p]))
            basis = min(int(np.searchsorted(cum, uniforms[j, p],
                                            side="right")), 7)
            np.testing.assert_array_equal(sampled[j, :, p],
                                          [basis & 1, (basis >> 1) & 1])
    grad = gen.param_shift_batch(cfg, params, z, upstream)
    np.testing.assert_allclose(grad, loss_fd(cfg, params, z, upstream),
                               rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(
        grad, param_shift_oracle(params.theta, z, upstream), rtol=0,
        atol=1e-10)


# (features, aux qubits, timesteps) at q=3 and q=8, with kernel chunks of
# 2, 4 or 12 rows, for forward and gradient blocks alike.  With t=3 and two
# samples, blocks hold one sample of one patch, a patch's whole batch, or
# (at 12 rows) two or three patches, so a row whose patch were counted
# from its block's start would run another patch's gates, and a per-patch
# sum that mixed blocks up would mix patches.  At t*q = 8
# consecutive samples' noise lies 64 B apart, a stride at which NumPy 2.4's
# ``np.negative(x, out=y)`` into a strided ``y`` has been seen to return
# wrong values.  The ids keep the flag of the removed per-layer noise
# option, so each still names the case it named before.
@pytest.mark.parametrize("forward_rows", [2, 4, 12])
@pytest.mark.parametrize("n, aux, t", [
    pytest.param(2, 1, 3, id="2-1-True"),
    pytest.param(8, 0, 3, id="8-0-False"),
    pytest.param(8, 0, 1, id="8-0-False-t1"),
    pytest.param(2, 0, 4, id="2-0-False-t4"),
])
def test_rows_keep_their_patch_table_across_chunks(monkeypatch, n, aux, t,
                                                   forward_rows):
    cfg = cfg_for(n, t, layers=2, aux=aux)
    rng = np.random.default_rng(23)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=2)
    uniforms = rng.random((2, t))
    upstream = rng.normal(size=(2, cfg.output_dim))
    monkeypatch.setattr(gen, "_CHUNK_ELEMS", forward_rows * 2**cfg.n_qubits)
    forward = gen.forward_batch(cfg, params, z)
    sampled = gen.sample_batch(cfg, params, z, uniforms)
    for j in range(2):
        np.testing.assert_allclose(
            forward[j], oracle_forward(params.theta, z[j], n), rtol=0,
            atol=1e-10)
        for p in range(t):
            cum = np.cumsum(ansatz_probs(params.theta[p], z[j, p]))
            basis = min(int(np.searchsorted(cum, uniforms[j, p],
                                            side="right")), len(cum) - 1)
            np.testing.assert_array_equal(sampled[j, :, p],
                                          (basis >> np.arange(n)) & 1)
    np.testing.assert_allclose(
        gen.param_shift_batch(cfg, params, z, upstream),
        param_shift_oracle(params.theta, z, upstream), rtol=0, atol=1e-10)
    laws = gen.patch_distributions(cfg, params, z)
    for p in range(t):
        mean = np.mean([ansatz_probs(params.theta[p], z[j, p])
                        for j in range(2)], axis=0)
        np.testing.assert_allclose(
            laws[p], mean.reshape(2**aux, 2**n).sum(axis=0), rtol=0,
            atol=1e-10)


# Sampling blocks on both sides of the readout's shape rule: at q=2, blocks
# of 512 samples take the running sum and the batch's last, short block
# ``np.cumsum``; at q=8 every block has 128 samples and takes ``np.cumsum``.
# At q=4 two aux qubits lie above the features, and at q=9 and 10 the
# states need 16 bits; at n=9 feature bit 8 lies in their upper byte.  The
# ids of the aux-free cases name them as before the aux field.
@pytest.mark.parametrize("n, aux, t, batch, block_samples, running", [
    pytest.param(2, 0, 3, 1100, 512, True, id="2-3-1100-512-True"),
    pytest.param(8, 0, 2, 300, 128, False, id="8-2-300-128-False"),
    (2, 2, 3, 700, 512, True), (9, 0, 2, 200, 64, False),
    (8, 2, 2, 100, 32, False)])
def test_sample_batch_is_the_inverse_cdf_of_the_kernel_probs(
        monkeypatch, n, aux, t, batch, block_samples, running):
    """Every draw is bit for bit the first state whose cumulative kernel
    probability, as ``np.cumsum`` adds it up, exceeds the uniform, also for
    uniforms equal to a cumulative value, 0, or past the last one (which
    read the last state)."""
    cfg = cfg_for(n, t, aux=aux)
    q = cfg.n_qubits
    rng = np.random.default_rng(31)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=batch)
    monkeypatch.setattr(gen, "_CHUNK_ELEMS", block_samples * 2**q)
    blocks = list(gen._blocks(cfg, params.theta, z))
    sizes = [blk.samples.stop - blk.samples.start for blk in blocks]
    assert (max(sizes) >= gen._RUNNING_SUM_SAMPLES) == running
    assert min(sizes) < gen._RUNNING_SUM_SAMPLES
    cum = np.empty((batch, t, 2**q))
    for blk in blocks:
        cum[blk.samples, blk.patches] = np.cumsum(
            gen._probs(cfg, blk), axis=1).transpose(2, 0, 1)
    picks = rng.integers(0, 2**q, size=(batch, t, 1))
    uniforms = np.take_along_axis(cum, picks, axis=2)[..., 0]
    uniforms[::4] = rng.random((len(uniforms[::4]), t))
    uniforms[1::4, 0] = 0.0
    uniforms[2::4, -1] = np.nextafter(cum[2::4, -1, -1], 2.0)
    sampled = gen.sample_batch(cfg, params, z, uniforms)
    assert sampled.dtype == np.uint8
    assert sampled.shape == (batch, n, t)
    basis = np.array([[np.searchsorted(cum[j, p], uniforms[j, p],
                                       side="right") for p in range(t)]
                      for j in range(batch)])
    assert (basis[2::4, -1] == 2**q).all()
    basis = np.minimum(basis, 2**q - 1)
    np.testing.assert_array_equal(
        sampled, (basis[:, None, :] >> np.arange(n)[:, None]) & 1)


# (features, aux qubits) from one to five qubits: across ``_DENSE_QUBITS``
# by the features alone (1-5 features) and with one or two aux qubits.
NARROW = [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (1, 1), (3, 1), (4, 1),
          (1, 2), (2, 2), (3, 2)]


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("layers", [1, 2, 4])
@pytest.mark.parametrize("n, aux", NARROW)
def test_narrow_circuits_match_dense_oracle(monkeypatch, n, aux, layers,
                                            rows):
    """Up to ``_DENSE_QUBITS`` qubits the rows run each layer as one dense
    operator, with one layer (the first also the last) or more; past it
    they do not.  Either way every operator comes from the groups'
    Kronecker factors: each ``_layer_kron`` takes two ``_kron`` and no
    other caller does.  Marginals and patch laws equal the dense unitary's
    to 1e-12 and every draw follows the inverse-CDF rule, in whole-batch
    blocks and, with ``rows`` set, in blocks of three samples and two."""
    cfg = cfg_for(n, 2, layers=layers, aux=aux)
    q = cfg.n_qubits
    rng = np.random.default_rng(100 + 10 * q + layers + aux)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=5)
    uniforms = rng.random((5, 2))
    if rows:
        monkeypatch.setattr(gen, "_CHUNK_ELEMS", rows * 2**q)
        assert [blk.samples.stop - blk.samples.start
                for blk in gen._blocks(cfg, params.theta, z)] == [3, 2] * 2
    krons = counting(monkeypatch, "_kron")
    factored = counting(monkeypatch, "_layer_kron")
    forward = gen.forward_batch(cfg, params, z)
    sampled = gen.sample_batch(cfg, params, z, uniforms)
    laws = gen.patch_distributions(cfg, params, z)
    assert factored[0] > 0
    assert krons[0] == 2 * factored[0]
    for p in range(2):
        exact = [ansatz_probs(params.theta[p], z[j, p]) for j in range(5)]
        for j in range(5):
            basis = min(int(np.searchsorted(np.cumsum(exact[j]),
                                            uniforms[j, p], side="right")),
                        2**q - 1)
            np.testing.assert_array_equal(sampled[j, :, p],
                                          (basis >> np.arange(n)) & 1)
        np.testing.assert_allclose(
            laws[p], np.mean(exact, axis=0).reshape(2**aux, 2**n).sum(axis=0),
            rtol=0, atol=1e-12)
    for j in range(5):
        np.testing.assert_allclose(
            forward[j], oracle_forward(params.theta, z[j], n), rtol=0,
            atol=1e-12)


# (features, aux qubits, layers, rows): every case in whole-batch blocks
# and, with ``rows`` set, in chunks of that many rows.
@pytest.mark.parametrize("n, aux, layers, rows", [
    pytest.param(n, aux, layers, rows,
                 id=f"{n}-{aux}-{layers}" + (f"-rows{rows}" if rows else ""))
    for n, aux in [(1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (3, 1), (2, 2)]
    for layers in (1, 2, 4, 8) for rows in (None, 4)])
def test_adjoint_of_narrow_circuits_matches_shift_rule_oracle(
        monkeypatch, n, aux, layers, rows):
    """The gradient of circuits up to ``_DENSE_QUBITS`` qubits stays the
    shift-rule oracle's to 1e-10, in whole-batch blocks and, with chunks of
    ``rows`` rows, in one block per patch or, at eight layers, in blocks of
    two samples and one."""
    cfg = cfg_for(n, 2, layers=layers, aux=aux)
    q = cfg.n_qubits
    rng = np.random.default_rng(120 + 10 * n + layers + aux)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=3)
    if rows:
        monkeypatch.setattr(gen, "_CHUNK_ELEMS", rows * 2**q)
        assert [blk.samples.stop - blk.samples.start for blk in gen._blocks(
            cfg, params.theta, z, gen._kept_slots(cfg))] == (
                [2, 1] * 2 if layers == 8 else [3] * 2)
    upstream = rng.normal(size=(3, cfg.output_dim))
    grad = gen.param_shift_batch(cfg, params, z, upstream)
    np.testing.assert_allclose(
        grad, param_shift_oracle(params.theta, z, upstream), rtol=0,
        atol=1e-10)


@pytest.mark.parametrize("rows", [None, 4])
@pytest.mark.parametrize("layers", [1, 3, 8])
@pytest.mark.parametrize("n, aux", [(1, 0), (2, 0), (3, 0), (4, 0), (2, 1),
                                    (1, 3)])
def test_dense_adjoint_equals_the_factored_one(monkeypatch, n, aux, layers,
                                               rows):
    """Up to ``_DENSE_QUBITS`` qubits the gradient runs on the dense layer
    operators; with the dense regime switched off it runs on the Kronecker
    factors.  Both give the same gradient to 1e-12."""
    cfg = cfg_for(n, 3, layers=layers, aux=aux)
    rng = np.random.default_rng(140 + 10 * n + layers + aux)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=5)
    upstream = rng.normal(size=(5, cfg.output_dim))
    if rows:
        monkeypatch.setattr(gen, "_CHUNK_ELEMS", rows * 2**cfg.n_qubits)
    dense = gen.param_shift_batch(cfg, params, z, upstream)
    monkeypatch.setattr(gen, "_DENSE_QUBITS", 0)
    np.testing.assert_allclose(
        dense, gen.param_shift_batch(cfg, params, z, upstream), rtol=0,
        atol=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_narrow_adjoint_takes_no_factor_path(monkeypatch, q):
    """Up to ``_DENSE_QUBITS`` qubits the gradient takes its pair sums from
    Gram matrices through ``_gram_table`` and applies its layers as dense
    operators: no ``_pair_sums`` or ``_gates`` call.  At five qubits it
    walks the Kronecker factors and calls both."""
    cfg = cfg_for(q, 2, layers=3)
    rng = np.random.default_rng(160 + q)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=4)
    upstream = rng.normal(size=(4, cfg.output_dim))
    pairs, gates = (counting(monkeypatch, name)
                    for name in ("_pair_sums", "_gates"))
    gen.param_shift_batch(cfg, params, z, upstream)
    dense = q <= gen._DENSE_QUBITS
    assert dense == (q < 5)
    assert (pairs[0] == 0) == dense and (gates[0] == 0) == dense


@pytest.mark.parametrize("layers", [1, 4])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_kept_forward_rows_equal_the_plain_ones(q, layers):
    """``_forward`` with ``keep`` writes each layer's rows to its own slot
    and returns its dense operators, yet its output rows are those of the
    plain pass bit for bit, and its last kept slot holds them."""
    cfg = cfg_for(q, 3, layers=layers)
    rng = np.random.default_rng(180 + q + layers)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=6)
    [plain] = gen._blocks(cfg, params.theta, z)
    [kept] = gen._blocks(cfg, params.theta, z, gen._kept_slots(cfg))
    rows, _, ops = gen._forward(cfg, plain)
    kept_rows, _, kept_ops = gen._forward(cfg, kept, keep=True)
    assert ops == [] and len(kept_ops) == layers
    assert np.shares_memory(kept_rows, kept.work[4 + layers])
    np.testing.assert_array_equal(kept_rows, rows)


@pytest.mark.parametrize("frame", [False, True])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_gram_table_matches_pair_sums_through_the_chain(q, frame):
    """``_gram_table`` maps the Gram matrix of two row stacks, given after
    a layer's chain, to each qubit's pair sums over the rows before it, as
    explicit loops over the undone chain give them; the frame's table also
    takes s <- H s H / 2."""
    rng = np.random.default_rng(200 + q + 10 * frame)
    bra, psi = rng.normal(size=(2, 2**q, 3, 2)) @ [1, 1j]
    sums = ((bra @ psi.T).reshape(-1) @ gen._gram_table(q, frame)).reshape(
        q, 2, 2)
    expected = pair_sums_through_chain(bra, psi, frame)
    if frame:
        hadamard = np.array([[1, 1], [1, -1]])
        expected = hadamard @ expected @ hadamard / 2
    np.testing.assert_allclose(sums, expected, rtol=0, atol=1e-13)


# (call, n, t, batch, layers).  At 32 layers the adjoint keeps 28 dense
# layers of psi per row, so a block that held as many samples as at 4
# layers would pass the bound.
@pytest.mark.parametrize("call, n, t, batch, layers", [
    pytest.param(*case, 4, id="-".join(map(str, case))) for case in [
        ("sample_batch", 2, 30, 25_000),
        ("sample_batch", 10, 2, 1000),
        ("sample_batch", 10, 30, 1),
        ("param_shift_batch", 2, 30, 32),
        ("param_shift_batch", 4, 30, 2000),
        ("param_shift_batch", 8, 2, 32),
        ("param_shift_batch", 10, 2, 32),
        ("param_shift_batch", 10, 30, 32),
        ("param_shift_batch", 10, 30, 1)]
] + [pytest.param("param_shift_batch", 10, 2, 32, 32,
                  id="param_shift_batch-10-2-32-layers32")])
def test_kernel_memory_stays_chunk_sized(call, n, t, batch, layers):
    """Peak allocation is the output plus a few chunks, never a stacked
    copy of angles, states or probabilities for the whole batch, nor, at
    batch 1, the factors of every patch or a Gram product per row, nor
    kept layers of psi beyond the chunk budget."""
    cfg = cfg_for(n, t, layers=layers)
    rng = np.random.default_rng(22)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=batch)
    extra = (rng.random((batch, t)) if call == "sample_batch"
             else rng.normal(size=(batch, cfg.output_dim)))
    tracemalloc.start()
    try:
        out = getattr(gen, call)(cfg, params, z, extra)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 16 * gen._CHUNK_ELEMS * 16


@pytest.mark.parametrize("q, layers, t", [(2, 4, 40), (8, 4, 40),
                                          (10, 4, 40), (10, 8, 40),
                                          (13, 8, 1)])
def test_block_factors_fit_the_chunk(q, layers, t):
    """A block of several patches fits their rows in ``_CHUNK_ELEMS``
    amplitudes and so do all their factors; a patch whose factors alone
    outgrow that never holds them all at once, one layer's at a time."""
    cfg = cfg_for(q, t, layers=layers)
    rng = np.random.default_rng(q)
    theta = gen.init_params(cfg, rng).theta
    z = gen.sample_noise(cfg, rng, batch=1)
    stack = 0
    tracemalloc.start()
    try:
        for blk in gen._blocks(cfg, theta, z):
            patches = blk.patches.stop - blk.patches.start
            factors = 0
            for layer in range(layers):
                factors += sum(f.size for f in blk.factors(layer))
            stack = max(stack, factors // patches)
            assert patches == 1 or max(
                patches * 2**q, factors) <= gen._CHUNK_ELEMS
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if stack > gen._CHUNK_ELEMS:
        assert peak < 16 * stack


@pytest.mark.parametrize("call", ["forward_batch", "sample_batch",
                                  "patch_distributions", "param_shift_batch"])
def test_entry_points_check_the_noise(call):
    """A noise batch must hold one angle per qubit of each patch: one patch
    short, or a per-layer axis, is refused in one line."""
    cfg = cfg_for(2, 3)
    rng = np.random.default_rng(15)
    params = gen.init_params(cfg, rng)
    extra = {"sample_batch": (rng.random((4, 3)),),
             "param_shift_batch": (rng.normal(size=(4, 6)),)}.get(call, ())
    for shape in ((4, 2, 2), (4, 3, 4, 2)):
        with pytest.raises(ConfigurationError,
                           match=rf"^noise batch has shape \({shape[0]}, "):
            getattr(gen, call)(cfg, params, rng.uniform(0, np.pi, shape),
                               *extra)


# (qubits, layers): one layer and eight, below the factored prefix and
# inside it, where q=7's eight layers keep their first two as Schmidt terms
# and the other six as dense rows.  With chunks of four rows, the eight
# layers' slots pass ``_SCRATCH_CHUNKS``, so their gradient blocks hold two
# of the three samples where forward blocks hold all three.
@pytest.mark.parametrize("q, layers", [(5, 1), (5, 8), (7, 1), (7, 8)])
def test_adjoint_keeps_every_layer(monkeypatch, q, layers):
    cfg = cfg_for(q, 1, layers=layers)
    monkeypatch.setattr(gen, "_CHUNK_ELEMS", 4 * 2**q)
    rng = np.random.default_rng(90 + q + layers)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=3)
    slots = gen._kept_slots(cfg)
    assert [blk.samples.stop - blk.samples.start for blk in gen._blocks(
        cfg, params.theta, z, slots)] == ([2, 1] if layers == 8 else [3])
    upstream = rng.normal(size=(3, cfg.output_dim))
    np.testing.assert_allclose(
        gen.param_shift_batch(cfg, params, z, upstream),
        param_shift_oracle(params.theta, z, upstream), rtol=0, atol=1e-10)


def test_param_shift_zero_upstream():
    cfg = cfg_for(2, 2)
    rng = np.random.default_rng(7)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=1)
    grad = gen.param_shift_batch(cfg, params, z, np.zeros((1, 4)))
    np.testing.assert_array_equal(grad, np.zeros_like(params.theta))


def loss_fd(cfg, params, z, upstream):
    """Central differences of sum_j forward_batch(theta)[j] . upstream[j]."""
    def loss(theta):
        out = gen.forward_batch(cfg, gen.GeneratorParams(theta), z)
        return float((out * upstream).sum())
    return central_difference(loss, params.theta)


def test_param_shift_single_qubit_analytic():
    cfg = cfg_for(1, 1, layers=1)
    params = gen.GeneratorParams(np.zeros((1, 1, 1, 2)))
    z = np.zeros((1, 1, 1))
    grad = gen.param_shift_batch(cfg, params, z, np.ones((1, 1)))
    fd = loss_fd(cfg, params, z, np.ones((1, 1)))
    np.testing.assert_allclose(grad, fd, atol=1e-6)


@pytest.mark.parametrize("seed", range(20))
def test_param_shift_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    cfg = cfg_for(int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                  layers=int(rng.integers(1, 4)))
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=1)
    upstream = rng.normal(size=(1, cfg.output_dim))
    grad = gen.param_shift_batch(cfg, params, z, upstream)
    fd = loss_fd(cfg, params, z, upstream)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


def random_instance(rng, max_qubits=6, min_qubits=1, min_layers=1):
    """Generator config, angles, noise and upstream of a random batch:
    ``min_qubits`` to ``max_qubits`` qubits with 0-1 of them auxiliary,
    ``min_layers`` to 4 layers, 1-3 patches and 1-4 samples."""
    q = int(rng.integers(min_qubits, max_qubits + 1))
    aux = int(rng.integers(0, 2)) if q > 1 else 0
    cfg = cfg_for(q - aux, int(rng.integers(1, 4)),
                  layers=int(rng.integers(min_layers, 5)), aux=aux)
    params = gen.init_params(cfg, rng)
    batch = int(rng.integers(1, 5))
    z = gen.sample_noise(cfg, rng, batch=batch)
    return cfg, params, z, rng.normal(size=(batch, cfg.output_dim))


def test_param_shift_matches_shift_rule_oracle():
    """The adjoint sweep gives the exact parameter-shift gradient, on 40
    instances up to 6 qubits and one each at 6, 7 and 8 qubits with a
    layer after the first."""
    rng = np.random.default_rng(31)
    instances = [random_instance(rng) for _ in range(40)]
    instances += [random_instance(rng, max_qubits=q, min_qubits=q,
                                  min_layers=2) for q in (6, 7, 8)]
    for cfg, params, z, upstream in instances:
        np.testing.assert_allclose(
            gen.param_shift_batch(cfg, params, z, upstream),
            param_shift_oracle(params.theta, z, upstream), rtol=0,
            atol=1e-10)


# (qubits, aux qubits, angles): the grid's widest cells, two layers each,
# checked on a few angles because the dense shift-rule oracle takes about a
# second per angle at q=10.  The ids keep the flag of the removed per-layer
# noise option, so each still names the case it named before.
WIDEST = [pytest.param(9, 1, [(0, 0, 0, 0), (0, 0, 4, 1), (0, 1, 3, 0)],
                       id="9-1-True-angles0"),
          pytest.param(10, 0, [(0, 0, 4, 1), (0, 1, 0, 0)],
                       id="10-0-False-angles1")]


@pytest.mark.parametrize("q, aux, angles", WIDEST)
def test_param_shift_matches_shift_rule_oracle_at_widest_cells(q, aux,
                                                               angles):
    cfg = cfg_for(q - aux, 1, layers=2, aux=aux)
    rng = np.random.default_rng(70 + q)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=1)
    upstream = rng.normal(size=(1, cfg.output_dim))
    grad = gen.param_shift_batch(cfg, params, z, upstream)
    oracle = param_shift_oracle(params.theta, z, upstream, angles=angles)
    picked = tuple(np.array(angles).T)
    assert np.abs(oracle[picked]).min() > 1e-3
    np.testing.assert_allclose(grad[picked], oracle[picked], rtol=0,
                               atol=1e-10)


def test_inert_angles_have_zero_gradient():
    """The last layer's RZ angles, and its RY angles on auxiliary qubits,
    act just before the CNOT chain and the feature-bit readout, so they
    cannot move any output."""
    rng = np.random.default_rng(32)
    for _ in range(40):
        cfg, params, z, upstream = random_instance(rng, max_qubits=8)
        last = gen.param_shift_batch(cfg, params, z, upstream)[:, -1]
        assert np.abs(last[:, :, 1]).max() <= 1e-14
        assert np.abs(last[:, cfg.n_feature:, 0]).max(initial=0.0) <= 1e-14


def test_param_shift_batch_sums_over_samples():
    cfg = cfg_for(2, 2, layers=2)
    rng = np.random.default_rng(10)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=3)
    upstream = rng.normal(size=(3, cfg.output_dim))
    batch_grad = gen.param_shift_batch(cfg, params, z, upstream)
    summed = sum(gen.param_shift_batch(cfg, params, z[j:j + 1],
                                       upstream[j:j + 1])
                 for j in range(3))
    np.testing.assert_allclose(batch_grad, summed, atol=1e-12)


def test_sample_batch_matches_inverse_cdf_rule():
    cfg = cfg_for(2, 1)
    rng = np.random.default_rng(11)
    params = gen.init_params(cfg, rng)
    z = gen.sample_noise(cfg, rng, batch=64)
    uniforms = rng.random((64, 1))
    sampled = gen.sample_batch(cfg, params, z, uniforms)
    for j in range(64):
        probs = ansatz_probs(params.theta[0], z[j, 0])
        basis = int(np.searchsorted(np.cumsum(probs), uniforms[j, 0],
                                    side="right"))
        basis = min(basis, 3)
        np.testing.assert_array_equal(sampled[j, :, 0],
                                      [(basis >> 0) & 1, (basis >> 1) & 1])
