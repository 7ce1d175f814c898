import copy

import numpy as np
import pytest

from spiqgan import critic as cr
from spiqgan import fileio
from spiqgan import generator as gen
from spiqgan import spikedata
from spiqgan import training as tr
from spiqgan.errors import CheckpointFormatError, ConfigurationError
from spiqgan.spikedata import SpikeMatrix

from _oracles import ansatz_probs, central_difference, state_index


def tiny_data(seed=0, n=3, cols=400):
    rng = np.random.default_rng(seed)
    return SpikeMatrix((rng.random((n, cols)) < 0.3).astype(int))


def make_state(seed=0, n=2, t=1, layers=2, **train_kw):
    gen_cfg = gen.GeneratorConfig(n_feature=n, n_patches=t, n_layers=layers)
    train_cfg = tr.TrainConfig(total_gen_steps=5, seed=seed, batch_size=4,
                               **train_kw)
    return tr.init_trainer(train_cfg, gen_cfg, spikedata.first_n_spec(n, t),
                           0.02)


# --- losses -----------------------------------------------------------------

def test_critic_loss_examples():
    v = np.array([0.3, -0.2])
    assert tr.critic_loss(v, v) == 0.0
    assert tr.critic_loss([0.3], [0.5]) == pytest.approx(-0.1)
    assert tr.critic_loss([1.0, 1.0], [0.0, 0.0]) == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        tr.critic_loss([1.0], [1.0, 2.0])


def test_generator_loss_examples():
    assert tr.generator_loss([0.3], [1.0], [1.0], 0.0) == pytest.approx(-0.3)
    assert tr.generator_loss([0.3], [5.0], [3.0], 1.0,
                             mode="absolute") == pytest.approx(1.7)
    assert tr.generator_loss([0.3], [4.0], [4.0], 1.0) == pytest.approx(
        tr.generator_loss([0.3], [4.0], [4.0], 0.0))
    with pytest.raises(ConfigurationError):
        tr.generator_loss([0.3], [1.0], [1.0], 1.0, mode="quadratic")


def test_generator_loss_k0_is_negated_mean():
    rng = np.random.default_rng(0)
    c_fake = rng.normal(size=8)
    counts = rng.uniform(0, 4, size=8)
    out = tr.generator_loss(c_fake, counts, counts + 1, 0.0)
    assert out == pytest.approx(-c_fake.mean())


# --- steps --------------------------------------------------------------------

def fake_batch(state, rng, b=4):
    """A noise block of ``b`` samples and its marginals under the state's
    generator, the arguments a training step takes."""
    z = gen.sample_noise(state.gen_cfg, rng, batch=b)
    return z, gen.forward_batch(state.gen_cfg, state.gen_params, z)


def test_critic_step_zero_critic_gives_zero_loss():
    state = make_state(seed=1)
    state.critic = cr.CriticParams(
        w1=np.zeros_like(state.critic.w1), b1=np.zeros_like(state.critic.b1),
        w2=np.zeros_like(state.critic.w2), b2=np.asarray(0.0))
    real = np.zeros((4, 2))
    loss = tr.critic_step(state, real,
                          fake_batch(state, tr.substream(1, 99))[1])
    assert loss == 0.0


def test_critic_step_deterministic():
    results = []
    for _ in range(2):
        state = make_state(seed=2)
        real = np.ones((4, 2))
        tr.critic_step(state, real,
                       fake_batch(state, tr.substream(2, 50))[1])
        results.append(state.critic)
    for a, b in zip(results[0].tensors(), results[1].tensors()):
        np.testing.assert_array_equal(a, b)


def test_critic_step_freezes_generator_and_updates_critic():
    state = make_state(seed=3)
    theta_before = state.gen_params.theta.copy()
    critic_before = state.critic.copy()
    tr.critic_step(state, np.ones((4, 2)),
                   fake_batch(state, tr.substream(3, 50))[1])
    np.testing.assert_array_equal(state.gen_params.theta, theta_before)
    assert any(not np.array_equal(a, b) for a, b
               in zip(state.critic.tensors(), critic_before.tensors()))


def test_critic_step_clips_weights():
    state = make_state(seed=4, clip_c=0.01)
    for _ in range(3):
        tr.critic_step(state, np.ones((4, 2)),
                       fake_batch(state, tr.substream(4, 50))[1])
    for t in state.critic.tensors():
        assert (np.abs(t) <= 0.01 + 1e-12).all()


def test_critic_loss_gradient_matches_finite_differences():
    state = make_state(seed=5)
    b = 2
    real = np.array([[1.0, 0.0], [0.0, 1.0]])
    z = gen.sample_noise(state.gen_cfg, tr.substream(5, 60), batch=b)
    fake = gen.forward_batch(state.gen_cfg, state.gen_params, z)
    coeff = 1.0 / (2 * b)
    grads_fake, _ = cr.critic_backward_batch(state.critic, fake,
                                             np.full(b, coeff))
    grads_real, _ = cr.critic_backward_batch(state.critic, real,
                                             np.full(b, -coeff))
    grads = [a + bb for a, bb in zip(grads_fake, grads_real)]

    names = ("w1", "b1", "w2", "b2")
    for name, grad in zip(names, grads):
        def loss_fn(tensor, name=name):
            q = state.critic.copy()
            setattr(q, name, tensor.reshape(np.shape(getattr(q, name))))
            c_fake = cr.critic_forward_batch(q, fake)
            c_real = cr.critic_forward_batch(q, real)
            return tr.critic_loss(c_fake, c_real)
        fd = central_difference(loss_fn,
                                np.asarray(getattr(state.critic, name), float))
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)


def test_generator_step_no_signal_keeps_params():
    state = make_state(seed=6, k_coeff=0.0)
    state.critic = cr.CriticParams(
        w1=np.zeros_like(state.critic.w1), b1=np.zeros_like(state.critic.b1),
        w2=np.zeros_like(state.critic.w2), b2=np.asarray(0.0))
    theta_before = state.gen_params.theta.copy()
    real = np.ones((4, 2))
    loss, gap = tr.generator_step(
        state, real, *fake_batch(state, tr.substream(6, 70)))
    np.testing.assert_array_equal(state.gen_params.theta, theta_before)
    assert loss == 0.0


def test_generator_step_freezes_critic():
    state = make_state(seed=7)
    critic_before = state.critic.copy()
    tr.generator_step(state, np.ones((4, 2)),
                      *fake_batch(state, tr.substream(7, 70)))
    for a, b in zip(state.critic.tensors(), critic_before.tensors()):
        np.testing.assert_array_equal(a, b)


def test_end_to_end_generator_gradient_matches_fd():
    gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=1, n_layers=2)
    rng = np.random.default_rng(8)
    params = gen.init_params(gen_cfg, rng)
    critic = cr.init_critic(gen_cfg.output_dim, rng)
    z = gen.sample_noise(gen_cfg, rng, batch=2)
    real = np.array([[1.0, 0.0], [1.0, 1.0]])

    loss, grad, _ = tr.generator_loss_and_grad(
        gen_cfg, params, critic, z, real, 1.0, "absolute")
    # the |count gap| kink would poison FD; keep a safe margin
    marg = gen.forward_batch(gen_cfg, params, z)
    assert np.abs(marg.sum(axis=1) - real.sum(axis=1)).min() > 1e-3

    def loss_fn(theta):
        return tr.generator_loss_given_noise(
            gen_cfg, gen.GeneratorParams(theta), critic, z, real,
            1.0, "absolute")

    fd = central_difference(loss_fn, params.theta)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)
    assert loss == pytest.approx(loss_fn(params.theta))


def test_generator_upstream_sign_with_absolute_penalty():
    gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=1, n_layers=2)
    rng = np.random.default_rng(9)
    params = gen.init_params(gen_cfg, rng)
    critic = cr.CriticParams(
        w1=np.zeros((cr.HIDDEN_UNITS, 2)), b1=np.zeros(cr.HIDDEN_UNITS),
        w2=np.zeros(cr.HIDDEN_UNITS), b2=np.asarray(0.0))
    z = gen.sample_noise(gen_cfg, rng, batch=3)
    marg = gen.forward_batch(gen_cfg, params, z)
    real = np.zeros((3, 2))  # fake expected count > real count
    assert (marg.sum(axis=1) > 0).all()
    k = 1.0
    b = 3
    _, grad, _ = tr.generator_loss_and_grad(
        gen_cfg, params, critic, z, real, k, "absolute")
    analytic = gen.param_shift_batch(
        gen_cfg, params, z, np.full((3, 2), k / b))
    np.testing.assert_allclose(grad, analytic, atol=1e-12)


# --- train loop ------------------------------------------------------------

def test_train_zero_steps_returns_init():
    data = tiny_data()
    gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=1)
    cfg = tr.TrainConfig(total_gen_steps=0, seed=11)
    ckpt, rows = tr.train(cfg, data, gen_cfg)
    assert rows == []
    fresh = tr.init_trainer(cfg, gen_cfg, ckpt.window, ckpt.bin_width)
    np.testing.assert_array_equal(ckpt.gen_params.theta,
                                  fresh.gen_params.theta)
    for a, b in zip(ckpt.critic.tensors(), fresh.critic.tensors()):
        np.testing.assert_array_equal(a, b)


def test_train_is_deterministic():
    data = tiny_data(seed=1)
    gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=2, n_layers=2)
    cfg = tr.TrainConfig(total_gen_steps=4, seed=12, batch_size=4,
                         js_log_interval=2)
    ckpt_a, rows_a = tr.train(cfg, data, gen_cfg)
    ckpt_b, rows_b = tr.train(cfg, data, gen_cfg)
    np.testing.assert_array_equal(ckpt_a.gen_params.theta,
                                  ckpt_b.gen_params.theta)
    assert rows_a == rows_b


def test_train_schedule_counts_adam_steps():
    data = tiny_data(seed=2)
    gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=1)
    cfg = tr.TrainConfig(total_gen_steps=3, seed=13, batch_size=4,
                         critic_steps_per_gen=2)
    ckpt, rows = tr.train(cfg, data, gen_cfg)
    assert ckpt.adam_critic.step_count == 6   # 2 critic updates per gen step
    assert ckpt.adam_gen.step_count == 3
    assert [r.step for r in rows] == [0, 1, 2]


@pytest.mark.parametrize("n, t", [(2, 30), (8, 3)])
def test_train_step_fakes_equal_separate_forward_calls(monkeypatch, n, t):
    """One forward pass over a step's noise blocks gives each critic step
    and the generator step, byte for byte, the marginals of its own block:
    at n=2, t=30 in one kernel block, at n=8, t=3 (factored prefix) in one
    block per patch where separate calls hold all three patches."""
    data = tiny_data(seed=3, n=n, cols=200)
    gen_cfg = gen.GeneratorConfig(n_feature=n, n_patches=t)
    cfg = tr.TrainConfig(total_gen_steps=1, seed=14, batch_size=32)
    seen = []
    critic_step, generator_step = tr.critic_step, tr.generator_step

    def spy_critic(state, real, fake):
        seen.append((None, fake.copy()))
        return critic_step(state, real, fake)

    def spy_generator(state, real, z, fake):
        seen.append((z.copy(), fake.copy()))
        return generator_step(state, real, z, fake)

    monkeypatch.setattr(tr, "critic_step", spy_critic)
    monkeypatch.setattr(tr, "generator_step", spy_generator)
    ckpt, _ = tr.train(cfg, data, gen_cfg)
    params = tr.init_trainer(cfg, gen_cfg, ckpt.window,
                             ckpt.bin_width).gen_params
    rngs = [tr.substream(14, tr.PURPOSE_CRITIC_NOISE, 0, sub)
            for sub in range(cfg.critic_steps_per_gen)]
    rngs.append(tr.substream(14, tr.PURPOSE_GEN_NOISE, 0))
    for (z_seen, fake), rng in zip(seen, rngs, strict=True):
        z = gen.sample_noise(gen_cfg, rng, batch=32)
        np.testing.assert_array_equal(fake,
                                      gen.forward_batch(gen_cfg, params, z))
        if z_seen is not None:
            np.testing.assert_array_equal(z_seen, z)


def test_step_counts_are_bounded_by_the_substream_counter():
    """Steps and critic lanes index uint64 counter words of the substream,
    so each count is at most 2**64."""
    tr.TrainConfig(total_gen_steps=2**64, critic_steps_per_gen=2**64)
    for key in ("total_gen_steps", "critic_steps_per_gen"):
        with pytest.raises(ConfigurationError, match=f"{key} must be"):
            tr.TrainConfig(**{"total_gen_steps": 1, key: 2**64 + 1})


def test_generation_blocks_are_one_draw_cut_in_runs():
    cfg = gen.GeneratorConfig(n_feature=2, n_patches=3)
    z, uniforms = tr.generation_noise(cfg, 7, 10)
    blocks = list(tr.generation_blocks(cfg, 7, 10, 4))
    assert [len(bz) for bz, _ in blocks] == [4, 4, 2]
    np.testing.assert_array_equal(np.concatenate([bz for bz, _ in blocks]), z)
    np.testing.assert_array_equal(
        np.concatenate([bu for _, bu in blocks]), uniforms)


def test_train_rejects_small_data():
    data = SpikeMatrix(np.zeros((1, 3), dtype=int) | 1)
    gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=1)
    with pytest.raises(ConfigurationError):
        tr.train(tr.TrainConfig(total_gen_steps=1), data, gen_cfg)
    gen_cfg = gen.GeneratorConfig(n_feature=1, n_patches=8)
    with pytest.raises(ConfigurationError):
        tr.train(tr.TrainConfig(total_gen_steps=1), data, gen_cfg)


def test_train_logs_js_on_interval():
    data = tiny_data(seed=3)
    gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=1, n_layers=2)
    cfg = tr.TrainConfig(total_gen_steps=5, seed=14, batch_size=4,
                         js_log_interval=2, js_noise_draws=64)
    _, rows = tr.train(cfg, data, gen_cfg)
    logged = [r.js_divergence is not None for r in rows]
    assert logged == [True, False, True, False, True]
    assert all(0 <= r.js_divergence <= 1 for r in rows if r.js_divergence is not None)


# --- model distribution -------------------------------------------------------

def test_model_state_distribution_zero_params():
    gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=2, n_layers=2)
    params = gen.GeneratorParams(np.zeros((2, 2, 2, 2)))
    z = np.zeros((10, 2, 2))
    dist = tr.model_state_distribution(gen_cfg, params, z)
    assert dist[0] == pytest.approx(1.0)
    assert dist.sum() == pytest.approx(1.0)


def brute_state_distribution(gen_cfg, theta, z):
    """Per-patch mean readout law from the dense oracle (auxiliary bits
    summed out), multiplied over patches state by state."""
    n, t = gen_cfg.n_feature, gen_cfg.n_patches
    means = []
    for p in range(t):
        law = np.zeros(2**n)
        for j in range(z.shape[0]):
            for basis, prob in enumerate(ansatz_probs(theta[p], z[j, p])):
                law[basis % 2**n] += prob / z.shape[0]
        means.append(law)
    expected = np.zeros(2 ** (n * t))
    for outcome in np.ndindex(*(2**n,) * t):
        window = np.array([[(outcome[p] >> k) & 1 for p in range(t)]
                           for k in range(n)])
        expected[state_index(window)] += np.prod(
            [means[p][outcome[p]] for p in range(t)])
    return expected


def test_model_state_distribution_matches_enumeration():
    gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=2, n_layers=2)
    rng = np.random.default_rng(15)
    params = gen.init_params(gen_cfg, rng)
    z = gen.sample_noise(gen_cfg, rng, batch=3)
    dist = tr.model_state_distribution(gen_cfg, params, z)
    np.testing.assert_allclose(
        dist, brute_state_distribution(gen_cfg, params.theta, z), atol=1e-12)


def test_model_state_distribution_aux():
    gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=2, n_layers=2,
                                  n_aux=1)
    rng = np.random.default_rng(17)
    params = gen.init_params(gen_cfg, rng)
    z = gen.sample_noise(gen_cfg, rng, batch=3)
    dist = tr.model_state_distribution(gen_cfg, params, z)
    np.testing.assert_allclose(
        dist, brute_state_distribution(gen_cfg, params.theta, z), atol=1e-12)


@pytest.mark.parametrize("chunk", [8, 32])
def test_model_state_distribution_across_blocks(monkeypatch, chunk):
    """At 8 amplitudes a sample's two 8-amplitude rows span two chunks; at
    32 the five samples fall into blocks of two, two and one."""
    gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=2, n_layers=2,
                                  n_aux=1)
    rng = np.random.default_rng(18)
    params = gen.init_params(gen_cfg, rng)
    z = gen.sample_noise(gen_cfg, rng, batch=5)
    monkeypatch.setattr(gen, "_CHUNK_ELEMS", chunk)
    dist = tr.model_state_distribution(gen_cfg, params, z)
    np.testing.assert_allclose(
        dist, brute_state_distribution(gen_cfg, params.theta, z), atol=1e-12)


# --- checkpointing --------------------------------------------------------------

def run_small_training(seed=16):
    data = tiny_data(seed=4)
    gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=1, n_layers=2)
    cfg = tr.TrainConfig(total_gen_steps=2, seed=seed, batch_size=4)
    ckpt, _ = tr.train(cfg, data, gen_cfg)
    return ckpt


def test_checkpoint_round_trip_bit_exact(tmp_path):
    ckpt = run_small_training()
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(ckpt, path)
    loaded = tr.load_checkpoint(path)
    np.testing.assert_array_equal(loaded.gen_params.theta,
                                  ckpt.gen_params.theta)
    for a, b in zip(loaded.critic.tensors(), ckpt.critic.tensors()):
        np.testing.assert_array_equal(a, b)
    for adam_a, adam_b in ((loaded.adam_gen, ckpt.adam_gen),
                           (loaded.adam_critic, ckpt.adam_critic)):
        assert adam_a.step_count == adam_b.step_count
        for a, b in zip(adam_a.m + adam_a.v, adam_b.m + adam_b.v):
            np.testing.assert_array_equal(a, b)
    assert loaded.gen_cfg == ckpt.gen_cfg
    assert loaded.train_cfg == ckpt.train_cfg
    assert loaded.window == ckpt.window
    assert loaded.gen_step == ckpt.gen_step

    second = tmp_path / "again.ckpt"
    tr.save_checkpoint(loaded, second)
    assert path.read_bytes() == second.read_bytes()


class HalfWrite:
    """A file that takes half of what it is given, then fails."""
    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("No space left on device")


def fail_writes_in(monkeypatch, module):
    """Make every file that ``module`` opens a HalfWrite."""
    monkeypatch.setattr(module, "open",
                        lambda *a, **kw: HalfWrite(open(*a, **kw)),
                        raising=False)


def test_checkpoint_failed_write_keeps_previous(tmp_path, monkeypatch):
    first, second = run_small_training(seed=16), run_small_training(seed=17)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(first, path)
    saved = path.read_bytes()

    fail_writes_in(monkeypatch, tr)
    with pytest.raises(OSError, match="No space"):
        tr.save_checkpoint(second, path)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    assert path.read_bytes() == saved
    np.testing.assert_array_equal(tr.load_checkpoint(path).gen_params.theta,
                                  first.gen_params.theta)


def test_log_and_spikes_failed_write_keep_previous(tmp_path, monkeypatch):
    log, spikes = tmp_path / "train_log.csv", tmp_path / "generated.spk"
    rows = [tr.LogRow(1, 0.5, -0.25, 0.1, 0.3), tr.LogRow(2, 0.4, -0.2, 0.1)]
    tr.write_train_log(rows, log)
    spikedata.save_spikes(tiny_data(seed=1), spikes)
    saved = {path: path.read_bytes() for path in (log, spikes)}

    fail_writes_in(monkeypatch, fileio)
    fail_writes_in(monkeypatch, spikedata)
    with pytest.raises(OSError, match="No space"):
        tr.write_train_log(rows[::-1], log)
    with pytest.raises(OSError, match="No space"):
        spikedata.save_spikes(tiny_data(seed=2), spikes)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "generated.spk", "train_log.csv"]
    for path, data in saved.items():
        assert path.read_bytes() == data


def test_checkpoint_truncated_fails_checksum(tmp_path):
    ckpt = run_small_training()
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(ckpt, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(CheckpointFormatError, match="checksum|truncated"):
        tr.load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    import struct
    import zlib
    ckpt = run_small_training()
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(ckpt, path)
    blob = bytearray(path.read_bytes())[:-4]
    struct.pack_into("<I", blob, len(tr.CHECKPOINT_MAGIC), 2)
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="version"):
        tr.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOT-A-CHECKPOINT-AT-ALL-0000")
    with pytest.raises(CheckpointFormatError, match="magic"):
        tr.load_checkpoint(path)
