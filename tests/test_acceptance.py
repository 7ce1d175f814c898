"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and enforces the criterion's tolerances and runtime budget.
"""

import configparser
import time
from contextlib import contextmanager

import numpy as np
import pytest

from spiqgan import cli
from spiqgan import critic as cr
from spiqgan import generator as gen
from spiqgan import stats
from spiqgan import training as tr
from spiqgan.spikedata import synthesize_surrogate

from _oracles import (ansatz_probs, brute_autocorrelogram, brute_firing_rate,
                      brute_k_probability, brute_pairwise_cov,
                      brute_state_histogram, central_difference,
                      critic_forward)


@contextmanager
def report(num, label):
    info = {}
    try:
        yield info
    except Exception:
        print(f"\n[FAIL] criterion {num}: {label}")
        raise
    detail = info.get("detail", "")
    print(f"\n[PASS] criterion {num}: {label}" + (f" ({detail})" if detail else ""))


def desk_surrogate():
    """n=2 raster whose exact per-bin state distribution is known
    (two-state Markov mixture of product Bernoullis)."""
    return synthesize_surrogate(
        2, 20_000, [0.1, 0.25], 0.9, 3.0,
        tr.substream(1234, tr.PURPOSE_SURROGATE))


# Desk-scale run configuration.  All values the source protocol fixes stay
# at their defaults (batch 32, lr 0.05/0.002, 2 critic steps per generator
# step, K=1); the clip constant is a free knob and 0.01 starves the critic
# signal at this scale, so the convergence runs use 0.2.
DESK_CLIP = 0.2


def test_criterion_1_simulator_oracle_equivalence():
    with report(1, "simulator matches dense-matrix oracle") as info:
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            cfg = gen.GeneratorConfig(
                n_feature=int(rng.integers(1, 5)), n_patches=1,
                n_layers=int(rng.integers(1, 5)),
                n_aux=int(rng.integers(0, 2)))
            thetas = gen.init_params(cfg, rng).theta
            z = gen.sample_noise(cfg, rng, batch=1)[:, 0]
            probs = gen.batch_patch_probs(cfg, thetas, z)[0]
            err = np.abs(probs - ansatz_probs(thetas[0], z[0])).max()
            worst = max(worst, err)
            assert err < 1e-10
            assert abs(probs.sum() - 1.0) < 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        info["detail"] = (f"100 ansatz instances, max prob err {worst:.2e}, "
                          f"{elapsed:.1f}s")


def test_criterion_2_gradient_exactness():
    with report(2, "parameter-shift and backprop match finite differences") as info:
        start = time.perf_counter()

        # generator marginal Jacobian, parameter-shift vs central differences
        cfg = gen.GeneratorConfig(n_feature=2, n_patches=1, n_layers=2)
        rng = np.random.default_rng(21)
        params = gen.init_params(cfg, rng)
        z = gen.sample_noise(cfg, rng, batch=1)
        for j in range(cfg.output_dim):
            unit = np.zeros((1, cfg.output_dim))
            unit[0, j] = 1.0
            shift = gen.param_shift_batch(cfg, params, z, unit)
            fd = central_difference(
                lambda th, j=j: gen.forward_batch(
                    cfg, gen.GeneratorParams(th), z)[0, j],
                params.theta)
            np.testing.assert_allclose(shift, fd, rtol=1e-5, atol=1e-8)

        # end-to-end generator loss gradient at n=2, t=1, L=2, B=2
        critic = cr.init_critic(cfg.output_dim, np.random.default_rng(22))
        z2 = gen.sample_noise(cfg, rng, batch=2)
        real = np.array([[1.0, 0.0], [1.0, 1.0]])
        marg = gen.forward_batch(cfg, params, z2)
        assert np.abs(marg.sum(axis=1) - real.sum(axis=1)).min() > 1e-3
        loss, grad, _ = tr.generator_loss_and_grad(
            cfg, params, critic, z2, real, 1.0, "absolute")
        fd = central_difference(
            lambda th: tr.generator_loss_given_noise(
                cfg, gen.GeneratorParams(th), critic, z2, real,
                1.0, "absolute"),
            params.theta)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

        # critic backprop on random instances
        for seed in range(5):
            rng_c = np.random.default_rng(100 + seed)
            d = int(rng_c.integers(2, 8))
            p = cr.init_critic(d, rng_c)
            x = rng_c.normal(size=d)
            assert np.abs(p.w1 @ x + p.b1).min() > 1e-4
            grads, input_grads = cr.critic_backward_batch(p, x[None],
                                                          np.ones(1))
            fd_x = central_difference(lambda v: critic_forward(p, v), x)
            np.testing.assert_allclose(input_grads[0], fd_x,
                                       rtol=1e-6, atol=1e-9)
            for name, grad in zip(("w1", "b1", "w2", "b2"), grads):
                def f(tensor, name=name):
                    q2 = p.copy()
                    setattr(q2, name,
                            tensor.reshape(np.shape(getattr(p, name))))
                    return critic_forward(q2, x)
                fd = central_difference(
                    f, np.asarray(getattr(p, name), dtype=float))
                np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        info["detail"] = f"{elapsed:.1f}s"


def test_criterion_3_parameter_count_claim():
    with report(3, "default config trains exactly 8*n*t angles") as info:
        checked = 0
        for n in (2, 4, 6, 8, 10):
            for t in (1, 2, 5, 10, 20, 30):
                cfg = gen.GeneratorConfig(n_feature=n, n_patches=t)
                params = gen.init_params(cfg, np.random.default_rng(0))
                assert params.count == 8 * n * t
                assert cfg.param_count == 8 * n * t
                checked += 1
        info["detail"] = f"{checked} grid cells"


def test_criterion_4_hyperparameter_conformance(tmp_path):
    with report(4, "resolved snapshot shows the stock hyperparameters") as info:
        data = tmp_path / "data.spk"
        assert cli.main(["surrogate", "--neurons", "2", "--cols", "200",
                         "--rates", "0.2", "--out", str(data)]) == 0
        config = tmp_path / "run.ini"
        config.write_text(
            "[generator]\nneurons = 2\ntimesteps = 1\n\n"
            "[training]\ntotal_gen_steps = 0\n\n"
            f"[paths]\ndata = {data}\nout = {tmp_path / 'out'}\n")
        assert cli.main(["train", "--config", str(config)]) == 0
        snap = configparser.ConfigParser(interpolation=None)
        snap.read(tmp_path / "out" / "resolved_config.ini")
        assert snap["training"]["batch_size"] == "32"
        assert snap["training"]["lr_gen"] == "0.05"
        assert snap["training"]["lr_critic"] == "0.002"
        assert snap["training"]["critic_steps_per_gen"] == "2"
        info["detail"] = "B=32, lr_gen=0.05, lr_critic=0.002, 2:1"


def test_criterion_5_desk_scale_convergence():
    with report(5, "JS to the target distribution falls below 0.05") as info:
        start = time.perf_counter()
        data = desk_surrogate()
        gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=1)
        passes = 0
        finals = []
        for seed in range(5):
            cfg = tr.TrainConfig(total_gen_steps=2000, seed=seed,
                                 clip_c=DESK_CLIP, js_log_interval=25)
            _, rows = tr.train(cfg, data, gen_cfg)
            js = [r.js_divergence for r in rows if r.js_divergence is not None]
            finals.append(js[-1])
            if js[-1] < 0.05 and js[-1] < js[0]:
                passes += 1
        elapsed = time.perf_counter() - start
        assert passes >= 4, f"only {passes}/5 seeds converged: {finals}"
        assert elapsed < 600.0
        info["detail"] = (f"{passes}/5 seeds, final JS "
                          f"{['%.3f' % j for j in finals]}, {elapsed:.0f}s")


def test_criterion_6_statistics_oracle_equivalence():
    with report(6, "five estimators match brute-force reimplementations") as info:
        rng = np.random.default_rng(66)
        for _ in range(200):
            sample = (rng.random((3, 8)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
            samples = [sample]
            np.testing.assert_allclose(
                stats.firing_rate(samples, 0.02),
                brute_firing_rate(samples, 0.02), atol=1e-12)
            np.testing.assert_allclose(
                stats.pairwise_covariance(samples),
                brute_pairwise_cov(samples), atol=1e-12)
            np.testing.assert_allclose(
                stats.k_probability(samples),
                brute_k_probability(samples), atol=1e-12)
            if sample.std(axis=1).max() > 0:
                np.testing.assert_allclose(
                    stats.autocorrelogram(samples, 5),
                    brute_autocorrelogram(samples, 5), atol=1e-12)
            columns = [sample[:, [c]] for c in range(8)]
            np.testing.assert_allclose(
                stats.state_histogram(columns),
                brute_state_histogram(columns), atol=1e-12)
        info["detail"] = "200 random 3x8 rasters, tol 1e-12"


def test_criterion_7_k_loss_mechanism(tmp_path):
    with report(7, "K-loss difference table and count-gap advantage") as info:
        # sweep emits the difference table with the documented sign:
        # positive entries mean the K-loss run had the lower error
        data_path = tmp_path / "data.spk"
        assert cli.main(["surrogate", "--neurons", "2", "--cols", "20000",
                         "--rates", "0.1,0.25", "--burst-prob", "0.9",
                         "--burst-gain", "3.0", "--seed", "1234",
                         "--out", str(data_path)]) == 0
        sweep_cfg = tmp_path / "sweep.ini"
        sweep_out = tmp_path / "sweep"
        sweep_cfg.write_text(
            "[sweep]\nneurons = 2\ntimesteps = 1\nk_values = 0,1\n"
            "seeds = 0\neval_samples = 256\n\n"
            "[training]\ntotal_gen_steps = 5\nbatch_size = 8\n"
            "js_log_interval = 1\njs_noise_draws = 64\n\n"
            f"[paths]\ndata = {data_path}\nout = {sweep_out}\n")
        assert cli.main(["sweep", "--config", str(sweep_cfg)]) == 0
        import csv
        with open(sweep_out / "sweep_results.csv", newline="") as fh:
            results = list(csv.DictReader(fh))
        with open(sweep_out / "loss_diff.csv", newline="") as fh:
            diffs = list(csv.DictReader(fh))
        assert len(diffs) == 1
        mse = {float(r["K"]): float(r["mse_kprob"]) for r in results}
        expected = mse[0.0] - mse[1.0]
        assert float(diffs[0]["kprob_mse_diff"]) == pytest.approx(expected)

        # paired-seed comparison: end-of-training expected-count gap
        # (mean of the logged gap over the final 200 generator steps)
        start = time.perf_counter()
        data = desk_surrogate()
        gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=1)
        wins = 0
        margins = []
        for seed in range(5):
            tail_gap = {}
            for k in (0.0, 1.0):
                cfg = tr.TrainConfig(total_gen_steps=1000, seed=seed,
                                     clip_c=DESK_CLIP, k_coeff=k,
                                     js_log_interval=10_000)
                _, rows = tr.train(cfg, data, gen_cfg)
                tail_gap[k] = float(np.mean([r.count_gap
                                             for r in rows[-200:]]))
            margins.append(tail_gap[0.0] - tail_gap[1.0])
            if tail_gap[1.0] <= tail_gap[0.0]:
                wins += 1
        elapsed = time.perf_counter() - start
        assert wins >= 3, f"K-loss won only {wins}/5 pairs: {margins}"
        info["detail"] = f"diff table ok; K-loss wins {wins}/5, {elapsed:.0f}s"


def test_criterion_8_determinism(tmp_path):
    with report(8, "seeded runs and checkpoints are byte-identical") as info:
        data = tmp_path / "data.spk"
        assert cli.main(["surrogate", "--neurons", "2", "--cols", "2000",
                         "--rates", "0.1,0.25", "--burst-gain", "3.0",
                         "--out", str(data)]) == 0
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            config = tmp_path / f"{name}.ini"
            config.write_text(
                "[generator]\nneurons = 2\ntimesteps = 1\n\n"
                "[training]\ntotal_gen_steps = 30\nseed = 9\n"
                "js_log_interval = 5\njs_noise_draws = 128\n\n"
                f"[paths]\ndata = {data}\nout = {out}\n")
            assert cli.main(["train", "--config", str(config)]) == 0
            outs.append(out)
        log_a = (outs[0] / "train_log.csv").read_bytes()
        log_b = (outs[1] / "train_log.csv").read_bytes()
        assert log_a == log_b
        ckpt_a = (outs[0] / "checkpoint.ckpt").read_bytes()
        ckpt_b = (outs[1] / "checkpoint.ckpt").read_bytes()
        assert ckpt_a == ckpt_b

        loaded = tr.load_checkpoint(outs[0] / "checkpoint.ckpt")
        resaved = tmp_path / "resaved.ckpt"
        tr.save_checkpoint(loaded, resaved)
        assert resaved.read_bytes() == ckpt_a
        info["detail"] = "logs, checkpoints, and round-trip all byte-equal"


def test_criterion_9_sampling_consistency():
    with report(9, "samples reproduce the exact model distribution") as info:
        data = desk_surrogate()
        gen_cfg = gen.GeneratorConfig(n_feature=2, n_patches=1)
        cfg = tr.TrainConfig(total_gen_steps=300, seed=0, clip_c=DESK_CLIP,
                             js_log_interval=10_000)
        ckpt, _ = tr.train(cfg, data, gen_cfg)

        count = 100_000
        z, uniforms = tr.generation_noise(gen_cfg, 11, count)
        samples = gen.sample_batch(gen_cfg, ckpt.gen_params, z, uniforms)
        th = np.broadcast_to(ckpt.gen_params.theta[0],
                             (count, gen_cfg.n_layers, gen_cfg.n_qubits, 2))
        probs = gen.batch_patch_probs(gen_cfg, th, z[:, 0])

        basis = samples[:, 0, 0].astype(int) + 2 * samples[:, 1, 0].astype(int)
        freq = np.bincount(basis, minlength=4) / count
        mean_p = probs.mean(axis=0)
        sigma = np.sqrt((probs * (1 - probs)).sum(axis=0)) / count
        deviation = np.abs(freq - mean_p)
        assert (deviation <= 3 * sigma + 1e-12).all(), (deviation, 3 * sigma)
        info["detail"] = (f"1e5 draws, max |freq-p| "
                          f"{deviation.max():.2e} vs 3-sigma "
                          f"{(3 * sigma).max():.2e}")
