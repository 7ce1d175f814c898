"""Correctness checks on a workload's outputs, computed apart from the
program: a dense Kronecker-product unitary for the kernel, central
differences for the gradient, brute-force statistics parsed straight from
the spike files, and a Bernstein bound on sampled outcome frequencies.

Each check returns ``(name, ok, detail)``.  None compares against a stored
copy of earlier output.
"""

from __future__ import annotations

import csv
import math
from functools import reduce
from pathlib import Path

import numpy as np

from spiqgan import generator, training

KERNEL_INSTANCES = 6
KERNEL_TOL = 1e-10
GRAD_BATCH = 4
GRAD_ANGLES = 8
GRAD_STEP = 1e-6
# A two-sided Bernstein bound fails a correct sampler with probability
# below this, per statistic checked.
SAMPLING_FALSE_ALARM = 1e-9
# Windows checked are capped so the check simulates about 2^20 amplitudes.
SAMPLING_AMPLITUDES = 1 << 20


def read_raster(path) -> tuple[np.ndarray, float]:
    """Parse a SPIKES v1 file into a (neurons, bins) 0/1 array."""
    with open(path, "rb") as fh:
        _, _, n, bins, width = fh.readline().split()
        body = fh.read()
    n, bins = int(n), int(bins)
    chars = np.frombuffer(body, dtype=np.uint8).reshape(n, bins + 1)
    if not (chars[:, -1] == ord("\n")).all():
        raise ValueError(f"{path}: rows are not {bins} characters long")
    return (chars[:, :bins] - ord("0")).astype(np.int64), float(width)


def _windows(raster: np.ndarray, n: int, t: int, stride: int) -> np.ndarray:
    """(W, n, t) windows of the first n rows; entry [w, k, p] is neuron k
    at bin w*stride + p."""
    starts = np.arange(0, raster.shape[1] - t + 1, stride)
    return raster[:n][:, starts[:, None] + np.arange(t)].transpose(1, 0, 2)


def _state_histogram(windows: np.ndarray) -> np.ndarray:
    """Neuron 0 of timestep 0 is the most significant bit, then patch-major."""
    w, n, t = windows.shape
    bits = windows.transpose(0, 2, 1).reshape(w, n * t)
    index = np.zeros(w, dtype=np.int64)
    for j in range(n * t):
        index = index * 2 + bits[:, j]
    return np.bincount(index, minlength=2 ** (n * t)) / w


def _js(p: np.ndarray, q: np.ndarray) -> float:
    """JS(p, q) = H(m) - (H(p) + H(q)) / 2, m = (p + q) / 2, base 2."""
    def entropy(x):
        x = x[x > 0]
        return -float(np.sum(x * np.log2(x)))
    return entropy(0.5 * (p + q)) - 0.5 * (entropy(p) + entropy(q))


def _close(a, b, rel=1e-9, abs_=1e-12) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= abs_ + rel * np.abs(b)))


# --- kernel: dense unitary oracle -------------------------------------------

_I2 = np.eye(2)


def _rx(a):
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(a):
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -s], [s, c]])


def _rz(a):
    return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])


def _kron_qubits(ops) -> np.ndarray:
    """Operator with ops[k] on qubit k; qubit k is bit k of the index."""
    return reduce(np.kron, reversed(ops))


def _cnot(q: int, control: int, target: int) -> np.ndarray:
    off = [_I2] * q
    off[control] = np.diag([1.0, 0.0])
    on = [_I2] * q
    on[control] = np.diag([0.0, 1.0])
    on[target] = np.array([[0.0, 1.0], [1.0, 0.0]])
    return _kron_qubits(off) + _kron_qubits(on)


def dense_patch_probs(theta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|U|0>|^2 for one patch; theta (L, q, 2), z (L, q)."""
    layers, q, _ = theta.shape
    chain = reduce(lambda acc, k: _cnot(q, k, k + 1) @ acc, range(q - 1),
                   np.eye(2**q))
    unitary = np.eye(2**q)
    for layer in range(layers):
        rot = _kron_qubits([_rz(theta[layer, k, 1]) @ _ry(theta[layer, k, 0])
                            @ _rx(z[layer, k]) for k in range(q)])
        unitary = chain @ rot @ unitary
    return np.abs(unitary[:, 0]) ** 2


def check_kernel(cfg, theta: np.ndarray, rng) -> tuple:
    patches = rng.integers(0, cfg.n_patches, KERNEL_INSTANCES)
    thetas = theta[patches]
    z = rng.uniform(cfg.noise_low, cfg.noise_high,
                    (KERNEL_INSTANCES, cfg.n_qubits))
    got = generator.batch_patch_probs(cfg, thetas, z)
    want = np.stack([
        dense_patch_probs(th, np.broadcast_to(zi, th.shape[:2]))
        for th, zi in zip(thetas, z)])
    err = float(np.abs(got - want).max())
    return ("kernel_vs_dense_unitary", err <= KERNEL_TOL,
            f"max |diff| {err:.2e} over {KERNEL_INSTANCES} instances")


# --- generator gradient: central differences --------------------------------

def check_gradient(ckpt, raster: np.ndarray, rng) -> tuple:
    cfg = ckpt.gen_cfg
    tcfg = ckpt.train_cfg
    n, t = cfg.n_feature, cfg.n_patches
    z = rng.uniform(cfg.noise_low, cfg.noise_high,
                    (GRAD_BATCH,) + cfg.noise_shape())
    starts = rng.integers(0, raster.shape[1] - t + 1, GRAD_BATCH)
    rows = raster[list(ckpt.window.neuron_subset)]
    real = rows[:, starts[:, None] + np.arange(t)].transpose(1, 2, 0)
    real = real.reshape(GRAD_BATCH, n * t).astype(float)
    args = (ckpt.critic, z, real, tcfg.k_coeff, tcfg.penalty_mode)
    _, grad, _ = training.generator_loss_and_grad(cfg, ckpt.gen_params, *args)
    angles = rng.choice(grad.size, size=min(GRAD_ANGLES, grad.size),
                        replace=False)
    worst = 0.0
    ok = True
    for i in angles:
        losses = []
        for sign in (1.0, -1.0):
            theta = ckpt.gen_params.theta.copy()
            theta.flat[i] += sign * GRAD_STEP
            losses.append(training.generator_loss_given_noise(
                cfg, generator.GeneratorParams(theta), *args))
        fd = (losses[0] - losses[1]) / (2 * GRAD_STEP)
        err = abs(fd - grad.flat[i])
        worst = max(worst, err)
        ok &= err <= 1e-6 * (1.0 + abs(grad.flat[i]))
    return ("gradient_vs_central_difference", ok,
            f"max |diff| {worst:.2e} over {len(angles)} angles")


# --- model distribution and the logged JS -----------------------------------

def check_logged_js(ckpt, raster: np.ndarray, log_path: Path) -> list[tuple]:
    cfg = ckpt.gen_cfg
    tcfg = ckpt.train_cfg
    z_eval = generator.sample_noise(
        cfg, training.substream(tcfg.seed, training.PURPOSE_JS_EVAL),
        batch=tcfg.js_noise_draws)
    model = training.model_state_distribution(cfg, ckpt.gen_params, z_eval)
    total = float(model.sum())
    sums = ("model_distribution_sums_to_1",
            abs(total - 1.0) <= 1e-9 and float(model.min()) >= 0.0,
            f"sum {total!r}, min {float(model.min())!r}")
    with open(log_path, newline="") as fh:
        logged = float(list(csv.DictReader(fh))[-1]["js_divergence"])
    rows = raster[list(ckpt.window.neuron_subset)]
    reference = _state_histogram(_windows(rows, cfg.n_feature,
                                          cfg.n_patches, stride=1))
    js = _js(model / total, reference)
    return [sums, ("logged_js_recomputed", abs(js - logged) <= 1e-10,
                   f"logged {logged!r}, recomputed {js!r}")]


# --- generate: inverse-CDF sampling frequencies -----------------------------

def _outcome_statistics(n: int) -> np.ndarray:
    """(2^n, m) 0/1 matrix: column s says whether an outcome counts toward
    statistic s.  One column per outcome, then one per neuron (its bit is
    1) and one per pair of neurons (both bits are 1).  The pooled columns
    keep their power when 2^n outcomes spread the windows thin."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    pairs = [bits[:, i] * bits[:, j]
             for i in range(n) for j in range(i + 1, n)]
    return np.column_stack([np.eye(2**n, dtype=np.int64), bits, *pairs])


def check_sampling(ckpt, generated_path: Path, seed: int,
                   count: int) -> tuple:
    """Every statistic's count must lie within a two-sided Bernstein bound
    of its exact expectation: per window, the noise-averaged patch
    distribution under the window's own noise draw."""
    cfg = ckpt.gen_cfg
    n, t = cfg.n_feature, cfg.n_patches
    matrix, _ = read_raster(generated_path)
    windows = matrix.reshape(n, count, t).transpose(1, 0, 2)
    used = min(count, max(1, SAMPLING_AMPLITUDES // (2**cfg.n_qubits * t)))
    z, _ = training.generation_noise(cfg, seed, count)
    log_term = math.log(2.0 / SAMPLING_FALSE_ALARM)
    stats = _outcome_statistics(n)
    worst = 0.0
    for p in range(t):
        theta = np.broadcast_to(ckpt.gen_params.theta[p],
                                (used,) + ckpt.gen_params.theta[p].shape)
        probs = generator.batch_patch_probs(cfg, theta, z[:used, p])
        probs = probs.reshape(used, 2**cfg.n_aux, 2**n).sum(axis=1) @ stats
        expected = probs.sum(axis=0)
        variance = (probs * (1.0 - probs)).sum(axis=0)
        outcome = (windows[:used, :, p] << np.arange(n)).sum(axis=1)
        observed = stats[outcome].sum(axis=0)
        bound = log_term / 3 + np.sqrt((log_term / 3) ** 2
                                       + 2 * variance * log_term)
        worst = max(worst, float((np.abs(observed - expected) / bound).max()))
    return ("sampling_frequencies_within_bound", worst <= 1.0,
            f"worst |observed - expected| / bound {worst:.3f} over "
            f"{stats.shape[1]} statistics x {t} patches, {used} windows")


# --- evaluate: brute-force statistics ----------------------------------------

def _read_stat(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(r["value"]) for r in csv.DictReader(fh)])


def _brute_stats(windows: np.ndarray, bin_width: float) -> dict:
    w, n, t = windows.shape
    bins = windows.transpose(1, 0, 2).reshape(n, w * t)
    rate = np.array([bins[k].sum() / (w * t * bin_width) for k in range(n)])
    per_bin = bins.sum(axis=0)
    kprob = np.array([(per_bin == k).sum() for k in range(n + 1)]) / (w * t)
    mean = bins.mean(axis=1)
    cov = np.array([(bins[i] * bins[j]).mean() - mean[i] * mean[j]
                    for i in range(n) for j in range(i + 1, n)])
    return {"firing_rate": rate, "k_probability": kprob,
            "pairwise_covariance": cov}


def check_evaluate(eval_dir: Path, generated_path: Path, reference_path: Path,
                   n: int, t: int) -> tuple:
    gen_raster, _ = read_raster(generated_path)
    ref_raster, bin_width = read_raster(reference_path)
    gen_w = _windows(gen_raster, n, t, stride=t)
    ref_w = _windows(ref_raster, n, t, stride=t)
    bad = []
    brute = {}
    for side, windows in (("generated", gen_w), ("reference", ref_w)):
        brute[side] = _brute_stats(windows, bin_width)
        for stat, want in brute[side].items():
            if not _close(_read_stat(eval_dir / side / f"{stat}.csv"), want):
                bad.append(f"{side}/{stat}")
    with open(eval_dir / "summary.csv", newline="") as fh:
        summary = {r["metric"]: r["value"] for r in csv.DictReader(fh)}
    for key, stat in (("mse_k_probability", "k_probability"),
                      ("mse_firing_rate", "firing_rate")):
        diff = brute["generated"][stat] - brute["reference"][stat]
        if not _close(float(summary[key]), float(np.mean(diff**2))):
            bad.append(key)
    if n * t <= 20:
        js = _js(_state_histogram(gen_w), _state_histogram(ref_w))
        if not summary["js_divergence"] or not _close(
                float(summary["js_divergence"]), js, abs_=1e-10):
            bad.append("js_divergence")
    elif summary["js_divergence"]:
        bad.append("js_divergence reported past 20 state bits")
    return ("evaluate_vs_brute_force", not bad,
            "mismatch: " + ", ".join(bad) if bad else
            f"{len(gen_w)} generated and {len(ref_w)} reference windows")
