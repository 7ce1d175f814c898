import concurrent.futures
import csv
import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from spiqgan import cli
from spiqgan import training as tr
from spiqgan.generator import GeneratorConfig
from spiqgan.spikedata import load_spikes


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def make_surrogate(tmp_path, name="data.spk", neurons=2, cols=2000, seed=0,
                   rates="0.1,0.25", gain=3.0):
    path = tmp_path / name
    code = run_cli("surrogate", "--neurons", neurons, "--cols", cols,
                   "--rates", rates, "--burst-prob", 0.9,
                   "--burst-gain", gain, "--seed", seed, "--out", path)
    assert code == 0
    return path


def write_train_config(tmp_path, data_path, out_dir, steps=3, extra=""):
    cfg = tmp_path / "train.ini"
    cfg.write_text(f"""
[generator]
neurons = 2
timesteps = 1

[training]
total_gen_steps = {steps}
seed = 5
batch_size = 8
js_log_interval = 1
js_noise_draws = 64
{extra}

[paths]
data = {data_path}
out = {out_dir}
""")
    return cfg


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- surrogate ---------------------------------------------------------------

def test_surrogate_rates_and_determinism(tmp_path):
    a = make_surrogate(tmp_path, "a.spk", neurons=2, cols=100_000, seed=7,
                       rates="0.1,0.1", gain=1.0)
    b = make_surrogate(tmp_path, "b.spk", neurons=2, cols=100_000, seed=7,
                       rates="0.1,0.1", gain=1.0)
    assert a.read_bytes() == b.read_bytes()
    m = load_spikes(a)
    emp = m.data.mean(axis=1)
    sigma = np.sqrt(0.1 * 0.9 / 100_000)
    assert (np.abs(emp - 0.1) < 3 * sigma).all()


def test_surrogate_invalid_probability(tmp_path):
    code = run_cli("surrogate", "--neurons", 2, "--cols", 10,
                   "--rates", "0.8,0.8", "--burst-gain", 2.0,
                   "--out", tmp_path / "x.spk")
    assert code == 1


def test_surrogate_via_config_file(tmp_path):
    cfg = tmp_path / "surr.ini"
    cfg.write_text("[surrogate]\nneurons = 2\ncols = 50\nrates = 0.2\n")
    out = tmp_path / "from_cfg.spk"
    assert run_cli("surrogate", "--config", cfg, "--out", out) == 0
    m = load_spikes(out)
    assert m.data.shape == (2, 50)
    import configparser
    snap = configparser.ConfigParser(interpolation=None)
    snap.read(str(out) + ".config.ini")
    assert snap["surrogate"]["burst_prob"] == "0.9"
    assert snap["surrogate"]["burst_gain"] == "2.0"
    assert snap["surrogate"]["bin_width"] == "0.02"


# --- bad input -------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["train", "--config", "{cfg}", "--set", "generator.noise_high=inf"],
    ["surrogate", "--neurons", "2", "--cols", "10", "--rates", "abc",
     "--out", "{out}"],
    ["surrogate", "--neurons", "2", "--cols", "10", "--rates", "0.1,0.2,0.3",
     "--out", "{out}"],
    ["evaluate", "--generated", "{data}", "--reference", "{data}",
     "--neurons", "1,x", "--timesteps", "1", "--out", "{out}"],
    ["train", "--config", "{bad_cfg}"],
    ["evaluate", "--generated", "{bad_spk}", "--reference", "{data}",
     "--neurons", "2", "--timesteps", "1", "--out", "{out}"],
    ["train", "--config", "{cfg}", "--seed", str(2**128)],
    ["generate", "--checkpoint", "{ckpt}", "--count", "5",
     "--seed", str(2**128), "--out", "{out}"],
], ids=["infinite-noise-bound", "unparsable-rates", "rates-per-neuron-mismatch",
        "unparsable-neuron-list", "non-utf8-config", "non-utf8-spikes",
        "train-seed-2^128", "generate-seed-2^128"])
def test_bad_input_exits_1_with_one_line_diagnostic(tmp_path, capsys, argv):
    data = make_surrogate(tmp_path, cols=100)
    ckpt = trained_checkpoint(tmp_path) if "{ckpt}" in argv else None
    cfg = write_train_config(tmp_path, data, tmp_path / "run")
    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_bytes(b"[generator]\nneurons = 2\xff\n")
    bad_spk = tmp_path / "bad.spk"
    bad_spk.write_bytes(b"SPIKES v1 2 2 0.02\n0\xff\n01\n")
    capsys.readouterr()
    code = run_cli(*[arg.format(cfg=cfg, data=data, out=tmp_path / "out",
                                ckpt=ckpt, bad_cfg=bad_cfg, bad_spk=bad_spk)
                     for arg in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("override", [
    "training.batch_size=8x", "training.lr_gen=fast",
    "training.clip_enabled=maybe", "window.neuron_subset=1,x",
], ids=["int", "float", "bool", "list"])
def test_bad_value_diagnostic_names_the_key(tmp_path, capsys, override):
    data = make_surrogate(tmp_path, cols=100)
    cfg = write_train_config(tmp_path, data, tmp_path / "run")
    capsys.readouterr()
    assert run_cli("train", "--config", cfg, "--set", override) == 1
    key = override.split("=", 1)[0]
    assert f"error: bad value for {key}: " in capsys.readouterr().err


# --- train ---------------------------------------------------------------------

def test_train_missing_data_exits_2(tmp_path):
    cfg = write_train_config(tmp_path, tmp_path / "nope.spk", tmp_path / "out")
    assert run_cli("train", "--config", cfg) == 2


def test_train_zero_steps_checkpoint_equals_init(tmp_path):
    data = make_surrogate(tmp_path)
    out = tmp_path / "out"
    cfg = write_train_config(tmp_path, data, out, steps=0)
    assert run_cli("train", "--config", cfg) == 0
    ckpt = tr.load_checkpoint(out / "checkpoint.ckpt")
    fresh = tr.init_trainer(ckpt.train_cfg, ckpt.gen_cfg)
    np.testing.assert_array_equal(ckpt.gen_params.theta,
                                  fresh.gen_params.theta)
    assert (out / "train_log.csv").read_text() == \
        "step,loss_critic,loss_gen,count_gap,js_divergence\n"
    assert (out / "resolved_config.ini").exists()


def test_train_unknown_key_rejected(tmp_path):
    data = make_surrogate(tmp_path)
    cfg = write_train_config(tmp_path, data, tmp_path / "out",
                             extra="mystery_knob = 3")
    assert run_cli("train", "--config", cfg) == 1


def test_train_malformed_ini_exits_1(tmp_path):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("neurons = 2\nno section header here\n")
    assert run_cli("train", "--config", cfg) == 1


def test_generate_negative_seed_exits_1(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    assert run_cli("generate", "--checkpoint", ckpt, "--count", 5,
                   "--seed", -4, "--out", tmp_path / "g.spk") == 1


def test_train_resolved_snapshot_defaults(tmp_path):
    data = make_surrogate(tmp_path)
    out = tmp_path / "out"
    cfg = tmp_path / "minimal.ini"
    cfg.write_text(f"""
[generator]
neurons = 2
timesteps = 1

[training]
total_gen_steps = 0

[paths]
data = {data}
out = {out}
""")
    assert run_cli("train", "--config", cfg) == 0
    import configparser
    snap = configparser.ConfigParser(interpolation=None)
    snap.read(out / "resolved_config.ini")
    assert snap["training"]["batch_size"] == "32"
    assert snap["training"]["lr_gen"] == "0.05"
    assert snap["training"]["lr_critic"] == "0.002"
    assert snap["training"]["critic_steps_per_gen"] == "2"
    assert snap["generator"]["layers"] == "4"

    # every other key holds its config dataclass default
    ini_key = {"n_feature": "neurons", "n_patches": "timesteps",
               "n_layers": "layers", "n_aux": "aux_qubits"}
    given = {"neurons": "2", "timesteps": "1", "total_gen_steps": "0"}
    for section, cls in (("generator", GeneratorConfig),
                         ("training", tr.TrainConfig)):
        expected = {}
        for f in dataclasses.fields(cls):
            key = ini_key.get(f.name, f.name)
            expected[key] = given.get(key) or cli._format_value(f.default)
        assert dict(snap[section]) == expected


def test_train_snapshot_refeeds_identically(tmp_path):
    data = make_surrogate(tmp_path)
    out1 = tmp_path / "out1"
    cfg = write_train_config(tmp_path, data, out1, steps=2)
    assert run_cli("train", "--config", cfg) == 0
    out2 = tmp_path / "out2"
    assert run_cli("train", "--config", out1 / "resolved_config.ini",
                   "--out", out2) == 0
    assert (out1 / "train_log.csv").read_bytes() == \
        (out2 / "train_log.csv").read_bytes()


def test_train_set_override(tmp_path):
    data = make_surrogate(tmp_path)
    out = tmp_path / "out"
    cfg = write_train_config(tmp_path, data, out, steps=0)
    assert run_cli("train", "--config", cfg, "--set",
                   "training.batch_size=16") == 0
    ckpt = tr.load_checkpoint(out / "checkpoint.ckpt")
    assert ckpt.train_cfg.batch_size == 16


def test_train_determinism_bytes(tmp_path):
    data = make_surrogate(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        cfg = write_train_config(tmp_path, data, out, steps=3)
        assert run_cli("train", "--config", cfg) == 0
        outs.append(out)
    assert (outs[0] / "train_log.csv").read_bytes() == \
        (outs[1] / "train_log.csv").read_bytes()
    assert (outs[0] / "checkpoint.ckpt").read_bytes() == \
        (outs[1] / "checkpoint.ckpt").read_bytes()


# --- generate ---------------------------------------------------------------------

def trained_checkpoint(tmp_path, steps=2):
    data = make_surrogate(tmp_path)
    out = tmp_path / "trained"
    cfg = write_train_config(tmp_path, data, out, steps=steps)
    assert run_cli("train", "--config", cfg) == 0
    return out / "checkpoint.ckpt"


def test_generate_zero_count_refused(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    assert run_cli("generate", "--checkpoint", ckpt, "--count", 0,
                   "--out", tmp_path / "gen.spk") == 1


def test_generate_deterministic(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    a, b = tmp_path / "a.spk", tmp_path / "b.spk"
    assert run_cli("generate", "--checkpoint", ckpt, "--count", 50,
                   "--seed", 3, "--out", a) == 0
    assert run_cli("generate", "--checkpoint", ckpt, "--count", 50,
                   "--seed", 3, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    m = load_spikes(a)
    assert m.data.shape == (2, 50)


def test_generate_version_mismatch_exits_1(tmp_path):
    import struct
    import zlib
    ckpt_path = trained_checkpoint(tmp_path)
    blob = bytearray(ckpt_path.read_bytes())[:-4]
    struct.pack_into("<I", blob, len(tr.CHECKPOINT_MAGIC), 2)
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    assert run_cli("generate", "--checkpoint", bad, "--count", 5,
                   "--out", tmp_path / "gen.spk") == 1


def rewrite_checkpoint_header(ckpt_path, out_path, edit):
    """Copy a checkpoint with its JSON header edited and a valid CRC."""
    import json
    import struct
    import zlib
    blob = ckpt_path.read_bytes()
    at = len(tr.CHECKPOINT_MAGIC) + 4
    (length,) = struct.unpack_from("<I", blob, at)
    header = json.loads(blob[at + 4:at + 4 + length])
    edit(header)
    text = json.dumps(header, sort_keys=True).encode()
    body = (blob[:at] + struct.pack("<I", len(text)) + text
            + blob[at + 4 + length:-4])
    out_path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return out_path


@pytest.mark.parametrize("edit,needle", [
    (lambda h: h["gen_cfg"].update(bogus=1), "unknown keys ['bogus']"),
    (lambda h: h["gen_cfg"].update(n_feature=3), "gen_theta"),
    (lambda h: h["tensors"][7][1].reverse(), "adam_critic_m0"),
    (lambda h: h.pop("window"), "malformed checkpoint"),
], ids=["unknown_gen_cfg_key", "n_feature_vs_theta_shape",
        "transposed_adam_tensor", "missing_window"])
def test_generate_inconsistent_checkpoint_header_exits_1(tmp_path, capsys,
                                                         edit, needle):
    bad = rewrite_checkpoint_header(trained_checkpoint(tmp_path),
                                    tmp_path / "bad.ckpt", edit)
    capsys.readouterr()
    assert run_cli("generate", "--checkpoint", bad, "--count", 5,
                   "--out", tmp_path / "gen.spk") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err
    assert not (tmp_path / "gen.spk").exists()


def test_generate_frequencies_match_model_distribution(tmp_path):
    ckpt_path = trained_checkpoint(tmp_path)
    out = tmp_path / "big.spk"
    count = 100_000
    assert run_cli("generate", "--checkpoint", ckpt_path, "--count", count,
                   "--seed", 11, "--out", out) == 0
    ckpt = tr.load_checkpoint(ckpt_path)
    z, _ = tr.generation_noise(ckpt.gen_cfg, 11, count)
    from spiqgan import generator as gen
    th = np.broadcast_to(ckpt.gen_params.theta[0], (count, 4, 2, 2))
    probs = gen.batch_patch_probs(ckpt.gen_cfg, th, z[:, 0])
    m = load_spikes(out)
    windows = m.data.reshape(2, count, 1).transpose(1, 0, 2)
    idx = windows[:, 0, 0].astype(int) + 2 * windows[:, 1, 0].astype(int)
    freq = np.bincount(idx, minlength=4) / count
    mean_p = probs.mean(axis=0)
    sigma = np.sqrt((probs * (1 - probs)).sum(axis=0)) / count
    assert (np.abs(freq - mean_p) <= 3 * sigma + 1e-12).all()


# --- evaluate ----------------------------------------------------------------------

def test_evaluate_self_comparison_is_exact_zero(tmp_path):
    data = make_surrogate(tmp_path, cols=400)
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--generated", data, "--reference", data,
                   "--neurons", 2, "--timesteps", 1, "--out", out) == 0
    rows = {r["metric"]: r["value"] for r in read_csv(out / "summary.csv")}
    assert float(rows["mse_k_probability"]) == 0.0
    assert float(rows["mse_firing_rate"]) == 0.0
    assert float(rows["js_divergence"]) == 0.0
    assert (out / "generated" / "k_probability.csv").exists()
    assert (out / "reference" / "firing_rate.csv").exists()


def test_evaluate_disjoint_distributions_js_one(tmp_path):
    zeros = tmp_path / "zeros.spk"
    ones = tmp_path / "ones.spk"
    zeros.write_text("SPIKES v1 2 6 0.02\n000000\n000000\n")
    ones.write_text("SPIKES v1 2 6 0.02\n111111\n111111\n")
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--generated", zeros, "--reference", ones,
                   "--neurons", 2, "--timesteps", 1, "--out", out) == 0
    rows = {r["metric"]: r["value"] for r in read_csv(out / "summary.csv")}
    assert float(rows["js_divergence"]) == pytest.approx(1.0)


def test_evaluate_shape_mismatch_exits_1(tmp_path):
    data = make_surrogate(tmp_path, cols=100)
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--generated", data, "--reference", data,
                   "--neurons", 3, "--timesteps", 1, "--out", out) == 1


def test_evaluate_does_not_mutate_inputs(tmp_path):
    data = make_surrogate(tmp_path, cols=300)
    before = data.read_bytes()
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--generated", data, "--reference", data,
                   "--neurons", 2, "--timesteps", 1, "--out", out) == 0
    assert data.read_bytes() == before


# --- sweep --------------------------------------------------------------------------

def write_sweep_config(tmp_path, data, out, neurons="2", timesteps="1",
                       k_values="0,1", seeds="0", steps=2):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(f"""
[sweep]
neurons = {neurons}
timesteps = {timesteps}
k_values = {k_values}
seeds = {seeds}
eval_samples = 64

[training]
total_gen_steps = {steps}
batch_size = 8
js_log_interval = 1
js_noise_draws = 64

[paths]
data = {data}
out = {out}
""")
    return cfg


def test_sweep_single_cell_matches_train_generate_evaluate(tmp_path):
    data = make_surrogate(tmp_path, cols=500)
    out = tmp_path / "sweep"
    cfg = write_sweep_config(tmp_path, data, out, k_values="1", seeds="5",
                             steps=3)
    assert run_cli("sweep", "--config", cfg) == 0
    rows = read_csv(out / "sweep_results.csv")
    assert len(rows) == 1
    row = rows[0]

    # reproduce by composing the pieces the row is defined from
    train_out = tmp_path / "solo"
    tcfg = write_train_config(tmp_path, data, train_out, steps=3)
    assert run_cli("train", "--config", tcfg) == 0
    gen_file = tmp_path / "gen.spk"
    assert run_cli("generate", "--checkpoint", train_out / "checkpoint.ckpt",
                   "--count", 64, "--seed", 5, "--out", gen_file) == 0
    eval_out = tmp_path / "eval"
    assert run_cli("evaluate", "--generated", gen_file, "--reference", data,
                   "--neurons", 2, "--timesteps", 1, "--out", eval_out) == 0
    summary = {r["metric"]: r["value"] for r in read_csv(eval_out / "summary.csv")}
    assert float(row["mse_kprob"]) == pytest.approx(
        float(summary["mse_k_probability"]), rel=1e-12)
    assert float(row["mse_rate"]) == pytest.approx(
        float(summary["mse_firing_rate"]), rel=1e-12)


def test_sweep_partial_failure_keeps_valid_rows(tmp_path):
    data = make_surrogate(tmp_path, cols=500)
    for jobs in (1, 2):
        out = tmp_path / f"sweep-jobs{jobs}"
        # timestep 600 exceeds the 500 available bins -> that cell fails
        cfg = write_sweep_config(tmp_path, data, out, timesteps="1,600",
                                 k_values="1", steps=1)
        assert run_cli("sweep", "--config", cfg, "--jobs", jobs) == 1
        rows = read_csv(out / "sweep_results.csv")
        assert len(rows) == 1
        assert rows[0]["t"] == "1"
        failures = read_csv(out / "sweep_failures.csv")
        assert len(failures) == 1
        assert failures[0]["t"] == "600"


def _die(*args, **kwargs):
    os._exit(1)


class _OneCellAtATimePool(concurrent.futures.ProcessPoolExecutor):
    """Waits for each submitted cell, so a worker that dies breaks the pool
    before the next cell is submitted."""

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        concurrent.futures.wait([future])
        return future


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched module")
def test_sweep_broken_pool_records_failed_cells(tmp_path, monkeypatch):
    data = make_surrogate(tmp_path, cols=500)
    out = tmp_path / "sweep"
    cfg = write_sweep_config(tmp_path, data, out, timesteps="1,2,3",
                             k_values="0,1", steps=1)
    monkeypatch.setattr(cli, "train", _die)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _OneCellAtATimePool)
    assert run_cli("sweep", "--config", cfg, "--jobs", 2) == 1
    assert read_csv(out / "sweep_results.csv") == []
    failures = read_csv(out / "sweep_failures.csv")
    assert [(r["t"], r["K"]) for r in failures] == [
        (t, k) for t in ("1", "2", "3") for k in ("0.0", "1.0")]


def test_sweep_parallel_matches_sequential(tmp_path):
    data = make_surrogate(tmp_path, cols=500)
    seq_out = tmp_path / "seq"
    par_out = tmp_path / "par"
    for out, jobs in ((seq_out, 1), (par_out, 2)):
        cfg = write_sweep_config(tmp_path, data, out, k_values="0,1",
                                 seeds="0", steps=2)
        assert run_cli("sweep", "--config", cfg, "--jobs", jobs) == 0
    assert (seq_out / "sweep_results.csv").read_bytes() == \
        (par_out / "sweep_results.csv").read_bytes()


def test_numerical_failure_exits_3(tmp_path, monkeypatch):
    from spiqgan.errors import NumericalError

    def explode(*args, **kwargs):
        raise NumericalError("critic loss is not finite: nan")

    monkeypatch.setattr(cli, "train", explode)
    data = make_surrogate(tmp_path)
    cfg = write_train_config(tmp_path, data, tmp_path / "out", steps=1)
    assert run_cli("train", "--config", cfg) == 3


def test_sweep_loss_diff_sign_convention(tmp_path):
    data = make_surrogate(tmp_path, cols=500)
    out = tmp_path / "sweep"
    cfg = write_sweep_config(tmp_path, data, out, k_values="0,1",
                             seeds="0,1", steps=2)
    assert run_cli("sweep", "--config", cfg) == 0
    results = read_csv(out / "sweep_results.csv")
    assert len(results) == 4
    diff_rows = read_csv(out / "loss_diff.csv")
    assert len(diff_rows) == 1
    by_k = {}
    for r in results:
        by_k.setdefault(float(r["K"]), []).append(r)
    expected_kprob = (np.mean([float(r["mse_kprob"]) for r in by_k[0.0]])
                      - np.mean([float(r["mse_kprob"]) for r in by_k[1.0]]))
    assert float(diff_rows[0]["kprob_mse_diff"]) == pytest.approx(
        expected_kprob, rel=1e-12)
