import concurrent.futures
import csv
import dataclasses
import itertools
import multiprocessing
import os
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spiqgan import cli
from spiqgan import training as tr
from spiqgan.errors import CheckpointFormatError, ConfigurationError
from spiqgan.generator import MAX_QUBITS, GeneratorConfig
from spiqgan.spikedata import load_spikes

from _oracles import (brute_autocorrelogram, brute_firing_rate,
                      brute_js_divergence, brute_k_probability,
                      brute_pairwise_cov, brute_state_histogram,
                      brute_windows, reference_load_spikes)


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
    ["evaluate", "--generated", "{big_spk}", "--reference", "{data}",
     "--neurons", "2", "--timesteps", "1", "--out", "{out}"],
    ["evaluate", "--generated", "{accent_spk}", "--reference", "{data}",
     "--neurons", "2", "--timesteps", "1", "--out", "{out}"],
    ["train", "--config", "{cfg}", "--set", "generator.noise_low=-1e308",
     "--set", "generator.noise_high=1e308"],
    ["generate", "--checkpoint", "{wide_ckpt}", "--count", "5",
     "--out", "{out}"],
    ["train", "--config", "{cfg}", "--set", "training.clip_c=nan"],
    ["train", "--config", "{cfg}", "--set", "training.k_coeff=nan"],
    ["train", "--config", "{cfg}", "--set", "training.lr_gen=inf"],
    ["train", "--config", "{cfg}", "--set", "training.k_coeff=inf"],
    ["train", "--config", "{cfg}", "--set", "training.clip_c=inf"],
    ["train", "--config", "{cfg}", "--set", "training.lr_critic=-inf"],
    ["surrogate", "--neurons", "2", "--cols", "10", "--rates", "0.1",
     "--burst-gain", "nan", "--out", "{out}"],
    # 2.8 PiB of angles: the allocation fails at once.
    ["train", "--config", "{cfg}", "--set",
     "generator.layers=100000000000000"],
    # 0.0 <= -0.0, but NumPy's uniform refuses the pair.
    ["train", "--config", "{cfg}", "--set", "generator.noise_high=-0.0"],
    # Past 2^63 bytes NumPy raises ValueError, not MemoryError.
    ["train", "--config", "{cfg}", "--set", f"generator.layers={2**200}"],
    ["surrogate", "--neurons", "2", "--cols", str(2**63), "--rates", "0.1",
     "--out", "{out}"],
    ["train", "--config", "{cfg}", "--set", "training.penalty_mode=signed"],
    # Above 2**64 the substream counter cannot index the steps; refused
    # before any step runs or any noise block is allocated.
    ["train", "--config", "{cfg}", "--set",
     f"training.critic_steps_per_gen={2**200}"],
    ["train", "--config", "{cfg}", "--set",
     f"training.total_gen_steps={2**200}"],
], ids=["infinite-noise-bound", "unparsable-rates", "rates-per-neuron-mismatch",
        "unparsable-neuron-list", "non-utf8-config", "non-utf8-spikes",
        "train-seed-2^128", "generate-seed-2^128", "oversized-spikes-header",
        "non-ascii-spike-entry", "train-noise-range-overflow",
        "generate-noise-range-overflow", "nan-clip-c", "nan-k-coeff",
        "infinite-lr-gen", "infinite-k-coeff", "infinite-clip-c",
        "infinite-lr-critic", "nan-burst-gain", "out-of-memory",
        "negative-zero-noise-high", "layers-2^200", "surrogate-cols-2^63",
        "signed-penalty-mode", "critic-steps-2^200", "gen-steps-2^200"])
def test_bad_input_exits_1_with_one_line_diagnostic(tmp_path, capsys, argv):
    data = make_surrogate(tmp_path, cols=100)
    ckpt = (trained_checkpoint(tmp_path)
            if {"{ckpt}", "{wide_ckpt}"} & set(argv) else None)
    wide_ckpt = ckpt and rewrite_checkpoint_header(
        ckpt, tmp_path / "wide.ckpt",
        lambda h: h["gen_cfg"].update(noise_low=-1e308, noise_high=1e308))
    cfg = write_train_config(tmp_path, data, tmp_path / "run")
    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_bytes(b"[generator]\nneurons = 2\xff\n")
    bad_spk = tmp_path / "bad.spk"
    bad_spk.write_bytes(b"SPIKES v1 2 2 0.02\n0\xff\n01\n")
    big_spk = tmp_path / "big.spk"
    big_spk.write_text("SPIKES v1 1000000 1000000000 0.02\n01\n")
    accent_spk = tmp_path / "accent.spk"
    accent_spk.write_text("SPIKES v1 2 2 0.02\n0\u00e9\n01\n",
                          encoding="utf-8")
    capsys.readouterr()
    code = run_cli(*[arg.format(cfg=cfg, data=data, out=tmp_path / "out",
                                ckpt=ckpt, wide_ckpt=wide_ckpt,
                                bad_cfg=bad_cfg, bad_spk=bad_spk,
                                big_spk=big_spk, accent_spk=accent_spk)
                     for arg in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("override", [
    "training.batch_size=8x", "training.lr_gen=fast",
    "window.neuron_subset=1,x",
], ids=["int", "float", "list"])
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
    fresh = tr.init_trainer(ckpt.train_cfg, ckpt.gen_cfg, ckpt.window,
                            ckpt.bin_width)
    np.testing.assert_array_equal(ckpt.gen_params.theta,
                                  fresh.gen_params.theta)
    assert (out / "train_log.csv").read_text() == \
        "step,loss_critic,loss_gen,count_gap,js_divergence\n"
    assert (out / "resolved_config.ini").exists()


def test_train_unknown_key_rejected(tmp_path, capsys):
    data = make_surrogate(tmp_path)
    cfg = write_train_config(tmp_path, data, tmp_path / "out",
                             extra="mystery_knob = 3")
    assert run_cli("train", "--config", cfg) == 1
    # a key that older versions accepted is unknown like any other
    cfg = write_train_config(tmp_path, data, tmp_path / "out")
    capsys.readouterr()
    assert run_cli("train", "--config", cfg, "--set",
                   "generator.resample_noise_each_layer=true") == 1
    assert capsys.readouterr().err == (
        "error: unknown key 'resample_noise_each_layer' in section "
        "[generator]\n")
    assert run_cli("train", "--config", cfg, "--set",
                   "paths.checkpoint=model.ckpt") == 1
    assert capsys.readouterr().err == (
        "error: unknown key 'checkpoint' in section [paths]\n")


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


def test_generate_refuses_non_finite_angles(tmp_path, capsys):
    ckpt = tr.load_checkpoint(trained_checkpoint(tmp_path))
    ckpt.gen_params.theta[0, 0, 0, 0] = np.nan
    bad = tmp_path / "nan.ckpt"
    tr.save_checkpoint(ckpt, bad)
    capsys.readouterr()
    assert run_cli("generate", "--checkpoint", bad, "--count", 5,
                   "--out", tmp_path / "gen.spk") == 1
    err = capsys.readouterr().err
    assert err == "error: checkpoint gen_theta has 1 of 16 angles not finite\n"
    assert not (tmp_path / "gen.spk").exists()


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
    (lambda h: h.update(bin_width=None), "bin_width must be float, got None"),
    (lambda h: h.update(bin_width="0.02"), "bin_width must be float"),
    (lambda h: h.update(bin_width=[0.02]), "bin_width must be float"),
    (lambda h: h.update(bin_width={}), "bin_width must be float"),
    (lambda h: h.update(bin_width=True), "bin_width must be float"),
    (lambda h: h.update(bin_width=0.0), "bin_width must be finite and > 0"),
    (lambda h: h.update(bin_width=float("inf")), "finite and > 0, got inf"),
    (lambda h: h["gen_cfg"].update(n_layers=4.0),
     "gen_cfg.n_layers must be int, got 4.0"),
    (lambda h: h["gen_cfg"].update(n_aux=False),
     "gen_cfg.n_aux must be int, got False"),
    (lambda h: h["gen_cfg"].update(noise_high="3.14"),
     "gen_cfg.noise_high must be float"),
    (lambda h: h["train_cfg"].update(penalty_mode=1),
     "train_cfg.penalty_mode must be str, got 1"),
    (lambda h: h["train_cfg"].update(penalty_mode="signed"),
     "penalty_mode must be one of ('absolute',), got 'signed'"),
    (lambda h: h["train_cfg"].update(k_coeff=float("nan")),
     "k_coeff must be finite, got nan"),
    (lambda h: h["train_cfg"].update(clip_enabled=True),
     "checkpoint train_cfg has unknown keys ['clip_enabled']"),
    (lambda h: h["gen_cfg"].update(resample_noise_each_layer=False),
     "checkpoint gen_cfg has unknown keys ['resample_noise_each_layer']"),
    (lambda h: h["rng"].update(seed=999), "differs in ['rng']"),
    (lambda h: h["rng"].update(seed="x"), "differs in ['rng']"),
    (lambda h: h.update(bogus=1), "differs in ['bogus']"),
    (lambda h: h["window"].update(bogus=1), "differs in ['window']"),
], ids=["unknown_gen_cfg_key", "n_feature_vs_theta_shape",
        "transposed_adam_tensor", "missing_window", "null_bin_width",
        "string_bin_width", "list_bin_width", "dict_bin_width",
        "bool_bin_width", "zero_bin_width", "infinite_bin_width",
        "float_n_layers", "bool_n_aux", "string_noise_high",
        "int_penalty_mode", "removed_signed_penalty", "nan_k_coeff",
        "removed_clip_enabled", "removed_resample", "other_rng_seed", "string_rng_seed",
        "extra_top_level_key", "extra_window_key"])
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


def test_generate_accepts_whole_numbers_for_float_header_fields(tmp_path):
    def edit(header):
        header["bin_width"] = 1
        header["gen_cfg"].update(noise_low=0, noise_high=3)
    ckpt = rewrite_checkpoint_header(trained_checkpoint(tmp_path),
                                     tmp_path / "ints.ckpt", edit)
    assert run_cli("generate", "--checkpoint", ckpt, "--count", 5,
                   "--out", tmp_path / "gen.spk") == 0
    assert load_spikes(tmp_path / "gen.spk").bin_width == 1.0


def _header_entries(node, path=()):
    """Paths of every entry of a JSON header, containers and leaves."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _header_entries(child, path + (key,))


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats() | st.text(max_size=6))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)


def _edit_entry(path, value):
    """A header edit that sets the entry at ``path`` to ``value``."""
    def edit(header):
        for key in path[:-1]:
            header = header[key]
        header[path[-1]] = value
    return edit


def test_generate_never_raises_on_any_checkpoint_header_entry(tmp_path):
    """Every header entry, replaced by a value of each JSON type with a
    valid CRC, makes ``generate`` exit with a code and never raise; an
    edited file that still loads saves again byte for byte."""
    ckpt = trained_checkpoint(tmp_path)
    bad, out = tmp_path / "bad.ckpt", tmp_path / "gen.spk"
    resaved = tmp_path / "resaved.ckpt"
    header = {}
    rewrite_checkpoint_header(ckpt, bad, header.update)
    entries = list(_header_entries(header))
    assert {("bin_width",), ("gen_cfg", "noise_high"),
            ("tensors", 0, 1, 0)} <= set(entries)

    @settings(max_examples=4, deadline=None)
    @given(st.tuples(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.text(max_size=6), st.lists(_JSON_VALUES, max_size=3),
                     st.dictionaries(st.text(max_size=4), _JSON_VALUES,
                                     max_size=3)))
    def check(values):
        for path in entries:
            for value in values:
                rewrite_checkpoint_header(ckpt, bad, _edit_entry(path, value))
                code = run_cli("generate", "--checkpoint", bad, "--count", 2,
                               "--out", out)
                assert code in (0, 1, 2, 3), (path, value)
                try:
                    loaded = tr.load_checkpoint(bad)
                except (CheckpointFormatError, ConfigurationError):
                    continue
                tr.save_checkpoint(loaded, resaved)
                assert resaved.read_bytes() == bad.read_bytes(), (path, value)

    check()


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    return trained_checkpoint(tmp_path_factory.mktemp("counts"))


# Header entries that ``load_checkpoint`` reads as counts, with the least
# value each takes; ``generate`` reads none of them.  The trained window is
# neurons (0, 1), so entry 0 of neuron_subset takes 0 and 7, not 1.
COUNT_ENTRIES = {"neuron_subset": (("window", "neuron_subset", 0), 0),
                 "window_len": (("window", "window_len"), 1),
                 "adam_gen_steps": (("adam_gen_steps",), 0),
                 "adam_critic_steps": (("adam_critic_steps",), 0),
                 "gen_step": (("rng", "gen_step"), 0)}


@pytest.mark.parametrize("value", [None, True, False, -1, 0, 7, 0.0, 2.5,
                                   "3", [1], {"a": 1}])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
def test_load_checkpoint_header_counts_are_ints(tmp_path, saved_checkpoint,
                                                entry, value):
    """Each count entry takes a JSON integer that is not a bool and is at
    least its least value, kept as read, so saving it again gives the same
    bytes; any other JSON value is a CheckpointFormatError."""
    path, least = COUNT_ENTRIES[entry]
    ckpt = rewrite_checkpoint_header(saved_checkpoint, tmp_path / "c.ckpt",
                                     _edit_entry(path, value))
    if type(value) is int and value >= least:
        again = tmp_path / "again.ckpt"
        tr.save_checkpoint(tr.load_checkpoint(ckpt), again)
        assert again.read_bytes() == ckpt.read_bytes()
    else:
        with pytest.raises(CheckpointFormatError, match=entry):
            tr.load_checkpoint(ckpt)


@pytest.mark.parametrize("value", [None, True, 3, 0.5, "01", {}, [0.5, 1.9],
                                   [True, False], ["0", "1"]])
def test_load_checkpoint_neuron_subset_is_a_list(tmp_path, saved_checkpoint,
                                                 value):
    ckpt = rewrite_checkpoint_header(
        saved_checkpoint, tmp_path / "c.ckpt",
        _edit_entry(("window", "neuron_subset"), value))
    with pytest.raises(CheckpointFormatError, match="neuron_subset"):
        tr.load_checkpoint(ckpt)


def test_generate_in_blocks_equals_one_draw(tmp_path):
    """A count that spans three sampling blocks gives the windows of one
    ``sample_batch`` over ``generation_noise``'s whole draw, and a smaller
    count gives their first windows."""
    from spiqgan import generator as gen
    ckpt_path = trained_checkpoint(tmp_path)
    count = 2 * tr.GENERATE_BLOCK + 5
    for name, n in (("big.spk", count), ("small.spk", 100)):
        assert run_cli("generate", "--checkpoint", ckpt_path, "--count", n,
                       "--seed", 3, "--out", tmp_path / name) == 0
    ckpt = tr.load_checkpoint(ckpt_path)
    windows = gen.sample_batch(ckpt.gen_cfg, ckpt.gen_params,
                               *tr.generation_noise(ckpt.gen_cfg, 3, count))
    big = load_spikes(tmp_path / "big.spk").data
    np.testing.assert_array_equal(
        big, windows.transpose(1, 0, 2).reshape(2, count))
    np.testing.assert_array_equal(
        load_spikes(tmp_path / "small.spk").data, big[:, :100])


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
    assert float(rows["mse_pairwise_cov"]) == 0.0
    assert float(rows["js_divergence"]) == 0.0
    assert (out / "generated" / "k_probability.csv").exists()
    assert (out / "reference" / "firing_rate.csv").exists()


def test_evaluate_csvs_equal_brute_force_oracles(tmp_path):
    """Every statistic evaluate writes, on both sides, equals its
    brute-force oracle over windows copied bin by bin from the text-parsed
    files, and so does every summary value.  The reference has 201
    four-bin windows and 3 spare columns and is read through rows 3, 0, 2;
    the generated file has 70 windows and 1 spare column."""
    t, subset = 4, [3, 0, 2]
    generated = make_surrogate(tmp_path, "gen.spk", neurons=3,
                               cols=70 * t + 1, seed=1, rates="0.1,0.3,0.2")
    reference = make_surrogate(tmp_path, "ref.spk", neurons=4,
                               cols=201 * t + 3, seed=2,
                               rates="0.2,0.1,0.3,0.25")
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--generated", generated,
                   "--reference", reference, "--neurons", "3,0,2",
                   "--timesteps", t, "--out", out) == 0
    bin_width = reference_load_spikes(reference)[1]
    oracles, histograms = {}, {}
    for side, path, rows, count in (("generated", generated, [0, 1, 2], 70),
                                    ("reference", reference, subset, 201)):
        samples = list(brute_windows(reference_load_spikes(path)[0], rows,
                                     t, t))
        assert len(samples) == count
        oracles[side] = {
            "firing_rate": brute_firing_rate(samples, bin_width),
            "pairwise_covariance": brute_pairwise_cov(samples),
            "k_probability": brute_k_probability(samples),
            "autocorrelogram": brute_autocorrelogram(samples, t - 1),
        }
        histograms[side] = brute_state_histogram(samples)
        for name, expected in oracles[side].items():
            got = [float(r["value"])
                   for r in read_csv(out / side / f"{name}.csv")]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        meta = read_csv(out / side / "meta.csv")
        assert {r["key"]: r["value"] for r in meta}["samples"] == str(count)
    gen, ref = oracles["generated"], oracles["reference"]

    def mse(name):
        return np.mean((gen[name] - ref[name]) ** 2)

    expected = {"mse_k_probability": mse("k_probability"),
                "mse_firing_rate": mse("firing_rate"),
                "mse_pairwise_cov": mse("pairwise_covariance"),
                "js_divergence": brute_js_divergence(
                    histograms["generated"], histograms["reference"])}
    summary = {r["metric"]: float(r["value"])
               for r in read_csv(out / "summary.csv")}
    assert summary.keys() == expected.keys()
    for key, value in expected.items():
        assert summary[key] == pytest.approx(value, rel=1e-12, abs=1e-12)


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


def test_overflowing_statistics_exit_3_without_output(tmp_path, capsys):
    """A subnormal bin width overflows the firing rates: evaluate exits 3
    with one line, no warning and no output, and the sweep records the
    cell as failed."""
    data = tmp_path / "tiny.spk"
    assert run_cli("surrogate", "--neurons", 2, "--cols", 100,
                   "--rates", 0.2, "--bin-width", 1e-320, "--out", data) == 0
    out = tmp_path / "eval"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("evaluate", "--generated", data, "--reference", data,
                       "--neurons", 2, "--timesteps", 2, "--out", out)
    assert code == 3 and not caught
    err = capsys.readouterr().err
    assert err == ("numerical failure: generated firing_rate is not finite "
                   "at bin_width 1e-320\n")
    assert not out.exists()
    sweep_out = tmp_path / "sweep"
    cfg = write_sweep_config(tmp_path, data, sweep_out, k_values="1",
                             steps=1)
    assert run_cli("sweep", "--config", cfg) == 1
    assert read_csv(sweep_out / "sweep_results.csv") == []
    (failure,) = read_csv(sweep_out / "sweep_failures.csv")
    assert failure["error"].startswith("generated firing_rate is not finite")


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


def test_evaluate_one_neuron_round_trip(tmp_path):
    data = tmp_path / "one.spk"
    assert run_cli("surrogate", "--neurons", 1, "--cols", 500,
                   "--rates", 0.2, "--out", data) == 0
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--generated", data, "--reference", data,
                   "--neurons", 1, "--timesteps", 3, "--out", out) == 0
    for side in ("generated", "reference"):
        cov = (out / side / "pairwise_covariance.csv").read_text()
        assert cov == "stat,index,value\n"
        assert len(read_csv(out / side / "firing_rate.csv")) == 1
        assert len(read_csv(out / side / "autocorrelogram.csv")) == 3
    rows = {r["metric"]: r["value"] for r in read_csv(out / "summary.csv")}
    assert rows["mse_pairwise_cov"] == ""
    assert "max_lag" not in (out / "resolved_config.ini").read_text()


def test_evaluate_has_no_max_lag_flag(tmp_path, capsys):
    """Evaluate always scores lags 0..t-1; the parser refuses --max-lag."""
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", "--generated", "g.spk", "--reference", "r.spk",
                "--neurons", 2, "--timesteps", 5, "--max-lag", 3,
                "--out", tmp_path / "eval")
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-lag 3" in capsys.readouterr().err


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
    cov = [np.array([float(r["value"]) for r in read_csv(
        eval_out / side / "pairwise_covariance.csv")])
        for side in ("generated", "reference")]
    assert float(summary["mse_pairwise_cov"]) == pytest.approx(
        np.mean((cov[0] - cov[1]) ** 2), rel=1e-12)


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


# An eval_samples of 2^200 overflows NumPy's dimension limit and one of
# 10^15 asks for 1.8 PiB per cell; neither may cost a cell's training.
@pytest.mark.parametrize("override", [
    "sweep.eval_samples=0", "sweep.eval_samples=-1", "sweep.neurons=",
    "sweep.timesteps=", "sweep.k_values=", "sweep.seeds=",
    pytest.param(f"sweep.eval_samples={2**200}",
                 id="sweep.eval_samples=2**200"),
    pytest.param(f"sweep.eval_samples={10**15}",
                 id="sweep.eval_samples=10**15"),
])
def test_sweep_rejects_bad_grid_before_training(tmp_path, capsys,
                                                monkeypatch, override):
    data = make_surrogate(tmp_path, cols=500)
    out = tmp_path / "sweep"
    cfg = write_sweep_config(tmp_path, data, out)
    trained = []
    monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
    capsys.readouterr()
    assert run_cli("sweep", "--config", cfg, "--set", override) == 1
    assert not trained
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert override.split("=", 1)[0] in err
    assert not (out / "sweep_results.csv").exists()


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


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the worker count it is
    asked for and runs each cell in this process, so no process starts."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_sweep_starts_at_most_one_worker_per_cell(tmp_path, monkeypatch):
    data = make_surrogate(tmp_path, cols=500)
    outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 64)}
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InlinePool)
    for jobs, out in outs.items():
        cfg = write_sweep_config(tmp_path, data, out, k_values="0,1",
                                 seeds="0", steps=2)
        assert run_cli("sweep", "--config", cfg, "--jobs", jobs) == 0
    assert _InlinePool.max_workers == [2]
    assert len(read_csv(outs[1] / "sweep_results.csv")) == 2
    for name in ("sweep_results.csv", "loss_diff.csv"):
        assert (outs[1] / name).read_bytes() == (outs[64] / name).read_bytes()


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    data = make_surrogate(tmp_path, cols=500)
    out = tmp_path / "sweep"
    cfg = write_sweep_config(tmp_path, data, out)
    trained = []
    monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
    # --jobs is checked before the config is read.
    monkeypatch.setattr(cli, "_read_config", None)
    capsys.readouterr()
    assert run_cli("sweep", "--config", cfg, "--jobs", jobs) == 1
    assert not trained
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--jobs" in err
    assert not out.exists()


def test_overflowing_generator_update_exits_3_without_a_checkpoint(
        tmp_path, capsys):
    """An update that leaves an angle non-finite stops training before any
    log or checkpoint is written, with one line and no NumPy warnings."""
    data = make_surrogate(tmp_path, neurons=3, cols=300, rates="0.1")
    out = tmp_path / "run"
    cfg = write_train_config(tmp_path, data, out, steps=2)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("train", "--config", cfg, "--set",
                       "generator.timesteps=2", "--set",
                       "training.batch_size=4", "--set",
                       "training.lr_gen=1e308")
    assert code == 3 and not caught
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: generator update left ")
    assert err.count("\n") == 1
    assert not out.exists()


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


# --- fuzz ----------------------------------------------------------------------

# A valid run config and surrogate config, as INI sections; the run's
# [paths] section is filled in per draw.
_FUZZ_RUN = {
    "generator": {"neurons": "2", "timesteps": "2", "layers": "2"},
    "training": {"total_gen_steps": "2", "batch_size": "4",
                 "js_log_interval": "1", "js_noise_draws": "16"},
    "window": {"neuron_subset": "0,1"},
}
_FUZZ_SURROGATE = {"neurons": "2", "cols": "50", "rates": "0.1,0.2",
                   "bin_width": "0.02"}
_FUZZ_KEYS = sorted(
    {f"generator.{key}" for key in cli._GENERATOR_SCHEMA}
    | {f"training.{key}" for key in cli._TRAINING_SCHEMA}
    | {"window.neuron_subset", "paths.data"}
    | {f"surrogate.{key}" for key in cli._SURROGATE_SCHEMA})
_FUZZ_REQUIRED = ["generator.neurons", "generator.timesteps",
                  "training.total_gen_steps", "paths.data",
                  "surrogate.neurons", "surrogate.cols", "surrogate.rates"]
_FUZZ_VALUES = ["", "0", "-1", "-0.0", "nan", "inf", "1e308", str(2**200),
                "spike", "1,2"]


def _mutations(keys, required, unknown):
    """One mutation: a config key set to a fuzz value, a required key
    dropped, an unknown key added, or the spike file's bytes edited."""
    return st.one_of(
        st.tuples(st.just("set"), st.sampled_from(keys),
                  st.sampled_from(_FUZZ_VALUES)),
        st.tuples(st.just("drop"), st.sampled_from(required)),
        st.tuples(st.just("add"), st.sampled_from(unknown)),
        st.tuples(st.just("truncate"), st.integers(0, 2**16)),
        st.tuples(st.just("insert"), st.integers(0, 2**16),
                  st.binary(min_size=1, max_size=3)),
        st.tuples(st.just("flip"), st.integers(0, 2**16),
                  st.integers(1, 255)),
    )


_FUZZ_MUTATIONS = _mutations(
    _FUZZ_KEYS, _FUZZ_REQUIRED,
    ["generator.colour", "surrogate.colour", "extra.colour"])

# A valid one-cell sweep config; its [paths] section is filled in per draw.
_FUZZ_SWEEP = {
    "sweep": {"neurons": "2", "timesteps": "2", "k_values": "1",
              "seeds": "0", "eval_samples": "16"},
    "generator": {"layers": "2"},
    "training": dict(_FUZZ_RUN["training"]),
}
_FUZZ_SWEEP_MUTATIONS = _mutations(
    sorted({f"generator.{key}" for key in cli._GENERATOR_SCHEMA}
           | {f"training.{key}" for key in cli._TRAINING_SCHEMA}
           | {f"sweep.{key}" for key in cli._SWEEP_SCHEMA}
           | {"paths.data"}),
    ["sweep.neurons", "sweep.timesteps", "training.total_gen_steps",
     "paths.data"],
    ["generator.colour", "sweep.colour", "extra.colour"])


def _mutate(sections, spikes, mutation):
    """Apply one mutation to the INI ``sections`` (section -> key -> text)
    or to the spike file's bytes; returns the new bytes."""
    kind, *args = mutation
    if kind in ("set", "drop", "add"):
        section, key = args[0].split(".")
        values = sections.setdefault(section, {})
        if kind == "drop":
            values.pop(key, None)
        else:
            values[key] = args[1] if kind == "set" else "blue"
        return spikes
    at = args[0] % (len(spikes) + 1)
    if kind == "truncate":
        return spikes[:at]
    if kind == "insert":
        return spikes[:at] + args[1] + spikes[at:]
    at = min(at, len(spikes) - 1)
    if at < 0:
        return spikes
    return spikes[:at] + bytes([spikes[at] ^ args[1]]) + spikes[at + 1:]


def _cheap(sections) -> bool:
    """Whether a draw's run config, if valid, trains in well under a second:
    at most 4 qubits, 3 generator steps and 3 critic steps per step.  Step
    counts above 2**64 are refused before training starts."""
    def count(section, key, default):
        try:
            return int(sections.get(section, {}).get(key, default))
        except ValueError:
            return default

    def few(key, default):
        steps = count("training", key, default)
        return steps <= 3 or steps > tr.MAX_STEPS
    qubits = (count("generator", "neurons", 2)
              + count("generator", "aux_qubits", 0))
    return (not 4 < qubits <= MAX_QUBITS
            and few("total_gen_steps", 2) and few("critic_steps_per_gen", 2))


def _write_ini(path, sections):
    path.write_text("".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n"
                                   for key, value in values.items())
        for section, values in sections.items()))


def _run_fuzzed(capsys, *argv) -> int:
    """Exit code of one command, which must be 0-3; a nonzero one must come
    with exactly one stderr line and no warnings."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code)
    if code:
        assert err.count("\n") == 1 and not caught, (argv, err, caught)
    return code


def test_cli_never_raises_on_mutated_inputs(tmp_path, capsys):
    """``train``, ``generate``, ``evaluate`` and ``surrogate`` on a valid
    config and spike file with one to three mutations each return 0-3, and
    a nonzero code comes with exactly one stderr line and no warnings."""
    data = make_surrogate(tmp_path, neurons=3, cols=300, rates="0.1")
    spikes = data.read_bytes()
    fallback_ckpt = trained_checkpoint(tmp_path)
    draws = itertools.count()
    run = partial(_run_fuzzed, capsys)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_FUZZ_MUTATIONS, min_size=1, max_size=3))
    @example([("set", "training.lr_gen", "1e308")])
    def check(mutations):
        work = tmp_path / f"draw{next(draws)}"
        work.mkdir()
        sections = {**{s: dict(v) for s, v in _FUZZ_RUN.items()},
                    "paths": {"data": str(work / "data.spk"),
                              "out": str(work / "run")},
                    "surrogate": dict(_FUZZ_SURROGATE)}
        mutated = spikes
        for mutation in mutations:
            mutated = _mutate(sections, mutated, mutation)
        assume(_cheap(sections))
        (work / "data.spk").write_bytes(mutated)
        _write_ini(work / "surrogate.ini",
                   {"surrogate": sections.pop("surrogate")})
        _write_ini(work / "run.ini", sections)
        run("surrogate", "--config", work / "surrogate.ini",
            "--out", work / "surrogate.spk")
        trained = run("train", "--config", work / "run.ini") == 0
        ckpt = work / "run" / "checkpoint.ckpt" if trained else fallback_ckpt
        generated = work / "generated.spk"
        if run("generate", "--checkpoint", ckpt, "--count", 8,
               "--out", generated):
            generated = work / "data.spk"
        run("evaluate", "--generated", generated,
            "--reference", work / "data.spk", "--neurons", 2,
            "--timesteps", 2, "--out", work / "eval")

    check()


def test_sweep_never_raises_on_mutated_inputs(tmp_path, capsys):
    """``sweep`` of a one-cell grid, with one to three mutations of its
    config or spike file, returns 0-3, and a nonzero code comes with
    exactly one stderr line and no warnings."""
    spikes = make_surrogate(tmp_path, neurons=3, cols=300,
                            rates="0.1").read_bytes()
    draws = itertools.count()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_FUZZ_SWEEP_MUTATIONS, min_size=1, max_size=3))
    @example([("set", "training.lr_gen", "1e308")])
    @example([("set", "sweep.eval_samples", str(2**200))])
    @example([("set", "sweep.neurons", "1,2")])
    def check(mutations):
        work = tmp_path / f"draw{next(draws)}"
        work.mkdir()
        sections = {**{s: dict(v) for s, v in _FUZZ_SWEEP.items()},
                    "paths": {"data": str(work / "data.spk"),
                              "out": str(work / "sweep")}}
        mutated = spikes
        for mutation in mutations:
            mutated = _mutate(sections, mutated, mutation)
        assume(_cheap(sections))
        (work / "data.spk").write_bytes(mutated)
        _write_ini(work / "sweep.ini", sections)
        _run_fuzzed(capsys, "sweep", "--config", work / "sweep.ini")

    check()
