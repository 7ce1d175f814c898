"""Command-line surface: train, generate, evaluate, sweep, surrogate.

Configuration comes from flat key=value INI files with CLI-flag overrides
(``--set section.key=value``).  Every command writes a resolved snapshot
next to its outputs so each artifact is self-describing, and every command
is byte-deterministic given ``--seed``.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import stats as stats_mod
from . import training
from .errors import (CheckpointFormatError, ConfigurationError,
                     DataFormatError, NumericalError)
from .fileio import atomic_path
from .generator import GeneratorConfig, sample_batch
from .spikedata import (MAX_STATE_BITS, SpikeMatrix, WindowSpec, all_windows,
                        first_n_spec, load_spikes, save_spikes,
                        synthesize_surrogate)
from .training import (PURPOSE_SURROGATE, TrainConfig, generation_noise,
                       load_checkpoint, save_checkpoint, substream, train,
                       write_train_log)

# --- config schema ---------------------------------------------------------

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip() != "")


def _parse_flag(conv, text: str, flag: str):
    """``conv(text)`` for a command-line flag, as a validation error."""
    try:
        return conv(text)
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {flag}: {text!r}") from exc


_REQUIRED = object()

_GENERATOR_SCHEMA = {
    "neurons": (int, _REQUIRED),
    "timesteps": (int, _REQUIRED),
    "layers": (int, 4),
    "aux_qubits": (int, 0),
    "noise_low": (float, 0.0),
    "noise_high": (float, float(np.pi)),
    "resample_noise_each_layer": (_parse_bool, False),
}

_TRAINING_SCHEMA = {
    "total_gen_steps": (int, _REQUIRED),
    "seed": (int, 0),
    "batch_size": (int, 32),
    "lr_gen": (float, 0.05),
    "lr_critic": (float, 0.002),
    "k_coeff": (float, 1.0),
    "critic_steps_per_gen": (int, 2),
    "clip_c": (float, 0.01),
    "clip_enabled": (_parse_bool, True),
    "js_log_interval": (int, 25),
    "js_noise_draws": (int, 2048),
    "penalty_mode": (str, "absolute"),
}

_WINDOW_SCHEMA = {
    "neuron_subset": (_parse_int_list, ()),
}

_PATHS_SCHEMA = {
    "data": (str, _REQUIRED),
    "out": (str, "out"),
    "checkpoint": (str, ""),
}

_SWEEP_SCHEMA = {
    "neurons": (_parse_int_list, _REQUIRED),
    "timesteps": (_parse_int_list, _REQUIRED),
    "k_values": (_parse_float_list, (0.0, 1.0)),
    "seeds": (_parse_int_list, (0,)),
    "eval_samples": (int, 4096),
}

_SURROGATE_SCHEMA = {
    "neurons": (int, None),
    "cols": (int, None),
    "rates": (_parse_float_list, None),
    "burst_prob": (float, None),
    "burst_gain": (float, None),
    "bin_width": (float, None),
}


def _read_config(path: str | None, overrides: list[str],
                 allowed: dict[str, dict]) -> dict[str, dict]:
    """Parse an INI file plus ``section.key=value`` overrides against a schema."""
    raw: dict[str, dict[str, str]] = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigurationError(f"bad config file {path}: {exc}") from exc
        for section in parser.sections():
            raw[section] = dict(parser.items(section))
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigurationError(
                f"override {item!r} must look like section.key=value"
            )
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        raw.setdefault(section.strip(), {})[key.strip()] = value.strip()

    for section in raw:
        if section not in allowed:
            raise ConfigurationError(f"unknown config section [{section}]")
    resolved: dict[str, dict] = {}
    for section, schema in allowed.items():
        values = dict(raw.get(section, {}))
        out: dict = {}
        for key in values:
            if key not in schema:
                raise ConfigurationError(
                    f"unknown key {key!r} in section [{section}]"
                )
        for key, (conv, default) in schema.items():
            if key in values:
                try:
                    out[key] = conv(values[key])
                except ConfigurationError:
                    raise
                except ValueError as exc:
                    raise ConfigurationError(
                        f"bad value for {section}.{key}: {values[key]!r}"
                    ) from exc
            elif default is _REQUIRED:
                raise ConfigurationError(
                    f"missing required key {section}.{key}"
                )
            else:
                out[key] = default
        resolved[section] = out
    return resolved


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def _write_snapshot(path: Path, sections: dict[str, dict]) -> None:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


# --- resolved run configuration ---------------------------------------------

@dataclass
class RunConfig:
    gen_cfg: GeneratorConfig
    train_cfg: TrainConfig
    window: WindowSpec
    data_path: str
    out_dir: str
    checkpoint_path: str


def _gen_cfg_from(section: dict) -> GeneratorConfig:
    return GeneratorConfig(
        n_feature=section["neurons"],
        n_patches=section["timesteps"],
        n_layers=section["layers"],
        n_aux=section["aux_qubits"],
        noise_low=section["noise_low"],
        noise_high=section["noise_high"],
        resample_noise_each_layer=section["resample_noise_each_layer"],
    )


def _train_cfg_from(section: dict) -> TrainConfig:
    return TrainConfig(**section)


def _apply_common_flags(cfg: dict[str, dict], args) -> None:
    if getattr(args, "seed", None) is not None and "training" in cfg:
        cfg["training"]["seed"] = args.seed
    if getattr(args, "out", None) is not None and "paths" in cfg:
        cfg["paths"]["out"] = args.out


def load_run_config(config_path: str | None, overrides: list[str],
                    args=None) -> RunConfig:
    allowed = {
        "generator": _GENERATOR_SCHEMA,
        "training": _TRAINING_SCHEMA,
        "window": _WINDOW_SCHEMA,
        "paths": _PATHS_SCHEMA,
    }
    cfg = _read_config(config_path, overrides, allowed)
    if args is not None:
        _apply_common_flags(cfg, args)
    gen_cfg = _gen_cfg_from(cfg["generator"])
    train_cfg = _train_cfg_from(cfg["training"])
    subset = cfg["window"]["neuron_subset"]
    if not subset:
        subset = tuple(range(gen_cfg.n_feature))
    window = WindowSpec(subset, gen_cfg.n_patches)
    if len(window.neuron_subset) != gen_cfg.n_feature:
        raise ConfigurationError(
            f"window.neuron_subset has {len(window.neuron_subset)} entries, "
            f"generator.neurons is {gen_cfg.n_feature}"
        )
    return RunConfig(
        gen_cfg=gen_cfg,
        train_cfg=train_cfg,
        window=window,
        data_path=cfg["paths"]["data"],
        out_dir=cfg["paths"]["out"],
        checkpoint_path=cfg["paths"]["checkpoint"],
    )


def _run_config_sections(run: RunConfig) -> dict[str, dict]:
    g = run.gen_cfg
    t = run.train_cfg
    return {
        "generator": {
            "neurons": g.n_feature,
            "timesteps": g.n_patches,
            "layers": g.n_layers,
            "aux_qubits": g.n_aux,
            "noise_low": g.noise_low,
            "noise_high": g.noise_high,
            "resample_noise_each_layer": g.resample_noise_each_layer,
        },
        "training": {key: getattr(t, key) for key in _TRAINING_SCHEMA},
        "window": {"neuron_subset": run.window.neuron_subset},
        "paths": {
            "data": run.data_path,
            "out": run.out_dir,
            "checkpoint": run.checkpoint_path,
        },
    }


# --- commands ---------------------------------------------------------------

def cmd_train(args) -> int:
    run = load_run_config(args.config, args.set, args)
    data = load_spikes(run.data_path)
    ckpt, rows = train(run.train_cfg, data, run.gen_cfg, run.window)
    out = Path(run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_train_log(rows, out / "train_log.csv")
    save_checkpoint(ckpt, out / "checkpoint.ckpt")
    _write_snapshot(out / "resolved_config.ini", _run_config_sections(run))
    print(f"trained {run.train_cfg.total_gen_steps} generator steps -> {out}")
    return 0


def cmd_generate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if args.count < 1:
        raise ConfigurationError(
            "count must be >= 1 (an empty spike file is not writable)"
        )
    cfg = ckpt.gen_cfg
    z, uniforms = generation_noise(cfg, args.seed, args.count)
    windows = sample_batch(cfg, ckpt.gen_params, z, uniforms)
    matrix = windows.transpose(1, 0, 2).reshape(
        cfg.n_feature, args.count * cfg.n_patches)
    save_spikes(SpikeMatrix(matrix, bin_width=ckpt.bin_width), args.out_file)
    _write_snapshot(Path(str(args.out_file) + ".config.ini"), {
        "generate": {
            "checkpoint": args.checkpoint,
            "count": args.count,
            "seed": args.seed,
            "out": str(args.out_file),
        },
    })
    print(f"wrote {args.count} windows -> {args.out_file}")
    return 0


def _parse_neuron_arg(text: str) -> tuple[int, ...]:
    parts = _parse_flag(_parse_int_list, text, "--neurons")
    if len(parts) == 1 and "," not in text:
        return tuple(range(parts[0]))
    return parts


def _nonoverlapping_windows(m: SpikeMatrix, subset: tuple[int, ...],
                            t: int) -> np.ndarray:
    spec = WindowSpec(subset, t)
    spec.validate_for(m)
    usable = (m.n_bins // t) * t
    trimmed = SpikeMatrix(m.data[:, :usable], bin_width=m.bin_width)
    return all_windows(trimmed, spec, stride=t)


def _evaluate_windows(gen_windows: np.ndarray, ref_windows: np.ndarray,
                      bin_width: float, max_lag: int):
    gen_report = stats_mod.build_report(gen_windows, bin_width, max_lag)
    ref_report = stats_mod.build_report(ref_windows, bin_width, max_lag)
    summary = {
        "mse_k_probability": stats_mod.stats_mse(
            gen_report.k_probability, ref_report.k_probability),
        "mse_firing_rate": stats_mod.stats_mse(
            gen_report.firing_rate, ref_report.firing_rate),
        "js_divergence": None,
    }
    n, t = gen_windows.shape[1], gen_windows.shape[2]
    if n * t <= MAX_STATE_BITS:
        summary["js_divergence"] = stats_mod.js_divergence(
            stats_mod.state_histogram(gen_windows),
            stats_mod.state_histogram(ref_windows))
    return gen_report, ref_report, summary


def _write_summary(path: Path, summary: dict) -> None:
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8",
                                        newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "value"])
        for key, value in summary.items():
            writer.writerow([key, "" if value is None else repr(value)])


def cmd_evaluate(args) -> int:
    generated = load_spikes(args.generated)
    reference = load_spikes(args.reference)
    subset = _parse_neuron_arg(args.neurons)
    n = len(subset)
    t = args.timesteps
    if generated.n_neurons != n:
        raise ConfigurationError(
            f"generated file has {generated.n_neurons} neurons, expected {n}"
        )
    max_lag = args.max_lag if args.max_lag is not None else t - 1
    gen_windows = _nonoverlapping_windows(generated, tuple(range(n)), t)
    ref_windows = _nonoverlapping_windows(reference, subset, t)
    gen_report, ref_report, summary = _evaluate_windows(
        gen_windows, ref_windows, reference.bin_width, max_lag)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stats_mod.write_report_csvs(gen_report, out / "generated")
    stats_mod.write_report_csvs(ref_report, out / "reference")
    _write_summary(out / "summary.csv", summary)
    _write_snapshot(out / "resolved_config.ini", {
        "evaluate": {
            "generated": args.generated,
            "reference": args.reference,
            "neurons": subset,
            "timesteps": t,
            "max_lag": max_lag,
            "out": str(out),
        },
    })
    print(f"evaluation written -> {out}")
    return 0


def cmd_surrogate(args) -> int:
    from_cfg = _read_config(args.config, args.set,
                            {"surrogate": _SURROGATE_SCHEMA})["surrogate"]

    def pick(flag, key, default=None):
        if flag is not None:
            return flag
        if from_cfg[key] is not None:
            return from_cfg[key]
        if default is not None:
            return default
        raise ConfigurationError(f"missing surrogate parameter {key!r}")

    n = int(pick(args.neurons, "neurons"))
    cols = int(pick(args.cols, "cols"))
    rates = (_parse_flag(_parse_float_list, args.rates, "--rates")
             if args.rates else from_cfg["rates"])
    if not rates:
        raise ConfigurationError("missing surrogate parameter 'rates'")
    if len(rates) == 1:
        rates = rates * n
    burst_prob = float(pick(args.burst_prob, "burst_prob", 0.9))
    burst_gain = float(pick(args.burst_gain, "burst_gain", 2.0))
    bin_width = float(pick(args.bin_width, "bin_width", 0.02))
    matrix = synthesize_surrogate(
        n, cols, rates, burst_prob, burst_gain,
        substream(args.seed, PURPOSE_SURROGATE), bin_width=bin_width)
    save_spikes(matrix, args.out_file)
    _write_snapshot(Path(str(args.out_file) + ".config.ini"), {
        "surrogate": {
            "neurons": n, "cols": cols, "rates": tuple(rates),
            "burst_prob": burst_prob, "burst_gain": burst_gain,
            "bin_width": bin_width, "seed": args.seed,
            "out": str(args.out_file),
        },
    })
    print(f"surrogate raster {n}x{cols} -> {args.out_file}")
    return 0


# --- sweep -------------------------------------------------------------------

def _sweep_cell(data: SpikeMatrix, base_gen: dict, base_train: dict,
                n: int, t: int, k: float, seed: int,
                eval_samples: int) -> dict:
    gen_cfg = GeneratorConfig(n_feature=n, n_patches=t, **base_gen)
    train_cfg = TrainConfig(**{**base_train, "seed": seed, "k_coeff": k})
    window = first_n_spec(n, t)
    ckpt, rows = train(train_cfg, data, gen_cfg, window)
    z, uniforms = generation_noise(gen_cfg, seed, eval_samples)
    samples = sample_batch(gen_cfg, ckpt.gen_params, z, uniforms)
    ref = _nonoverlapping_windows(data, window.neuron_subset, t)
    mse_kprob = stats_mod.stats_mse(
        stats_mod.k_probability(samples), stats_mod.k_probability(ref))
    mse_rate = stats_mod.stats_mse(
        stats_mod.firing_rate(samples, data.bin_width),
        stats_mod.firing_rate(ref, data.bin_width))
    js_final = rows[-1].js_divergence if rows else None
    return {
        "n": n, "t": t, "K": k, "seed": seed,
        "mse_kprob": mse_kprob, "mse_rate": mse_rate, "js": js_final,
    }


def _sweep_cell_task(packed):
    data, base_gen, base_train, n, t, k, seed, eval_samples = packed
    return _sweep_cell(data, base_gen, base_train, n, t, k, seed, eval_samples)


def _write_sweep_results(path: Path, results: list[dict]) -> None:
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8",
                                        newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "t", "K", "seed", "mse_kprob", "mse_rate", "js"])
        for row in results:
            js = "" if row["js"] is None else repr(row["js"])
            writer.writerow([row["n"], row["t"], repr(row["K"]), row["seed"],
                             repr(row["mse_kprob"]), repr(row["mse_rate"]), js])


def _write_loss_diff(path: Path, results: list[dict]) -> None:
    """Per-(n, t) mean MSE difference, standard loss minus K-loss.

    Positive entries mean the K-loss run achieved the lower error.
    Written only when the sweep covered both K=0 and K=1.
    """
    k_values = {row["K"] for row in results}
    if not {0.0, 1.0} <= k_values:
        return
    cells = sorted({(row["n"], row["t"]) for row in results})
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8",
                                        newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "t", "kprob_mse_diff", "rate_mse_diff"])
        for n, t in cells:
            std = [r for r in results
                   if (r["n"], r["t"], r["K"]) == (n, t, 0.0)]
            kls = [r for r in results
                   if (r["n"], r["t"], r["K"]) == (n, t, 1.0)]
            if not std or not kls:
                continue
            diff_kprob = (np.mean([r["mse_kprob"] for r in std])
                          - np.mean([r["mse_kprob"] for r in kls]))
            diff_rate = (np.mean([r["mse_rate"] for r in std])
                         - np.mean([r["mse_rate"] for r in kls]))
            writer.writerow([n, t, repr(float(diff_kprob)),
                             repr(float(diff_rate))])


def cmd_sweep(args) -> int:
    allowed = {
        "sweep": _SWEEP_SCHEMA,
        "generator": {k: v for k, v in _GENERATOR_SCHEMA.items()
                      if k not in ("neurons", "timesteps")},
        "training": {k: v for k, v in _TRAINING_SCHEMA.items()
                     if k not in ("seed", "k_coeff")},
        "paths": _PATHS_SCHEMA,
    }
    cfg = _read_config(args.config, args.set, allowed)
    if args.out is not None:
        cfg["paths"]["out"] = args.out
    sweep = cfg["sweep"]
    base_gen = {
        "n_layers": cfg["generator"]["layers"],
        "n_aux": cfg["generator"]["aux_qubits"],
        "noise_low": cfg["generator"]["noise_low"],
        "noise_high": cfg["generator"]["noise_high"],
        "resample_noise_each_layer":
            cfg["generator"]["resample_noise_each_layer"],
    }
    base_train = dict(cfg["training"])
    base_train["seed"] = 0
    base_train["k_coeff"] = 0.0
    data = load_spikes(cfg["paths"]["data"])
    out = Path(cfg["paths"]["out"])
    out.mkdir(parents=True, exist_ok=True)

    cells = list(product(sweep["neurons"], sweep["timesteps"],
                         sweep["k_values"], sweep["seeds"]))
    tasks = [(data, base_gen, base_train, n, t, k, seed,
              sweep["eval_samples"]) for n, t, k, seed in cells]
    results: list[dict] = []
    failures: list[tuple] = []
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_sweep_cell_task, task) for task in tasks]
            for cell, fut in zip(cells, futures):
                try:
                    results.append(fut.result())
                except Exception as exc:  # cell failures never stop the sweep
                    failures.append((*cell, str(exc)))
    else:
        for cell, task in zip(cells, tasks):
            try:
                results.append(_sweep_cell_task(task))
            except Exception as exc:
                failures.append((*cell, str(exc)))

    _write_sweep_results(out / "sweep_results.csv", results)
    _write_loss_diff(out / "loss_diff.csv", results)
    snapshot = {
        "sweep": sweep,
        "generator": cfg["generator"],
        "training": {k: v for k, v in cfg["training"].items()},
        "paths": cfg["paths"],
    }
    _write_snapshot(out / "resolved_config.ini", snapshot)
    if failures:
        with atomic_path(out / "sweep_failures.csv") as tmp, open(
                tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "t", "K", "seed", "error"])
            writer.writerows(failures)
        print(f"sweep finished with {len(failures)} failed cell(s) -> {out}",
              file=sys.stderr)
        return 1
    print(f"sweep of {len(cells)} cells -> {out}")
    return 0


# --- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiqgan",
        description="Quantum-generator WGAN for binary spike trains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None,
                         help="override training.seed")
    p_train.add_argument("--out", default=None, help="override paths.out")
    p_train.add_argument("--set", action="append", default=[],
                         metavar="SECTION.KEY=VALUE",
                         help="override any config value")
    p_train.set_defaults(func=cmd_train)

    p_gen = sub.add_parser("generate",
                           help="sample spike windows from a checkpoint")
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.add_argument("--count", type=int, required=True,
                       help="number of windows to sample")
    p_gen.add_argument("--out", dest="out_file", required=True,
                       help="output SPIKES v1 file")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_generate)

    p_eval = sub.add_parser("evaluate",
                            help="compare generated and reference spike files")
    p_eval.add_argument("--generated", required=True)
    p_eval.add_argument("--reference", required=True)
    p_eval.add_argument("--neurons", required=True,
                        help="count (first N reference rows) or index list")
    p_eval.add_argument("--timesteps", type=int, required=True)
    p_eval.add_argument("--max-lag", type=int, default=None)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep",
                             help="train/evaluate a grid of (n, t, K, seed)")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None, help="override paths.out")
    p_sweep.add_argument("--set", action="append", default=[],
                         metavar="SECTION.KEY=VALUE")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="run cells in parallel processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_surr = sub.add_parser("surrogate",
                            help="synthesize a Markov-burst spike raster")
    p_surr.add_argument("--config", default=None)
    p_surr.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE")
    p_surr.add_argument("--neurons", type=int, default=None)
    p_surr.add_argument("--cols", type=int, default=None)
    p_surr.add_argument("--rates", default=None,
                        help="per-neuron spike probability, single or list")
    p_surr.add_argument("--burst-prob", type=float, default=None)
    p_surr.add_argument("--burst-gain", type=float, default=None)
    p_surr.add_argument("--bin-width", type=float, default=None)
    p_surr.add_argument("--seed", type=int, default=0)
    p_surr.add_argument("--out", dest="out_file", required=True)
    p_surr.set_defaults(func=cmd_surrogate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (ConfigurationError, DataFormatError, CheckpointFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
