"""Command-line surface: train, generate, evaluate, sweep, surrogate.

Configuration comes from flat key=value INI files with CLI-flag overrides
(``--set section.key=value``).  A value is taken from, in order of
precedence: a dedicated flag (``train --seed``), ``--set``, the file, the
default.  The ``[generator]`` and ``[training]`` keys and defaults are the
fields of ``GeneratorConfig`` and ``TrainConfig``.  Every command writes a
resolved snapshot next to its outputs so each artifact is self-describing,
and every command is byte-deterministic given ``--seed``.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, fields
from functools import partial
from itertools import product
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import stats as stats_mod
from .errors import (CheckpointFormatError, ConfigurationError,
                     DataFormatError, NumericalError)
from .fileio import atomic_path, write_csv
from .generator import GeneratorConfig, sample_batch
from .spikedata import (MAX_STATE_BITS, SpikeMatrix, WindowSpec, all_windows,
                        first_n_spec, load_spikes, save_spikes,
                        synthesize_surrogate)
from .training import (PURPOSE_SURROGATE, TrainConfig, generation_blocks,
                       load_checkpoint, save_checkpoint, substream, train,
                       write_train_log)

# --- config schema ---------------------------------------------------------

def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip() != "")


_REQUIRED = object()

# Converter of a config dataclass field, by its annotation.
_CONVERTERS = {int: int, float: float, str: str}

# INI keys whose config dataclass field has another name.
_INI_TO_FIELD = {"neurons": "n_feature", "timesteps": "n_patches",
                 "layers": "n_layers", "aux_qubits": "n_aux"}


def _schema_of(cls) -> dict:
    """INI schema of a config dataclass: one key per field, in field order;
    fields without a default are required."""
    ini_key = {name: key for key, name in _INI_TO_FIELD.items()}
    types = get_type_hints(cls)
    return {
        ini_key.get(f.name, f.name): (
            _CONVERTERS[types[f.name]],
            _REQUIRED if f.default is MISSING else f.default)
        for f in fields(cls)
    }


def _fields_of(section: dict) -> dict:
    """Config dataclass keyword arguments from a resolved INI section."""
    return {_INI_TO_FIELD.get(key, key): value
            for key, value in section.items()}


_GENERATOR_SCHEMA = _schema_of(GeneratorConfig)

_TRAINING_SCHEMA = _schema_of(TrainConfig)

_WINDOW_SCHEMA = {
    "neuron_subset": (_parse_int_list, ()),
}

_PATHS_SCHEMA = {
    "data": (str, _REQUIRED),
    "out": (str, "out"),
}

_SWEEP_SCHEMA = {
    "neurons": (_parse_int_list, _REQUIRED),
    "timesteps": (_parse_int_list, _REQUIRED),
    "k_values": (_parse_float_list, (0.0, 1.0)),
    "seeds": (_parse_int_list, (0,)),
    "eval_samples": (int, 4096),
}

_SURROGATE_SCHEMA = {
    "neurons": (int, _REQUIRED),
    "cols": (int, _REQUIRED),
    "rates": (_parse_float_list, _REQUIRED),
    "burst_prob": (float, 0.9),
    "burst_gain": (float, 2.0),
    "bin_width": (float, 0.02),
}


def _read_config(path: str | None, overrides: list[str],
                 allowed: dict[str, dict],
                 flags: dict | None = None) -> dict[str, dict]:
    """Resolve every section of ``allowed`` against its schema.

    Each layer overrides the one before: the schema default, the INI file at
    ``path``, the ``section.key=value`` strings in ``overrides``, and then
    ``flags``, a ``section.key`` -> value map of command-line flags whose
    ``None`` entries were not given.
    """
    raw: dict[str, dict] = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
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
    for dotted, value in (flags or {}).items():
        if value is not None:
            section, key = dotted.split(".")
            raw.setdefault(section, {})[key] = value

    for section in raw:
        if section not in allowed:
            raise ConfigurationError(f"unknown config section [{section}]")
    resolved: dict[str, dict] = {}
    for section, schema in allowed.items():
        values = raw.get(section, {})
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
    sections: dict[str, dict]  # the resolved config, as its snapshot


def load_run_config(config_path: str | None, overrides: list[str],
                    flags: dict | None = None) -> RunConfig:
    allowed = {
        "generator": _GENERATOR_SCHEMA,
        "training": _TRAINING_SCHEMA,
        "window": _WINDOW_SCHEMA,
        "paths": _PATHS_SCHEMA,
    }
    cfg = _read_config(config_path, overrides, allowed, flags)
    gen_cfg = GeneratorConfig(**_fields_of(cfg["generator"]))
    train_cfg = TrainConfig(**cfg["training"])
    subset = cfg["window"]["neuron_subset"]
    if not subset:
        subset = tuple(range(gen_cfg.n_feature))
    window = WindowSpec(subset, gen_cfg.n_patches)
    if len(window.neuron_subset) != gen_cfg.n_feature:
        raise ConfigurationError(
            f"window.neuron_subset has {len(window.neuron_subset)} entries, "
            f"generator.neurons is {gen_cfg.n_feature}"
        )
    cfg["window"]["neuron_subset"] = window.neuron_subset
    return RunConfig(gen_cfg, train_cfg, window, cfg)


# --- commands ---------------------------------------------------------------

def cmd_train(args) -> int:
    run = load_run_config(args.config, args.set,
                          {"training.seed": args.seed, "paths.out": args.out})
    data = load_spikes(run.sections["paths"]["data"])
    ckpt, rows = train(run.train_cfg, data, run.gen_cfg, run.window)
    out = Path(run.sections["paths"]["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_train_log(rows, out / "train_log.csv")
    save_checkpoint(ckpt, out / "checkpoint.ckpt")
    _write_snapshot(out / "resolved_config.ini", run.sections)
    print(f"trained {run.train_cfg.total_gen_steps} generator steps -> {out}")
    return 0


def _generate(cfg: GeneratorConfig, params, seed: int,
              count: int) -> np.ndarray:
    """``count`` windows sampled from the generator as an (n, count, t)
    raster, one block of ``generation_blocks`` at a time."""
    raster = np.empty((cfg.n_feature, count, cfg.n_patches), dtype=np.uint8)
    start = 0
    for z, uniforms in generation_blocks(cfg, seed, count):
        stop = start + len(z)
        raster[:, start:stop] = sample_batch(
            cfg, params, z, uniforms).transpose(1, 0, 2)
        start = stop
    return raster


def cmd_generate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if args.count < 1:
        raise ConfigurationError(
            "count must be >= 1 (an empty spike file is not writable)"
        )
    raster = _generate(ckpt.gen_cfg, ckpt.gen_params, args.seed, args.count)
    save_spikes(SpikeMatrix(raster.reshape(len(raster), -1),
                            bin_width=ckpt.bin_width), args.out_file)
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
    try:
        parts = _parse_int_list(text)
    except ValueError as exc:
        raise ConfigurationError(f"bad value for --neurons: {text!r}") from exc
    if len(parts) == 1 and "," not in text:
        return tuple(range(parts[0]))
    return parts


def _evaluate_windows(gen_windows: np.ndarray, ref_windows: np.ndarray,
                      bin_width: float):
    """Reports of both window stacks, lags 0..t-1, and their summary.

    Raises NumericalError, with no warnings, when a firing rate or an MSE
    overflows, as a subnormal ``bin_width`` makes them do."""
    n, t = gen_windows.shape[1], gen_windows.shape[2]
    with np.errstate(over="ignore", invalid="ignore"):
        gen_report = stats_mod.build_report(gen_windows, bin_width, t - 1)
        ref_report = stats_mod.build_report(ref_windows, bin_width, t - 1)
        summary = {
            "mse_k_probability": stats_mod.stats_mse(
                gen_report.k_probability, ref_report.k_probability),
            "mse_firing_rate": stats_mod.stats_mse(
                gen_report.firing_rate, ref_report.firing_rate),
            "mse_pairwise_cov": (stats_mod.stats_mse(
                gen_report.pairwise_cov, ref_report.pairwise_cov)
                if n >= 2 else None),
            "js_divergence": None,
        }
    checked = {"generated firing_rate": gen_report.firing_rate,
               "reference firing_rate": ref_report.firing_rate, **summary}
    for name, value in checked.items():
        if value is not None and not np.isfinite(value).all():
            raise NumericalError(
                f"{name} is not finite at bin_width {bin_width!r}")
    if n * t <= MAX_STATE_BITS:
        summary["js_divergence"] = stats_mod.js_divergence(
            stats_mod.state_histogram(gen_windows),
            stats_mod.state_histogram(ref_windows))
    return gen_report, ref_report, summary


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
    gen_windows = all_windows(generated, first_n_spec(n, t), stride=t)
    ref_windows = all_windows(reference, WindowSpec(subset, t), stride=t)
    gen_report, ref_report, summary = _evaluate_windows(
        gen_windows, ref_windows, reference.bin_width)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stats_mod.write_report_csvs(gen_report, out / "generated")
    stats_mod.write_report_csvs(ref_report, out / "reference")
    write_csv(out / "summary.csv", ("metric", "value"),
              ((key, "" if value is None else repr(value))
               for key, value in summary.items()))
    _write_snapshot(out / "resolved_config.ini", {
        "evaluate": {
            "generated": args.generated,
            "reference": args.reference,
            "neurons": subset,
            "timesteps": t,
            "out": str(out),
        },
    })
    print(f"evaluation written -> {out}")
    return 0


def cmd_surrogate(args) -> int:
    flags = {f"surrogate.{key}": getattr(args, key)
             for key in _SURROGATE_SCHEMA}
    cfg = _read_config(args.config, args.set,
                       {"surrogate": _SURROGATE_SCHEMA}, flags)["surrogate"]
    n = cfg["neurons"]
    if len(cfg["rates"]) == 1:
        cfg["rates"] = cfg["rates"] * n
    matrix = synthesize_surrogate(
        n, cfg["cols"], cfg["rates"], cfg["burst_prob"], cfg["burst_gain"],
        substream(args.seed, PURPOSE_SURROGATE), bin_width=cfg["bin_width"])
    save_spikes(matrix, args.out_file)
    _write_snapshot(Path(str(args.out_file) + ".config.ini"), {
        "surrogate": {**cfg, "seed": args.seed, "out": str(args.out_file)},
    })
    print(f"surrogate raster {n}x{cfg['cols']} -> {args.out_file}")
    return 0


# --- sweep -------------------------------------------------------------------

def _sweep_cell(data: SpikeMatrix, gen_section: dict, train_section: dict,
                n: int, t: int, k: float, seed: int,
                eval_samples: int) -> dict:
    gen_cfg = GeneratorConfig(
        **_fields_of({**gen_section, "neurons": n, "timesteps": t}))
    train_cfg = TrainConfig(**train_section, seed=seed, k_coeff=k)
    window = first_n_spec(n, t)
    ckpt, rows = train(train_cfg, data, gen_cfg, window)
    samples = _generate(gen_cfg, ckpt.gen_params, seed,
                        eval_samples).transpose(1, 0, 2)
    ref = all_windows(data, window, stride=t)
    *_, summary = _evaluate_windows(samples, ref, data.bin_width)
    js_final = rows[-1].js_divergence if rows else None
    return {
        "n": n, "t": t, "K": k, "seed": seed,
        "mse_kprob": summary["mse_k_probability"],
        "mse_rate": summary["mse_firing_rate"], "js": js_final,
    }


def _submit(pool, task):
    """The ``result`` of ``task`` run in ``pool``; if the pool broke while
    tasks were still being submitted, the call raises that instead."""
    from concurrent.futures import BrokenExecutor, Future
    try:
        return pool.submit(_sweep_cell, *task).result
    except BrokenExecutor as exc:
        failed = Future()
        failed.set_exception(exc)
        return failed.result


def _write_loss_diff(path: Path, results: list[dict]) -> None:
    """Per-(n, t) mean MSE difference, standard loss minus K-loss.

    Positive entries mean the K-loss run achieved the lower error.
    Written only when the sweep covered both K=0 and K=1.
    """
    k_values = {row["K"] for row in results}
    if not {0.0, 1.0} <= k_values:
        return
    cells = sorted({(row["n"], row["t"]) for row in results})
    rows = []
    for n, t in cells:
        std = [r for r in results if (r["n"], r["t"], r["K"]) == (n, t, 0.0)]
        kls = [r for r in results if (r["n"], r["t"], r["K"]) == (n, t, 1.0)]
        if not std or not kls:
            continue
        diff_kprob = (np.mean([r["mse_kprob"] for r in std])
                      - np.mean([r["mse_kprob"] for r in kls]))
        diff_rate = (np.mean([r["mse_rate"] for r in std])
                     - np.mean([r["mse_rate"] for r in kls]))
        rows.append((n, t, repr(float(diff_kprob)), repr(float(diff_rate))))
    write_csv(path, ("n", "t", "kprob_mse_diff", "rate_mse_diff"), rows)


def cmd_sweep(args) -> int:
    allowed = {
        "sweep": _SWEEP_SCHEMA,
        "generator": {k: v for k, v in _GENERATOR_SCHEMA.items()
                      if k not in ("neurons", "timesteps")},
        "training": {k: v for k, v in _TRAINING_SCHEMA.items()
                     if k not in ("seed", "k_coeff")},
        "paths": _PATHS_SCHEMA,
    }
    cfg = _read_config(args.config, args.set, allowed, {"paths.out": args.out})
    sweep = cfg["sweep"]
    for key in ("neurons", "timesteps", "k_values", "seeds"):
        if not sweep[key]:
            raise ConfigurationError(f"sweep.{key} must list at least one value")
    if sweep["eval_samples"] < 1:
        raise ConfigurationError(
            f"sweep.eval_samples must be >= 1, got {sweep['eval_samples']}")
    # Every cell samples an (n, eval_samples, t) raster after it trains;
    # allocating the largest one here, untouched, refuses a count that
    # cannot be sampled before any cell trains.
    largest = (max(max(sweep["neurons"]), 0), sweep["eval_samples"],
               max(max(sweep["timesteps"]), 0))
    try:
        np.empty(largest, dtype=np.uint8)
    except (MemoryError, ValueError) as exc:
        raise ConfigurationError(
            f"sweep.eval_samples = {sweep['eval_samples']} windows do not "
            f"fit in memory at n={largest[0]}, t={largest[2]}: {exc}"
        ) from exc
    data = load_spikes(cfg["paths"]["data"])
    out = Path(cfg["paths"]["out"])
    out.mkdir(parents=True, exist_ok=True)

    cells = list(product(sweep["neurons"], sweep["timesteps"],
                         sweep["k_values"], sweep["seeds"]))
    tasks = [(data, cfg["generator"], cfg["training"], *cell,
              sweep["eval_samples"]) for cell in cells]
    results: list[dict] = []
    failures: list[tuple] = []
    from concurrent.futures import ProcessPoolExecutor
    with (ProcessPoolExecutor(max_workers=args.jobs) if args.jobs > 1
          else nullcontext()) as pool:
        jobs = [partial(_sweep_cell, *task) if pool is None
                else _submit(pool, task) for task in tasks]
        for cell, job in zip(cells, jobs):
            try:
                results.append(job())
            except Exception as exc:  # cell failures never stop the sweep
                failures.append((*cell, str(exc)))

    write_csv(out / "sweep_results.csv",
              ("n", "t", "K", "seed", "mse_kprob", "mse_rate", "js"),
              ((row["n"], row["t"], repr(row["K"]), row["seed"],
                repr(row["mse_kprob"]), repr(row["mse_rate"]),
                "" if row["js"] is None else repr(row["js"]))
               for row in results))
    _write_loss_diff(out / "loss_diff.csv", results)
    _write_snapshot(out / "resolved_config.ini", cfg)
    if failures:
        write_csv(out / "sweep_failures.csv",
                  ("n", "t", "K", "seed", "error"), failures)
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


# NumPy refuses an array of 2^63 bytes or more with one of these
# ValueErrors rather than a MemoryError.
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (ConfigurationError, DataFormatError, CheckpointFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        if not str(exc).startswith(_TOO_BIG):
            raise
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
