"""Experiment configuration: flat `key = value` files with [section] headers.

One reader parses config files and oracle specs (whose lines are [world] keys
with no header); any other line, and an unknown or repeated section or key,
is a ConfigError naming the file and line.

Every key is declared in SCHEMA with its type and default; the command-line
flags of the schedule, guidance, sampler and training settings are generated
from it too. Defaults the library already declares (GuidanceConfig,
TrainConfig, NetConfig, quadratic_schedule, impute) are read from there.
`format_resolved` materializes every default in a canonical order; feeding
the resolved file back in reproduces the exact same configuration.
"""

from __future__ import annotations

import inspect
from pathlib import Path

from .diffusion import VARIANCE_MODES, NoiseSchedule, quadratic_schedule
from .errors import ConfigError, DataError
from .guidance import SCOPES, GuidanceConfig, mode_from_string
from .masking import PATTERNS
from .neural import NetConfig
from .sampler import ANCHORING_MODES, SEED_LIMIT, impute
from .training import TrainConfig
from .world import GaussianOracleWorld, make_gaussian_world

__all__ = [
    "SCHEMA", "PRESETS", "STAGES", "parse_config_file", "resolve_config",
    "format_resolved", "write_resolved", "schedule_from", "world_from",
    "guidance_from", "training_from", "network_from", "read_world_spec", "load_world_spec",
]


def _one_of(choices: tuple[str, ...]):
    """Parser of a string key that must be one of ``choices``."""
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return text
    parse.choices = choices
    return parse


def _seed(text: str) -> int:
    """Parser of every seed key: an integer in [0, 2**64)."""
    value = int(text)
    if not (0 <= value < SEED_LIMIT):
        raise ValueError(f"seed must lie in [0, 2**64), got {value}")
    return value


def _clusters(text: str) -> int | str:
    """Parser of [guidance] clusters: an integer, or auto."""
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise ValueError("expected an integer or auto") from None


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


# [training] keys ending in _<stage> belong to one training stage only
STAGES = ("uncond", "cond")

# section -> key -> (parser, default, help)
SCHEMA: dict[str, dict[str, tuple]] = {
    "experiment": {
        "backend": (_one_of(("oracle", "neural")), "oracle", "denoiser backend"),
        "seed": (_seed, 0, "base seed for truth draw and sampling"),
    },
    "world": {
        "nodes": (int, 6, "grid nodes N"),
        "steps": (int, 12, "grid time slices T (also the window length)"),
        "rho_s": (float, 0.6, "spatial ring correlation, |rho| < 1"),
        "rho_t": (float, 0.8, "temporal correlation, |rho| < 1"),
        "mean": (float, 0.0, "constant process mean"),
        "seed": (_seed, 0, "world identity seed (data synthesis stream)"),
    },
    "data": {
        "length": (int, 240, "synthesized series length for training runs"),
        "stride": (int, 1, "training window stride"),
    },
    "mask": {
        "pattern": (_one_of(PATTERNS), "SR-TC", "block-missing pattern"),
        "alpha": (float, 0.8, "missing rate in [0, 1]"),
        "patch": (int, 12, "temporal patch length"),
        "communities": (int, 0, "SC-TC community count (0 = derive none)"),
        "seed": (_seed, 1, "mask RNG seed"),
    },
    "schedule": {
        "steps": (int, 50, "diffusion steps K"),
        "beta1": (float, _default(quadratic_schedule, "beta1"), "minimum noise level"),
        "beta_k": (float, _default(quadratic_schedule, "betaK"), "maximum noise level"),
        "variance_mode": (_one_of(VARIANCE_MODES),
                          _default(quadratic_schedule, "variance_mode"), "reverse variance"),
    },
    "guidance": {
        "mode": (str, GuidanceConfig.mode, "fence | cfg:<lambda> | none"),
        "pi": (float, GuidanceConfig.pi, "prior confidence in (0, 1]"),
        "lambda_ref": (float, GuidanceConfig.lambda_ref, "reference scale > 1"),
        "t0": (float, GuidanceConfig.t0, "activation time in (0, 1)"),
        "t1": (float, GuidanceConfig.t1, "peak-update time in (0, 1)"),
        "alpha_scale": (float, GuidanceConfig.alpha_scale, "temperature divisor"),
        "lambda_max": (float, GuidanceConfig.lambda_max, "scale clamp"),
        "scope": (_one_of(SCOPES), GuidanceConfig.scope, "how nodes share a scale"),
        "clusters": (_clusters, "auto", "cluster count K_c, or auto = N/20"),
    },
    "sampler": {
        "samples": (int, _default(impute, "n_samples"), "ensemble size S for point metrics"),
        "crps_samples": (int, 100, "ensemble size for CRPS"),
        "anchoring": (_one_of(ANCHORING_MODES), _default(impute, "anchoring"),
                      "re-impose observed coordinates each step (clamp) or not (free)"),
    },
    "training": {
        "epochs_uncond": (int, TrainConfig.epochs, "stage-1 epochs"),
        "lr_uncond": (float, TrainConfig.lr, "stage-1 learning rate"),
        "patience_uncond": (int, TrainConfig.patience, "stage-1 early-stop patience"),
        "weight_decay_uncond": (float, TrainConfig.weight_decay, "stage-1 L2 coefficient"),
        "epochs_cond": (int, 80, "stage-2 epochs"),
        "lr_cond": (float, 1e-3, "stage-2 learning rate"),
        "patience_cond": (int, 10, "stage-2 early-stop patience"),
        "weight_decay_cond": (float, 1e-5, "stage-2 L2 coefficient"),
        "batch": (int, TrainConfig.batch_size, "windows per optimizer step"),
        "d_model": (int, NetConfig.d_model, "model width (set by --init in stage 2)"),
        "layers": (int, NetConfig.n_layers, "attention blocks (set by --init in stage 2)"),
        "heads": (int, NetConfig.n_heads, "attention heads (set by --init in stage 2)"),
        "seed": (_seed, TrainConfig.seed, "init and shuffling seed"),
    },
}

# preset -> {(section, key): value}; presets override file values
PRESETS: dict[str, dict[tuple[str, str], str]] = {
    "wo-C": {("guidance", "clusters"): "1", ("guidance", "scope"): "global"},
    "wo-F": {("guidance", "mode"): "cfg:1"},
    "paper-defaults": {
        ("schedule", "steps"): "50",
        ("schedule", "beta1"): "1e-4",
        ("schedule", "beta_k"): "0.5",
        ("guidance", "pi"): "0.5",
        ("guidance", "lambda_ref"): "1.6",
        ("guidance", "t0"): "0.8",
        ("guidance", "t1"): "0.5",
        ("training", "d_model"): "64",
        ("training", "layers"): "4",
        ("training", "heads"): "8",
    },
}


def _read_settings(path, kind: str, section: str | None = None) -> dict[str, dict[str, str]]:
    """Raw values by section: `key = value`, blank and `#` lines, and (when
    ``section`` is None) one `[section]` header per section; every key of an
    oracle spec is in ``section``. Else a ConfigError names `path:line`."""
    try:
        content = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"{kind} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    headers = section is None
    out: dict[str, dict[str, str]] = {}
    for lineno, line in enumerate(content.splitlines(), 1):
        text, where = line.strip(), f"{path}:{lineno}"
        if not text or text.startswith("#"):
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1]
            if not headers:
                raise ConfigError(f"{where}: an oracle spec has no [section] headers")
            if section not in SCHEMA:
                raise ConfigError(f"{where}: unknown config section [{section}]")
            if section in out:
                raise ConfigError(f"{where}: config section [{section}] given twice")
            out[section] = {}
            continue
        key, eq, value = text.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{where}: expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(f"{where}: key {key!r} comes before any [section] header")
        if key not in SCHEMA[section]:
            raise ConfigError(f"{where}: unknown key {key!r} in [{section}]")
        keys = out.setdefault(section, {})
        if key in keys:
            raise ConfigError(f"{where}: key {key!r} of [{section}] given twice")
        keys[key] = value
    return out


def parse_config_file(path) -> dict[str, dict[str, str]]:
    """Raw string values of a config file, by section."""
    return _read_settings(path, "config file")


def resolve_config(file_values: dict | None = None,
                   preset: str | None = None) -> dict[str, dict]:
    """Typed config with every default materialized.

    Precedence: defaults, then file values, then the preset (a requested
    ablation preset is an explicit override).
    """
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}")
    # (section, key) -> raw value; a preset's value replaces the file's
    overrides = {(section, key): value for section, keys in (file_values or {}).items()
                 for key, value in keys.items()}
    overrides.update(PRESETS.get(preset, {}))

    resolved: dict[str, dict] = {}
    for section, keys in SCHEMA.items():
        resolved[section] = {}
        for key, (parse, default, _help) in keys.items():
            raw = overrides.get((section, key))
            if raw is None:
                resolved[section][key] = default
                continue
            try:
                resolved[section][key] = parse(str(raw).strip())
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc
    return resolved


def format_resolved(cfg: dict[str, dict]) -> str:
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            value = cfg[section][key]
            text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def write_resolved(cfg: dict[str, dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_resolved(cfg))


def schedule_from(cfg: dict, names: tuple[str, str, str]) -> NoiseSchedule:
    """The [schedule] section's noise schedule; an error calls steps, beta1
    and beta_k by ``names``."""
    s = cfg["schedule"]
    return quadratic_schedule(s["steps"], s["beta1"], s["beta_k"],
                              variance_mode=s["variance_mode"], names=names)


def world_from(cfg: dict) -> GaussianOracleWorld:
    w = cfg["world"]
    return make_gaussian_world(w["nodes"], w["steps"], w["rho_s"], w["rho_t"],
                               w["mean"], seed=w["seed"])


def guidance_from(cfg: dict, names: dict[str, str]) -> tuple[GuidanceConfig, int | None]:
    """The [guidance] section's settings and its cluster count (None for
    auto); an error calls each key by ``names``."""
    g = cfg["guidance"]
    mode, fixed = mode_from_string(g["mode"], names["mode"])
    gcfg = GuidanceConfig(mode=mode, fixed_lambda=fixed, pi=g["pi"],
                          lambda_ref=g["lambda_ref"], t0=g["t0"], t1=g["t1"],
                          alpha_scale=g["alpha_scale"],
                          lambda_max=g["lambda_max"], scope=g["scope"],
                          names={**names, "fixed_lambda": f"the scale of {names['mode']}"})
    return gcfg, None if g["clusters"] == "auto" else g["clusters"]


def training_from(cfg: dict, stage: str) -> TrainConfig:
    """Optimizer settings of one stage ("uncond" or "cond")."""
    t = cfg["training"]
    return TrainConfig(epochs=t[f"epochs_{stage}"], lr=t[f"lr_{stage}"],
                       patience=t[f"patience_{stage}"],
                       weight_decay=t[f"weight_decay_{stage}"],
                       batch_size=t["batch"], seed=t["seed"])


def network_from(cfg: dict, n_nodes: int) -> NetConfig:
    """The shape of the network stage 1 builds; stage 2 fine-tunes a copy."""
    t = cfg["training"]
    return NetConfig(n_nodes=n_nodes, d_model=t["d_model"], n_layers=t["layers"],
                     n_heads=t["heads"])


def read_world_spec(path) -> dict[str, dict]:
    """Oracle spec file: `key = value` lines of [world] keys, with no header.

    Returns the resolved config; no world is built."""
    return resolve_config(_read_settings(path, "oracle spec", "world"))


def load_world_spec(spec) -> GaussianOracleWorld:
    """The world of an oracle spec: a spec file's path, or the config that
    read_world_spec returned for it, so the file need not be parsed again."""
    cfg = spec if isinstance(spec, dict) else read_world_spec(spec)
    try:
        return world_from(cfg)
    except ValueError as exc:
        raise ConfigError(f"bad oracle spec value: {exc}") from exc
