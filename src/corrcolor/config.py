"""JSON experiment configuration: defaults, validation, dotted overrides.

A config file is a JSON object following the shape of ``DEFAULTS``;
omitted keys take their default value.  Overrides are ``a.b.c=value``
strings whose value part is parsed as JSON when possible (so
``loss.lambda=0`` and ``encoder.widths=[64,32]`` both work) and must
name an existing field.  The dataset seed, unless given explicitly, is
derived from the master seed (see ``seeding``), as is every other
random stream in a run.
"""

from __future__ import annotations

import copy
import dataclasses
import difflib
import functools
import json
import typing

from .data import SparseDenseSpec
from .seeding import derive_seed
from .training import ExperimentConfig, ImageSource


class ConfigError(Exception):
    pass


# dataclass field name -> JSON config key, where the two differ
_ALIASES = {"lam": "lambda", "lam_schedule": "lambda_schedule",
            "lam_block_epochs": "lambda_block_epochs"}

DEFAULTS: dict = json.loads(json.dumps(dataclasses.asdict(ExperimentConfig())))
DEFAULTS["dataset"].update(kind="synthetic", seed=None, path=None, labels_path=None)
DEFAULTS["loss"] = {_ALIASES.get(k, k): v for k, v in DEFAULTS["loss"].items()}


def _merge(defaults: dict, given: dict, path: str = "") -> dict:
    """Recursive merge with unknown-key detection and suggestions."""
    out = copy.deepcopy(defaults)
    for key, value in given.items():
        dotted = f"{path}{key}"
        if key not in defaults:
            near = difflib.get_close_matches(key, defaults.keys(), n=1)
            hint = f"; nearest valid key is '{path}{near[0]}'" if near else ""
            raise ConfigError(f"unknown config key '{dotted}'{hint}")
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            out[key] = _merge(defaults[key], value, path=f"{dotted}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


def apply_overrides(resolved: dict, overrides) -> dict:
    """Apply ``a.b=value`` pairs onto a resolved config dict."""
    out = copy.deepcopy(resolved)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        dotted, raw = item.split("=", 1)
        keys = dotted.split(".")
        node = out
        ref = DEFAULTS
        for i, key in enumerate(keys):
            if not isinstance(ref, dict) or key not in ref:
                valid = ref.keys() if isinstance(ref, dict) else []
                near = difflib.get_close_matches(key, valid, n=1)
                hint = f"; nearest valid key is '{near[0]}'" if near else ""
                raise ConfigError(f"unknown override key '{dotted}'{hint}")
            if i == len(keys) - 1:
                try:
                    node[key] = json.loads(raw)
                except json.JSONDecodeError:
                    node[key] = raw
            else:
                node = node.setdefault(key, {})
                ref = ref[key]
    return out


@functools.cache
def _type_hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _coerce(tp, value, name: str):
    """``value`` converted to the field type ``tp``."""
    args = typing.get_args(tp)
    if type(None) in args:  # optional field
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        args = typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, f"{name}.")
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"'{name}' must be a list, got {value!r}")
        types = [args[0]] * len(value) if args[-1] is Ellipsis else args
        if len(types) != len(value):
            raise ConfigError(f"'{name}' must be a list of {len(types)} values, got {value!r}")
        return tuple(_coerce(t, v, name) for t, v in zip(types, value))
    return tp(value)


def _build(cls, data: dict, prefix: str = "", **given):
    """An instance of dataclass ``cls`` from a dict keyed by field names
    or their JSON aliases; absent keys take the field default."""
    hints = _type_hints(cls)
    for f in dataclasses.fields(cls):
        key = _ALIASES.get(f.name, f.name)
        key = key if key in data else f.name
        if f.name not in given and key in data:
            given[f.name] = _coerce(hints[f.name], data[key], prefix + key)
    return cls(**given)


def _dataset(ds: dict, master_seed: int):
    """The dataset recipe; a manifest's dataset block has no ``kind``."""
    kind = ds.get("kind", "synthetic" if "num_classes" in ds else "image")
    if kind == "synthetic":
        seed = derive_seed(master_seed, "dataset") if ds.get("seed") is None else ds["seed"]
        return _build(SparseDenseSpec, ds, "dataset.", seed=int(seed))
    if kind == "image":
        if not ds.get("path"):
            raise ConfigError("image dataset needs 'dataset.path'")
        return _build(ImageSource, ds, "dataset.")
    raise ConfigError(f"unknown dataset kind {kind!r} (synthetic or image)")


def config_from_dict(d: dict) -> ExperimentConfig:
    """The typed experiment config of a resolved JSON config, or of the
    ``config`` block of a run manifest (``dataclasses.asdict`` output)."""
    try:
        config = _build(ExperimentConfig, d, dataset=_dataset(d["dataset"], int(d["seed"])))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc

    # eager structural validation so bad tap indices fail at parse time
    try:
        config.encoder.spec_for(max(config.encoder.widths))
    except Exception as exc:
        raise ConfigError(f"invalid encoder configuration: {exc}") from exc
    return config


def parse_config(path, overrides=None) -> tuple[ExperimentConfig, dict]:
    """Load, merge, override, validate; returns (config, resolved dict)."""
    try:
        with open(path) as fh:
            given = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(given, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(given).__name__}")
    resolved = _merge(DEFAULTS, given)
    resolved = apply_overrides(resolved, overrides)
    return config_from_dict(resolved), resolved
