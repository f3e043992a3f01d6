"""JSON experiment configuration: defaults, validation, dotted overrides.

A config file is a JSON object following the shape of ``DEFAULTS``;
omitted keys take their default value.  Overrides are ``a.b.c=value``
strings whose value part is parsed as JSON when possible (so
``loss.lambda=0`` and ``encoder.widths=[64,32]`` both work).  Each is
merged in as a config file is, so its keys must exist and a dict value
sets only the keys it names; a sweep value is merged the same way
(``merge_at``).  The dataset seed, unless given explicitly, is derived
from the master seed (see ``seeding``), as is every other random stream
in a run.  A config's one written form is this JSON with every key
spelled out (``ExperimentConfig.to_dict``): manifests record it,
``show-config`` prints it, and ``config_from_dict`` reads it back.
"""

from __future__ import annotations

import copy
import dataclasses
import difflib
import functools
import json
import math
import typing

from .data import DataError, SparseDenseSpec
from .losses import LossError
from .networks import NetworkError
from .seeding import derive_seed
from .training import JSON_KEYS, ExperimentConfig, TrainingError


class ConfigError(Exception):
    pass


# every dataset kind's spec, by its ``dataset.kind`` name
DATASET_KINDS = {spec.kind: spec for spec in (SparseDenseSpec,)}

DEFAULTS: dict = ExperimentConfig().to_dict()
# every kind's fields at their defaults, then the default kind's; a null seed is
# derived from the master seed for a kind that has one
DEFAULTS["dataset"] = {**{f.name: f.default for spec in DATASET_KINDS.values()
                          for f in dataclasses.fields(spec)}, **DEFAULTS["dataset"], "seed": None}


def _merge(defaults: dict, given: dict, path: str = "", unknown: list | None = None) -> dict:
    """Recursive merge with unknown-key detection: one error names every
    unknown key of ``given``, each with the most similar key of its
    section, however unlike (a removed key has no close match).  A value
    holds no keys, so a dict given in its place names unknown keys."""
    found = [] if unknown is None else unknown
    out = copy.deepcopy(defaults)
    for key, value in given.items():
        dotted = f"{path}{key}"
        if key not in defaults:
            near = difflib.get_close_matches(key, defaults.keys(), n=1, cutoff=0.0)
            hint = f"; nearest valid key is '{path}{near[0]}'" if near else ""
            found.append(f"unknown config key '{dotted}'{hint}")
        elif isinstance(value, dict):
            section = defaults[key] if isinstance(defaults[key], dict) else {}
            out[key] = _merge(section, value, f"{dotted}.", found)
        else:
            out[key] = copy.deepcopy(value)
    if unknown is None and found:  # the top level raises for the whole tree
        raise ConfigError("; ".join(found))
    return out


def merge_at(base: dict, dotted: str | None, value) -> dict:
    """``base`` with ``value`` merged in at the dotted key, as a config
    file is merged onto the defaults; with no key, ``value`` is a whole
    config fragment."""
    for key in reversed(dotted.split(".") if dotted else []):
        value = {key: value}
    if not isinstance(value, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(value).__name__}")
    return _merge(base, value)


def apply_overrides(base: dict, overrides) -> dict:
    """``base`` with each ``a.b=value`` override merged in, in order;
    the value is parsed as JSON where it can be, else taken as a string."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        base = merge_at(base, dotted, value)
    return base


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
    return _scalar(tp, value, name)


_SCALAR_RULES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _scalar(tp, value, name: str):
    """``value`` as a field of scalar type ``tp``, refusing any value that
    would change meaning on conversion (``bool("no")`` is true,
    ``int(2.5)`` is 2, ``int(True)`` is 1, ``str(None)`` is ``'None'``)
    and any float that is not finite (NaN fails every range check, so it
    would pass them all); ``_coerce`` admits null only for an optional
    field."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is bool and (isinstance(value, bool) or value in ("true", "false")):
        return value in (True, "true")
    if tp is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if tp is float and number:
        if not math.isfinite(value):
            raise ConfigError(f"'{name}' must be finite, got {value!r}")
        return float(value)
    if tp is str and isinstance(value, str):
        return value
    raise ConfigError(f"'{name}' must be {_SCALAR_RULES[tp]}, got {value!r}")


def _build(cls, data: dict, prefix: str = "", **given):
    """An instance of dataclass ``cls`` from a dict keyed by config-file
    keys; absent keys take the field default."""
    hints = _type_hints(cls)
    for f in dataclasses.fields(cls):
        key = JSON_KEYS.get(f.name, f.name)
        if f.name not in given and key in data:
            given[f.name] = _coerce(hints[f.name], data[key], prefix + key)
    try:
        return cls(**given)
    except (DataError, LossError, NetworkError, TrainingError) as exc:
        # a section's own check starts its message with the field name
        raise ConfigError(f"{prefix}{exc}") from exc


def _dataset(ds: dict, master_seed: int):
    """The dataset spec of a merged ``dataset`` section."""
    spec = DATASET_KINDS.get(ds["kind"])
    if spec is None:
        raise ConfigError(f"unknown dataset kind {ds['kind']!r} ({' or '.join(DATASET_KINDS)})")
    if "seed" in _type_hints(spec) and ds.get("seed") is None:
        ds = {**ds, "seed": derive_seed(master_seed, "dataset")}
    return _build(spec, ds, "dataset.")


def config_from_dict(d: dict) -> ExperimentConfig:
    """The typed experiment config of a config-file JSON object, such as a
    run manifest's ``config`` block: ``d`` is merged onto ``DEFAULTS``
    first, so an unknown key is refused and names its nearest valid key."""
    d = merge_at(DEFAULTS, None, d)
    try:
        return _build(ExperimentConfig, d,
                      dataset=_dataset(d["dataset"], _scalar(int, d["seed"], "seed")))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def parse_config(path, overrides=None) -> tuple[ExperimentConfig, dict]:
    """Load, merge, override, validate; returns the config and its
    config-file JSON (``ExperimentConfig.to_dict``)."""
    try:
        with open(path) as fh:
            given = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    config = config_from_dict(apply_overrides(merge_at(DEFAULTS, None, given), overrides))
    return config, config.to_dict()
