"""Run configuration: identifiers, validation, YAML loading.

Every run is described by one :class:`SimulationConfig`.  Validation is
strict and front-loaded so that sweeps fail before any simulation starts,
with error messages naming the offending field.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Mapping

import yaml

from .version import VERSION

__all__ = [
    "SCHEMA_VERSION",
    "VERSION",
    "HEADER",
    "ConfigError",
    "SimulationConfig",
    "load_config",
    "read_versioned_yaml",
    "MAX_CELLS",
    "MAX_LIST_ENTRIES",
    "MAX_SLOTS",
    "RANDOM_PULL",
    "SEQUENTIAL_PULL",
    "RANDOM_PUSH",
    "PRIORITY_PUSH",
    "INTERLEAVE",
    "ADVOCATE",
    "PROTOCOLS",
    "SOURCE_SCHEDULED",
    "HARD",
    "SOFT",
    "CONSTRAINTS",
    "UNIFORM",
    "FIXED_LISTS",
    "CONTACT_MODELS",
    "SINGLE_SOURCE",
    "ETA_SEEDED",
    "ONE_UNIQUE",
    "INITIAL_STATES",
]

SCHEMA_VERSION = 1
# The versions that lead every run record, result CSV and trace, in order.
HEADER = {"schema_version": SCHEMA_VERSION, "tool_version": VERSION}

# Protocol identifiers (normative strings used in configs, CSVs, and the CLI).
RANDOM_PULL = "random-pull"
SEQUENTIAL_PULL = "sequential-pull"
RANDOM_PUSH = "random-push"
PRIORITY_PUSH = "priority-push"
INTERLEAVE = "interleave"
ADVOCATE = "advocate"
PROTOCOLS = (
    RANDOM_PULL,
    SEQUENTIAL_PULL,
    RANDOM_PUSH,
    PRIORITY_PUSH,
    INTERLEAVE,
    ADVOCATE,
)

# Protocols whose source pushes pieces on a fixed schedule.
SOURCE_SCHEDULED = (PRIORITY_PUSH, INTERLEAVE)

HARD = "hard"
SOFT = "soft"
CONSTRAINTS = (HARD, SOFT)

UNIFORM = "uniform"
FIXED_LISTS = "fixed-lists"
CONTACT_MODELS = (UNIFORM, FIXED_LISTS)

SINGLE_SOURCE = "single-source"
ETA_SEEDED = "eta-seeded"
ONE_UNIQUE = "one-unique-per-user"
INITIAL_STATES = (SINGLE_SOURCE, ETA_SEEDED, ONE_UNIQUE)

_MAX_SEED = 2**64

# Largest n * k a run may have: the engine allocates an (n, k) int32
# arrivals matrix up front, so this caps it at 1 GiB.
MAX_CELLS = 2**28
# Largest n * contact_list_size a fixed-lists run may have: its lists cost
# about 48 bytes per entry (a tuple slot and its int, and a contact_table
# cell), so this keeps them under 0.8 GiB.
MAX_LIST_ENTRIES = 2**24
# Largest slot a run may reach: the arrivals matrix records slots as int32.
MAX_SLOTS = 2**31 - 1


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


# What a refusal says each kind of value needs.
NEED = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def is_kind(value, kind) -> bool:
    """Whether `value` is a `kind` of :data:`NEED`: an int is a float too, but
    a bool is never a number, so YAML's ``true`` does not pass as 1."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, kind) or kind is float and isinstance(value, int)


def check_range(name: str, value, kind, lo, hi, brackets: str):
    """`value`, if it is a `kind` (int or float) from `lo` to `hi`, where
    "(" and ")" in `brackets` leave an end out; else a :class:`ConfigError`
    ``<name>: need <kind> <range>, got <value!r>``.  NaN lies in no range,
    and an open infinite end leaves out inf."""
    if is_kind(value, kind):
        above = lo < value if brackets[0] == "(" else lo <= value
        below = value < hi if brackets[1] == ")" else value <= hi
        if above and below:
            return value
    raise ConfigError(
        f"{name}: need {NEED[kind]} in {brackets[0]}{lo}, {hi}{brackets[1]}, got {value!r}"
    )


def check_choice(name: str, value, choices: tuple) -> None:
    """A :class:`ConfigError` unless `value` is one of `choices`."""
    if value not in choices:
        raise ConfigError(f"{name}: need one of {choices}, got {value!r}")


def check_keys(where: str, data, known, required=()) -> Mapping:
    """`data`, if it is a mapping with every key in `known` and every name in
    `required`; else a :class:`ConfigError` ``<where>: need a mapping, got
    <type>``, ``…: unknown keys [...]; known: [...]`` or ``…: missing keys [...]``."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where}: need a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - set(known), key=str)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; known: {sorted(known)}")
    missing = [name for name in required if name not in data]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    return data


@dataclass
class SimulationConfig:
    """Complete description of one simulation run."""

    n: int
    k: int
    protocol: str
    constraint: str = HARD
    contact_model: str = UNIFORM
    contact_list_size: int | None = None
    initial_state: str = SINGLE_SOURCE
    eta: float | None = None
    spacing: int = 1
    epsilon: float = 0.1
    seed: int = 0
    max_slots: int | None = None
    record_trace: bool = False

    def validate(self) -> None:
        """Raise :class:`ConfigError` on the first inconsistent field."""
        check_range("n", self.n, int, 2, math.inf, "[)")
        check_range("k", self.k, int, 1, math.inf, "[)")
        if self.n * self.k > MAX_CELLS:
            raise ConfigError(
                f"n * k: need at most {MAX_CELLS} (user, piece) cells, got "
                f"{self.n} * {self.k} = {self.n * self.k}"
            )
        check_choice("protocol", self.protocol, PROTOCOLS)
        check_choice("constraint", self.constraint, CONSTRAINTS)
        check_choice("contact_model", self.contact_model, CONTACT_MODELS)
        if self.contact_model == FIXED_LISTS:
            check_range("contact_list_size", self.contact_list_size, int, 1, self.n - 1, "[]")
            if self.n * self.contact_list_size > MAX_LIST_ENTRIES:
                raise ConfigError(
                    f"contact_list_size: need n * contact_list_size at most {MAX_LIST_ENTRIES} "
                    f"list entries, got {self.n} * {self.contact_list_size} "
                    f"= {self.n * self.contact_list_size}"
                )
        elif self.contact_list_size is not None:
            raise ConfigError(
                "contact_list_size: only meaningful with the fixed-lists "
                "contact model"
            )
        check_choice("initial_state", self.initial_state, INITIAL_STATES)
        if self.initial_state == ETA_SEEDED:
            check_range("eta", self.eta, float, 0, 1, "(]")
        elif self.eta is not None:
            raise ConfigError("eta: only meaningful with the eta-seeded start")
        if self.initial_state == ONE_UNIQUE and self.k != self.n:
            raise ConfigError(
                "initial_state: one-unique-per-user requires k == n, got "
                f"k={self.k}, n={self.n}"
            )
        check_range("spacing", self.spacing, int, 1, math.inf, "[)")
        if self.spacing != 1 and self.protocol != PRIORITY_PUSH:
            raise ConfigError(
                "spacing: only the priority-push protocol takes a release "
                "spacing other than 1"
            )
        check_range("epsilon", self.epsilon, float, 0, 1, "()")
        if self.protocol == ADVOCATE and self.initial_state != ONE_UNIQUE:
            raise ConfigError(
                "protocol: advocate requires the one-unique-per-user start"
            )
        if self.protocol in SOURCE_SCHEDULED and self.initial_state != SINGLE_SOURCE:
            raise ConfigError(
                f"protocol: {self.protocol} requires the single-source start"
            )
        check_range("seed", self.seed, int, 0, _MAX_SEED, "[)")
        if self.max_slots is not None:
            check_range("max_slots", self.max_slots, int, 1, MAX_SLOTS, "[]")
        if not is_kind(self.record_trace, bool):
            raise ConfigError(
                f"record_trace: need {NEED[bool]}, got {self.record_trace!r}"
            )

    def effective_max_slots(self) -> int:
        """Slot cap for this run.

        The default is generous: the protocols studied here complete in
        O(k + log n) to O(k log n) slots, so a cap of ``50 (k + log2 n) + 10 n``
        sits far above every completion time and analytic bound of interest
        while still terminating runs that genuinely stall.  It stops at
        :data:`MAX_SLOTS` (2**31 - 1), the last slot the int32 arrivals
        matrix can record.  A run that settles (no later slot can change a
        holding) reports this cap as its slot count without stepping the
        slots in between.
        """
        if self.max_slots is not None:
            return self.max_slots
        return min(50 * (self.k + math.ceil(math.log2(self.n))) + 10 * self.n, MAX_SLOTS)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any], where: str = "config") -> "SimulationConfig":
        """Build and validate a config from a plain mapping; an unknown key
        is refused, so that a typo does not silently run the default."""
        config = cls(**check_keys(where, data, CONFIG_FIELDS, ("n", "k", "protocol")))
        try:
            config.validate()
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        return config


CONFIG_FIELDS = tuple(f.name for f in fields(SimulationConfig))


class _UniqueKeyLoader(yaml.SafeLoader):
    """PyYAML's safe loader, except that a mapping naming one key twice is
    an error: the safe loader keeps the last value without a word."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _value in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":  # "<<": its keys may be overridden
                continue
            key = self.construct_object(key_node, deep=deep)
            if isinstance(key, Hashable):  # the loader itself refuses the rest
                if key in seen:
                    raise yaml.YAMLError(f"line {key_node.start_mark.line + 1}: duplicate key {key!r}")
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


def read_utf8(path: Path) -> str:
    """A file's text; a ConfigError naming the file if it is not UTF-8."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_versioned_yaml(path: str | Path) -> dict:
    """The top-level mapping of a YAML file, without its ``schema_version``,
    which must match :data:`SCHEMA_VERSION`; a key given twice in any
    mapping is refused."""
    path = Path(path)
    text = read_utf8(path)
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    version = raw.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    return raw


def load_config(path: str | Path) -> SimulationConfig:
    """Load one run configuration from a schema-versioned YAML file whose
    other keys are :class:`SimulationConfig` fields."""
    where = str(Path(path))
    return SimulationConfig.from_mapping(read_versioned_yaml(path), where=where)
