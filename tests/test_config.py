"""Configuration validation and YAML loading."""

import pytest

from gossipsim.config import (
    ADVOCATE,
    ETA_SEEDED,
    FIXED_LISTS,
    INTERLEAVE,
    MAX_CELLS,
    ONE_UNIQUE,
    PRIORITY_PUSH,
    RANDOM_PULL,
    SCHEMA_VERSION,
    ConfigError,
    SimulationConfig,
    load_config,
)
from gossipsim.sweep import SweepSpec


def make(**overrides):
    data = dict(n=10, k=3, protocol=RANDOM_PULL)
    data.update(overrides)
    return SimulationConfig(**data)


def test_minimal_config_validates():
    make().validate()


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(n=1), "n:"),
        (dict(n=0), "n:"),
        (dict(k=0), "k:"),
        (dict(protocol="flood"), "protocol:"),
        (dict(constraint="none"), "constraint:"),
        (dict(contact_model="mesh"), "contact_model:"),
        (dict(contact_model=FIXED_LISTS), "contact_list_size:"),
        (dict(contact_model=FIXED_LISTS, contact_list_size=0), "contact_list_size:"),
        (dict(contact_model=FIXED_LISTS, contact_list_size=10), "contact_list_size:"),
        (dict(contact_list_size=3), "contact_list_size:"),
        (dict(initial_state="everyone"), "initial_state:"),
        (dict(initial_state=ETA_SEEDED), "eta:"),
        (dict(initial_state=ETA_SEEDED, eta=0.0), "eta:"),
        (dict(initial_state=ETA_SEEDED, eta=1.5), "eta:"),
        (dict(eta=0.5), "eta:"),
        (dict(initial_state=ONE_UNIQUE), "one-unique"),
        (dict(spacing=0), "spacing:"),
        (dict(spacing=2), "spacing:"),
        (dict(epsilon=0.0), "epsilon:"),
        (dict(epsilon=1.0), "epsilon:"),
        (dict(protocol=ADVOCATE, initial_state=ETA_SEEDED, eta=0.5), "advocate"),
        (dict(protocol=INTERLEAVE, initial_state=ETA_SEEDED, eta=0.5), "single-source"),
        (
            dict(protocol=PRIORITY_PUSH, initial_state=ETA_SEEDED, eta=0.5),
            "single-source",
        ),
        (dict(seed=-1), "seed:"),
        (dict(seed=2**64), "seed:"),
        (dict(max_slots=0), "max_slots:"),
        # YAML booleans are not integers or reals, and strings are not
        # numbers or booleans
        (dict(n=True), "n:"),
        (dict(k=True), "k:"),
        (dict(contact_model=FIXED_LISTS, contact_list_size=True), "contact_list_size:"),
        (dict(initial_state=ETA_SEEDED, eta=True), "eta:"),
        (dict(protocol=PRIORITY_PUSH, spacing=True), "spacing:"),
        (dict(epsilon="0.1"), "epsilon:"),
        (dict(epsilon=True), "epsilon:"),
        (dict(seed=True), "seed:"),
        (dict(max_slots=True), "max_slots:"),
        (dict(record_trace="false"), "record_trace:"),
        (dict(record_trace=1), "record_trace:"),
    ],
)
def test_invalid_configs_name_the_field(overrides, fragment):
    with pytest.raises(ConfigError) as err:
        make(**overrides).validate()
    assert fragment in str(err.value)


def test_size_guard_bounds_the_arrivals_matrix():
    # n = k = 10^5 would ask init_state for a 40 GB arrivals matrix;
    # validate() refuses it before anything is allocated
    with pytest.raises(ConfigError, match=r"n \* k"):
        make(n=10**5, k=10**5).validate()
    with pytest.raises(ConfigError, match=r"n \* k"):
        SimulationConfig.from_mapping({"n": 10**5, "k": 10**5, "protocol": RANDOM_PULL})
    make(n=2**14, k=MAX_CELLS // 2**14).validate()  # exactly at the limit
    with pytest.raises(ConfigError, match=r"n \* k"):
        make(n=2**14, k=MAX_CELLS // 2**14 + 1).validate()


def test_one_unique_requires_k_equal_n():
    SimulationConfig(
        n=6, k=6, protocol=ADVOCATE, constraint="soft", initial_state=ONE_UNIQUE
    ).validate()
    with pytest.raises(ConfigError):
        SimulationConfig(
            n=6, k=5, protocol=ADVOCATE, constraint="soft", initial_state=ONE_UNIQUE
        ).validate()


def test_spacing_allowed_only_for_priority_push():
    SimulationConfig(n=10, k=3, protocol=PRIORITY_PUSH, spacing=4).validate()


def test_from_mapping_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError) as err:
        SimulationConfig.from_mapping({"n": 4, "k": 2, "protocol": RANDOM_PULL, "zeta": 1})
    assert "zeta" in str(err.value)
    with pytest.raises(ConfigError) as err:
        SimulationConfig.from_mapping({"n": 4})
    assert "protocol" in str(err.value)


def test_effective_max_slots_override_and_default():
    assert make(max_slots=77).effective_max_slots() == 77
    default = make().effective_max_slots()
    assert default > 100  # far above any plausible completion at n=10, k=3


def test_to_dict_roundtrip():
    cfg = make(seed=99)
    again = SimulationConfig.from_mapping(cfg.to_dict())
    assert again == cfg


def test_load_config_happy_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        f"schema_version: {SCHEMA_VERSION}\n"
        "n: 8\nk: 2\nprotocol: random-pull\nseed: 5\n"
    )
    cfg = load_config(path)
    assert (cfg.n, cfg.k, cfg.seed) == (8, 2, 5)


def test_load_config_requires_schema_version(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("n: 8\nk: 2\nprotocol: random-pull\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "schema_version" in str(err.value)


def test_load_config_rejects_bad_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("n: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "field, value",
    [("k", "true"), ("max_slots", "true"), ("epsilon", '"0.1"'), ("record_trace", '"false"')],
)
def test_load_config_rejects_mistyped_yaml_values(tmp_path, field, value):
    path = tmp_path / "run.yaml"
    path.write_text(
        f"schema_version: {SCHEMA_VERSION}\nn: 8\nk: 2\nprotocol: random-pull\n{field}: {value}\n"
    )
    with pytest.raises(ConfigError, match=f"{field}:"):
        load_config(path)


@pytest.mark.parametrize("field", ["seeds", "master_seed"])
def test_sweep_spec_rejects_boolean_counts(field):
    data = {"base": {"n": 8, "k": 2, "protocol": RANDOM_PULL}, field: True}
    with pytest.raises(ConfigError, match=f"'{field}'"):
        SweepSpec.from_mapping(data)
