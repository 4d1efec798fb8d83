"""Configuration validation and YAML loading, and the one rule every
number, and every mapping, from outside is checked by."""

import math
import re
from random import Random

import pytest

from gossipsim.config import (
    ADVOCATE,
    ETA_SEEDED,
    FIXED_LISTS,
    INTERLEAVE,
    MAX_CELLS,
    MAX_LIST_ENTRIES,
    MAX_SLOTS,
    ONE_UNIQUE,
    PRIORITY_PUSH,
    RANDOM_PULL,
    SCHEMA_VERSION,
    ConfigError,
    SimulationConfig,
    check_keys,
    load_config,
    read_versioned_yaml,
)
from gossipsim.engine import build_contact_lists
from gossipsim.figures import reproduce
from gossipsim.metrics import splitting_speedup
from gossipsim.oracle import bound_value, geo_sum_tail, gossip_mean_map
from gossipsim.sweep import SweepSpec, check_seeds, execute


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


def test_size_guard_bounds_the_contact_lists():
    # n * contact_list_size list entries, about 48 bytes each; validate()
    # refuses more than MAX_LIST_ENTRIES before any list is drawn.  Only
    # validate is called here: a list at the limit would take 0.8 GiB
    fixed = dict(n=2**20, k=1, contact_model=FIXED_LISTS)
    make(**fixed, contact_list_size=MAX_LIST_ENTRIES // 2**20).validate()  # at the limit
    with pytest.raises(ConfigError, match=r"^contact_list_size: .* got 1048576 \* 17 = 17825792$"):
        make(**fixed, contact_list_size=MAX_LIST_ENTRIES // 2**20 + 1).validate()
    make(n=500, k=1, contact_model=FIXED_LISTS, contact_list_size=32).validate()  # fig1, full scale


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


def test_max_slots_is_refused_past_the_int32_arrivals_matrix():
    # a slot past 2**31 - 1 would not fit its arrivals cell: refused up front
    make(max_slots=MAX_SLOTS).validate()
    for too_many in (MAX_SLOTS + 1, 2**40):
        with pytest.raises(ConfigError, match=r"max_slots: need an integer in \[1, 2147483647\]"):
            make(max_slots=too_many).validate()


def test_default_slot_cap_stops_at_the_int32_limit():
    # 50 (k + ceil(log2 n)) + 10 n is 6,710,886,470 at n = 2, k = 2**27
    widest = make(n=2, k=MAX_CELLS // 2)
    widest.validate()
    assert widest.effective_max_slots() == MAX_SLOTS == 2**31 - 1
    assert make(n=2, k=2**20).effective_max_slots() == 50 * (2**20 + 1) + 20


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


def test_read_versioned_yaml_rejects_a_top_level_that_is_not_a_mapping(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(f"- schema_version: {SCHEMA_VERSION}\n")
    with pytest.raises(ConfigError, match="expected a mapping at top level"):
        read_versioned_yaml(path)


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
    with pytest.raises(ConfigError, match=f"^sweep: {field}: need an integer in "):
        SweepSpec.from_mapping(data)


NAN = float("nan")


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: make(n=NAN).validate(), "n"),
        (lambda: make(initial_state=ETA_SEEDED, eta=NAN).validate(), "eta"),
        (lambda: make(epsilon=NAN).validate(), "epsilon"),
        (lambda: make(seed="7").validate(), "seed"),
        (lambda: check_seeds(1, "0", "sweep"), "sweep: master_seed"),
        (lambda: execute([], jobs=True), "jobs"),
        (lambda: reproduce("fig1", scale=True), "scale"),
        (lambda: reproduce("fig1", scale="0.5"), "scale"),
        (lambda: reproduce("fig1", scale=NAN), "scale"),
        (lambda: bound_value("thm1", n=64, k=32, beta=True, eps=0.1), "thm1: beta"),
        (lambda: bound_value("thm1", n=math.inf, k=32, beta=0.5, eps=0.1), "thm1: n"),
        (lambda: bound_value("thm1", n=64, k=32, beta=0.5, eps=NAN), "thm1: eps"),
        (lambda: bound_value("thm6", n=64, k="32", eps=0.1), "thm6: k"),
        (lambda: build_contact_lists(5, True, Random(0)), "contact_list_size"),
        (lambda: gossip_mean_map(1, True), "n"),
        (lambda: geo_sum_tail(1000, 145, NAN), "eps"),
        (lambda: splitting_speedup(True, 1024), "k"),
    ],
    ids=[
        "n-nan", "eta-nan", "epsilon-nan", "seed-text", "master_seed-text", "jobs-bool",
        "scale-bool", "scale-text", "scale-nan", "beta-bool", "n-inf", "eps-nan", "k-text",
        "contact_list_size-bool", "sampler-n-bool", "sampler-eps-nan", "speedup-k-bool",
    ],
)
def test_outside_numbers_are_refused_in_one_format(call, field):
    # a bool, a string or NaN is refused wherever a number comes in, and
    # every refusal reads "<field>: need <kind> <range>, got <value>"
    with pytest.raises(ConfigError) as err:
        call()
    assert re.match(
        rf"{re.escape(field)}: need (an integer|a number) in [\[(]\S+, \S+[\])], got ", str(err.value)
    ), str(err.value)


def test_check_keys_refuses_in_three_formats():
    data = {"a": 1}
    assert check_keys("x", data, ("a", "b"), ("a",)) is data
    with pytest.raises(ConfigError, match=r"^x: need a mapping, got list$"):
        check_keys("x", [("a", 1)], ("a", "b"))
    with pytest.raises(ConfigError, match=r"^x: unknown keys \['c'\]; known: \['a', 'b'\]$"):
        check_keys("x", {"a": 1, "c": 2}, ("a", "b"), ("b",))
    with pytest.raises(ConfigError, match=r"^x: missing keys \['b'\]$"):
        check_keys("x", data, ("a", "b"), ("a", "b"))
    # a YAML key need not be a string; it is named as it was given
    with pytest.raises(ConfigError, match=r"^x: unknown keys \[1, 'c'\]; known: "):
        check_keys("x", {1: 0, "c": 0}, ("a",))


RUN = {"n": 8, "k": 2, "protocol": RANDOM_PULL}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SimulationConfig.from_mapping([8, 2]), "config: need a mapping, got list"),
        (
            lambda: SimulationConfig.from_mapping({**RUN, "sed": 1}),
            "config: unknown keys ['sed']; known: ['constraint', ",
        ),
        (lambda: SimulationConfig.from_mapping({"n": 8}), "config: missing keys ['k', 'protocol']"),
        (lambda: SweepSpec.from_mapping(5), "sweep: need a mapping, got int"),
        (lambda: SweepSpec.from_mapping({"seed": 1}), "sweep: unknown keys ['seed']; known: "),
        (lambda: SweepSpec.from_mapping({"axes": {}}), "sweep: missing keys ['base']"),
        (lambda: SweepSpec.from_mapping({"base": None}), "sweep: base: need a mapping, got NoneType"),
        # a base key is checked when the sweep loads, not when its cells are planned
        (
            lambda: SweepSpec.from_mapping({"base": {**RUN, "spacnig": 2}}),
            "sweep: base: unknown keys ['spacnig']; known: ",
        ),
        (
            lambda: SweepSpec.from_mapping({"base": RUN, "axes": [["n", [8]]]}),
            "sweep: axes: need a mapping, got list",
        ),
        # an empty value is no mapping either: it does not stand for no axes
        (lambda: SweepSpec.from_mapping({"base": RUN, "axes": 0}), "sweep: axes: need a mapping, got int"),
        (
            lambda: SweepSpec.from_mapping({"base": RUN, "axes": {"m": [2], "seed": [1]}}),
            "sweep: axes: unknown keys ['seed']; known: ['constraint', 'eta', ",
        ),
        (
            lambda: bound_value("thm6", n=64, k=32, eps=0.1, eta=0.5),
            "thm6: unknown keys ['eta']; known: ['eps', 'k', 'n']",
        ),
        (lambda: bound_value("thm6", n=64, k=32), "thm6: missing keys ['eps']"),
    ],
    ids=[
        "config-list", "config-unknown", "config-missing", "sweep-int", "sweep-unknown",
        "sweep-missing", "base-none", "base-unknown", "axes-list", "axes-zero", "axes-unknown",
        "bound-unknown", "bound-missing",
    ],
)
def test_outside_mappings_are_refused_in_one_format(call, message):
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value).startswith(message), str(err.value)
