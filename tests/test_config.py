import dataclasses
import math
import re
from pathlib import Path

import pytest

from bcesim.config import SimConfig, parse_config, paper_default
from bcesim.core import ConfigError
from bcesim.dists import Delay
from conftest import ZERO_LATENCY


def test_empty_file_gives_the_default_preset():
    assert parse_config("") == paper_default()


def test_block_size_override():
    assert parse_config("block_size = 10").block_size == 10
    assert parse_config("block_size = 3").block_size == 3


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\n  timeout = 1.5  # trailing\n")
    assert cfg.timeout == 1.5


def test_distribution_values():
    cfg = parse_config("endorse_time = fixed:0.01\ncomm_latency = exp:0.05\n")
    assert cfg.endorse_time == Delay("fixed", 0.01)
    assert cfg.comm_latency == Delay("exp", 0.05)


def test_out_of_range_stp_rejected():
    with pytest.raises(ConfigError, match="stp"):
        parse_config("stp = 1.3")


def test_unknown_key_names_line_and_key():
    with pytest.raises(ConfigError, match="line 2.*unknown key 'blocksize'"):
        parse_config("timeout = 1\nblocksize = 5\n")


def test_malformed_line_diagnostic():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("timeout 1.0")


def test_bad_value_diagnostic_names_key():
    with pytest.raises(ConfigError, match="line 1.*'block_size'"):
        parse_config("block_size = many")


@pytest.mark.parametrize(
    "line",
    [
        "total_rate = 0",
        "target_ratio = 1.5",
        "block_size = 0",
        "timeout = 0",
        "n_kafka = 3",
        "n_channels = 0",
        "horizon = 50\nwarmup = 60",
        "replications = 0",
        "target_aoi = -1",
        "discipline = random",
        "transmit_time = -0.01",
        "n_endorsers = 0",
        "ordering_base = -0.01",
        "ordering_per_kafka = -0.01",
        "validate_block_overhead = -0.01",
        "validate_per_tx = -0.01",
        "vscc_fail_prob = 1.01",
        "warmup = -1",
        "generation_mode = bursty",
    ],
)
def test_invalid_configs_rejected(line):
    with pytest.raises(ConfigError):
        parse_config(line)


@pytest.mark.parametrize(
    "line",
    [
        "target_ratio = 0",
        "target_ratio = 1",
        "stp = 0",
        "vscc_fail_prob = 1",
        "n_kafka = 4",
        "warmup = 0",
        "target_aoi = 0",
    ],
)
def test_closed_range_ends_accepted(line):
    key, value = line.split(" = ")
    assert getattr(parse_config(line), key) == float(value)


def test_zero_latency_pipeline_rejected():
    with pytest.raises(ConfigError, match="'transmit_time'.*'comm_latency'.*'endorse_time'"
                       ".*'ordering_base'.*'validate_block_overhead'.*'validate_per_tx'"):
        parse_config(ZERO_LATENCY)
    # ordering_per_kafka adds nothing at the 4-node minimum
    with pytest.raises(ConfigError, match="zero-latency"):
        parse_config(ZERO_LATENCY + "ordering_per_kafka = 0.5\n")
    for one_delay in ("n_kafka = 5", "transmit_time = 0.01", "comm_latency = exp:0.1",
                      "endorse_time = fixed:0.1", "validate_per_tx = 0.01"):
        key = one_delay.split(" = ")[0]
        text = "\n".join(line for line in ZERO_LATENCY.splitlines()
                         if not line.startswith(key + " "))
        parse_config(text + "\n" + one_delay)


def test_replace_validates():
    with pytest.raises(ConfigError):
        paper_default().replace(stp=-0.1)
    with pytest.raises(ConfigError, match="'discipline'.*'random'"):
        paper_default().replace(discipline="random")


def test_defaults_are_valid():
    SimConfig().validate()


def test_a_config_is_valid_by_construction_and_never_changes():
    # Every way to make a config checks it, so no invalid config reaches a run.
    with pytest.raises(ConfigError, match="'block_size'"):
        SimConfig(block_size=0)
    with pytest.raises(ConfigError, match="'horizon'"):
        dataclasses.replace(paper_default(), horizon=-1.0)
    cfg = paper_default()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.block_size = 3
    assert cfg == paper_default()


@pytest.mark.parametrize(
    "line, key",
    [
        ("horizon = inf", "horizon"),
        ("timeout = inf", "timeout"),
        ("transmit_time = nan", "transmit_time"),
        ("ordering_base = nan", "ordering_base"),
        ("target_aoi = -inf", "target_aoi"),
        ("endorse_time = exp:nan", "endorse_time"),
        ("comm_latency = fixed:inf", "comm_latency"),
    ],
)
def test_non_finite_values_rejected_with_line_and_key(line, key):
    with pytest.raises(ConfigError, match=f"line 2: key '{key}'.*finite"):
        parse_config("block_size = 5\n" + line)


def test_duplicate_key_names_both_lines():
    with pytest.raises(ConfigError, match="line 3: duplicate key 'horizon'.*line 1"):
        parse_config("horizon = 100\nwarmup = 10\nhorizon = 200\n")


@pytest.mark.parametrize(
    "key, value",
    [("horizon", math.inf), ("stp", math.nan), ("comm_latency", Delay("exp", math.inf))],
)
def test_replace_rejects_non_finite_values(key, value):
    with pytest.raises(ConfigError, match=f"'{key}'.*finite"):
        paper_default().replace(**{key: value})


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [example] = [block for block in readme.split("```")[1::2] if "total_rate =" in block]
    assert parse_config(example) == paper_default()
    enabled = parse_config(example.replace("# target_aoi", "target_aoi"))
    assert enabled.target_aoi == 5.0


_INT_KEYS = [field.name for field in dataclasses.fields(SimConfig) if field.type is int]


@pytest.mark.parametrize("key", _INT_KEYS)
@pytest.mark.parametrize("value", [2.5, 4.0, True, "5"])
def test_int_keys_reject_non_integers_before_any_run(key, value):
    # A float would fail mid-run (`block_size` 2.5 in the cut pass, `n_channels`
    # 1.5 in the channel split) and a bool would run as 0 or 1.
    with pytest.raises(ConfigError, match=f"'{key}'.*must be an integer"):
        paper_default().replace(**{key: value})


def test_int_keys_are_the_integer_fields():
    assert _INT_KEYS == ["block_size", "n_endorsers", "n_kafka", "n_channels", "master_seed",
                         "replications"]


_FLOAT_KEYS = [field.name for field in dataclasses.fields(SimConfig)
               if field.type in (float, float | None)]


@pytest.mark.parametrize("key", _FLOAT_KEYS)
@pytest.mark.parametrize("value", [True, False, "1"])
def test_float_keys_reject_non_numbers_before_any_run(key, value):
    # A bool would run as 1 or 0, and a string would fail in the range check.
    with pytest.raises(ConfigError, match=f"'{key}'.*must be a number"):
        paper_default().replace(**{key: value})


@pytest.mark.parametrize("key", [key for key in _FLOAT_KEYS if key != "target_aoi"])
def test_only_target_aoi_may_be_unset(key):
    with pytest.raises(ConfigError, match=f"'{key}'.*must be a number, got None"):
        paper_default().replace(**{key: None})


@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_float_keys_take_an_int(key):
    default = getattr(paper_default(), key)
    value = 1 if default is None else round(default)
    assert getattr(paper_default().replace(**{key: value}), key) == value


@pytest.mark.parametrize(
    "text, message",
    [
        ("exp:-0.02", "exponential mean must be > 0"),
        ("exp:0", "exponential mean must be > 0"),
        ("fixed:-0.5", "fixed delay must be >= 0"),
        ("uniform:0.1", "expected 'fixed:<v>' or 'exp:<mean>'"),
    ],
)
def test_validate_rejects_the_delays_that_parse_rejects(text, message):
    # Such a delay would run with a negative latency, fail mid-run or run as
    # an exponential.
    with pytest.raises(ConfigError, match=re.escape(message)):
        Delay.parse(text)
    kind, _, raw = text.partition(":")
    for key in ("comm_latency", "endorse_time"):
        with pytest.raises(ConfigError, match=f"config key '{key}': .*{re.escape(message)}"):
            paper_default().replace(**{key: Delay(kind, float(raw))})


@pytest.mark.parametrize(
    "value, message",
    [(Delay("fixed", "0.1"), "must be a number"), (Delay("exp", True), "must be a number"),
     (0.5, "must be a Delay")],
)
def test_validate_rejects_a_delay_key_that_is_not_a_delay_of_a_number(value, message):
    with pytest.raises(ConfigError, match=f"config key 'comm_latency': .*{message}"):
        paper_default().replace(comm_latency=value)
