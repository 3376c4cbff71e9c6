import math
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
    ],
)
def test_invalid_configs_rejected(line):
    with pytest.raises(ConfigError):
        parse_config(line)


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


def test_defaults_are_valid():
    SimConfig().validate()


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
