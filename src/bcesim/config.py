"""Experiment configuration: one `key = value` per line, `#` comments.

Missing keys take the `paper-default` calibration preset; unknown keys and
out-of-range values are rejected with a diagnostic naming the line and key.
Delay-valued keys use `fixed:<v>` or `exp:<mean>`.  Non-finite numbers and
repeated keys are rejected too.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Literal, get_args, get_origin

from .core import ConfigError
from .dists import Delay


# Fields that only change what is measured on a sample path, never the path
# itself: one simulation serves every value of them.
MEASUREMENT_FIELDS = frozenset({"target_aoi", "warmup"})

# Fields that act only after endorsement: runs that differ in them alone
# share generation through endorsement (`frontback.run_front`).
BACK_FIELDS = frozenset({
    "block_size", "timeout", "ordering_base", "ordering_per_kafka", "n_kafka",
    "validate_block_overhead", "validate_per_tx", "vscc_fail_prob",
})


@dataclass(frozen=True)
class SimConfig:
    """Every config key, with its type and its paper-default value.

    A key's type decides how its value is parsed; `_BOUNDS` holds its range.
    A config is checked when it is made, by `SimConfig(...)`, `replace` or
    `dataclasses.replace`, and never changes after, so every config a run
    sees is valid.
    """

    # workload / channel
    total_rate: float = 10.0
    generation_mode: Literal["periodic", "exponential"] = "periodic"
    target_ratio: float = 0.3
    discipline: Literal["fcfs", "lcfs"] = "fcfs"
    stp: float = 1.0
    comm_latency: Delay = Delay("fixed", 0.0)
    transmit_time: float = 0.0  # channel occupancy per proposal
    # blockchain parameters
    block_size: int = 10
    timeout: float = 2.0
    n_endorsers: int = 1
    n_kafka: int = 4
    n_channels: int = 1
    # calibrated service times (tuned once so the qualitative shapes hold;
    # absolute values are calibration, not measurement)
    endorse_time: Delay = Delay("exp", 0.02)  # per endorsing peer
    ordering_base: float = 0.05
    ordering_per_kafka: float = 0.06  # per node beyond the 4-node minimum
    validate_block_overhead: float = 0.125
    validate_per_tx: float = 0.04
    vscc_fail_prob: float = 0.0
    # run control
    horizon: float = 2000.0
    warmup: float = 100.0
    master_seed: int = 12345
    replications: int = 30
    target_aoi: float | None = None

    def __post_init__(self):
        self.validate()

    def validate(self):
        def fail(key, msg):
            raise ConfigError(f"config key '{key}': {msg}")

        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type is int and (value.__class__ is bool or not isinstance(value, int)):
                fail(field.name, f"must be an integer, got {value!r}")
            if field.type in (float, float | None) and not (
                    value is None and field.type is not float
                    or value.__class__ is not bool and isinstance(value, (int, float))):
                fail(field.name, f"must be a number, got {value!r}")
            if field.type is Delay:
                if not isinstance(value, Delay):
                    fail(field.name, f"must be a Delay, got {value!r}")
                try:
                    value.check()
                except ConfigError as exc:
                    raise ConfigError(f"config key '{field.name}': {exc}") from None
            elif isinstance(value, float) and not math.isfinite(value):
                fail(field.name, f"must be finite, got {value}")
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                fail(key, f"expected one of {sorted(choices)}, got {getattr(self, key)!r}")
        for key, (low_end, low, high) in _BOUNDS.items():
            value = getattr(self, key)
            if value is None:  # target_aoi unset
                continue
            above = value > low if low_end == "(" else value >= low
            if not above or (high is not None and value > high):
                allowed = (f"in {low_end}{low}, {high}]" if high is not None
                           else f"{'>' if low_end == '(' else '>='} {low}")
                fail(key, f"must be {allowed}, got {value}")
        if (self.transmit_time == 0 and self.comm_latency.value == 0
                and self.endorse_time.value == 0 and ordering_delay(self) == 0
                and self.validate_block_overhead == 0 and self.validate_per_tx == 0):
            raise ConfigError(
                "config keys 'transmit_time', 'comm_latency', 'endorse_time', "
                "'ordering_base'/'ordering_per_kafka', 'validate_block_overhead' and "
                "'validate_per_tx' give a zero-latency pipeline: a proposal would "
                "commit at its own generation instant; make at least one delay > 0"
            )
        if not self.horizon > self.warmup:
            fail("horizon", f"must exceed warmup {self.warmup}, got {self.horizon}")

    replace = dataclasses.replace


def ordering_delay(cfg):
    """Service time to turn a cut block into a deliverable one: affine in
    the Kafka node count beyond the 4-node minimum."""
    return cfg.ordering_base + cfg.ordering_per_kafka * (cfg.n_kafka - 4)


# The range of each bounded key: (low end, low, high).  The low end is "[" if
# `low` itself is allowed and "(" if not; `high`, if given, is allowed.
_BOUNDS = {
    "total_rate": ("(", 0, None),
    "target_ratio": ("[", 0, 1),
    "stp": ("[", 0, 1),
    "transmit_time": ("[", 0, None),
    "block_size": ("[", 1, None),
    "timeout": ("(", 0, None),
    "n_endorsers": ("[", 1, None),
    "n_kafka": ("[", 4, None),  # the minimum Kafka cluster
    "n_channels": ("[", 1, None),
    "ordering_base": ("[", 0, None),
    "ordering_per_kafka": ("[", 0, None),
    "validate_block_overhead": ("[", 0, None),
    "validate_per_tx": ("[", 0, None),
    "vscc_fail_prob": ("[", 0, 1),
    "warmup": ("[", 0, None),
    "replications": ("[", 1, None),
    "target_aoi": ("[", 0, None),
}

# The allowed values of each Literal-typed key.
_CHOICES = {
    field.name: get_args(field.type)
    for field in dataclasses.fields(SimConfig)
    if get_origin(field.type) is Literal
}


def _parse_choice(allowed):
    def convert(raw):
        value = raw.strip().lower()
        if value not in allowed:
            raise ConfigError(f"expected one of {sorted(allowed)}, got {raw!r}")
        return value
    return convert


def _parse_float(raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"must be finite, got {raw!r}")
    return value


def _parse_int(raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"not an integer: {raw!r}") from None


def _parser(field):
    """The value parser of a key, from its field type."""
    if field.name in _CHOICES:
        return _parse_choice(_CHOICES[field.name])
    return {float: _parse_float, float | None: _parse_float, int: _parse_int,
            Delay: Delay.parse}[field.type]


_PARSERS = {field.name: _parser(field) for field in dataclasses.fields(SimConfig)}

# Keys a sweep may vary, with the value parser used on CLI sweep lists.
SWEEPABLE = {k: p for k, p in _PARSERS.items() if k != "generation_mode"}


def parse_config(text):
    """Parse the key = value config format into a validated SimConfig."""
    overrides = {}
    first_line = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw_value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: duplicate key '{key}' (first set on line {first_line[key]})"
            )
        first_line[key] = lineno
        try:
            overrides[key] = _PARSERS[key](raw_value.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: key '{key}': {exc}") from None
    return SimConfig(**overrides)


def paper_default():
    """The calibrated default preset all scenarios start from."""
    return SimConfig()
