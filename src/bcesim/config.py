"""Experiment configuration: one `key = value` per line, `#` comments.

Missing keys take the `paper-default` calibration preset; unknown keys and
out-of-range values are rejected with a diagnostic naming the line and key.
Delay-valued keys use `fixed:<v>` or `exp:<mean>`.  Non-finite numbers and
repeated keys are rejected too.
"""

import dataclasses
import math
from dataclasses import dataclass

from .core import ConfigError
from .dists import Delay
from .pipeline import BlockchainParams, ServiceTimes, ordering_delay
from .workload import SourceConfig


# Fields that only change what is measured on a sample path, never the path
# itself: one simulation serves every value of them.
MEASUREMENT_FIELDS = frozenset({"target_aoi", "warmup"})


@dataclass
class SimConfig:
    # workload / channel
    total_rate: float = 10.0
    generation_mode: str = "periodic"
    target_ratio: float = 0.3
    discipline: str = "fcfs"
    stp: float = 1.0
    comm_latency: Delay = Delay("fixed", 0.0)
    transmit_time: float = 0.0
    # blockchain parameters
    block_size: int = 10
    timeout: float = 2.0
    n_endorsers: int = 1
    n_kafka: int = 4
    n_channels: int = 1
    # calibrated service times (tuned once so the qualitative shapes hold;
    # absolute values are calibration, not measurement)
    endorse_time: Delay = Delay("exp", 0.02)
    ordering_base: float = 0.05
    ordering_per_kafka: float = 0.06
    validate_block_overhead: float = 0.125
    validate_per_tx: float = 0.04
    vscc_fail_prob: float = 0.0
    # run control
    horizon: float = 2000.0
    warmup: float = 100.0
    master_seed: int = 12345
    replications: int = 30
    target_aoi: float | None = None

    def validate(self):
        def fail(key, msg):
            raise ConfigError(f"config key '{key}': {msg}")

        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            number = value.value if isinstance(value, Delay) else value
            if isinstance(number, float) and not math.isfinite(number):
                fail(field.name, f"must be finite, got {value}")
        if not self.total_rate > 0:
            fail("total_rate", f"must be > 0, got {self.total_rate}")
        if self.generation_mode not in ("periodic", "exponential"):
            fail("generation_mode", f"unknown mode {self.generation_mode!r}")
        if not 0.0 <= self.target_ratio <= 1.0:
            fail("target_ratio", f"must be in [0, 1], got {self.target_ratio}")
        if self.discipline not in ("fcfs", "lcfs"):
            fail("discipline", f"unknown discipline {self.discipline!r}")
        if not 0.0 <= self.stp <= 1.0:
            fail("stp", f"must be in [0, 1], got {self.stp}")
        if self.transmit_time < 0:
            fail("transmit_time", f"must be >= 0, got {self.transmit_time}")
        if self.block_size < 1:
            fail("block_size", f"must be >= 1, got {self.block_size}")
        if not self.timeout > 0:
            fail("timeout", f"must be > 0, got {self.timeout}")
        if self.n_endorsers < 1:
            fail("n_endorsers", f"must be >= 1, got {self.n_endorsers}")
        if self.n_kafka < 4:
            fail("n_kafka", f"must be >= 4 (the minimum cluster), got {self.n_kafka}")
        if self.n_channels < 1:
            fail("n_channels", f"must be >= 1, got {self.n_channels}")
        for key in ("ordering_base", "ordering_per_kafka", "validate_block_overhead",
                    "validate_per_tx"):
            if getattr(self, key) < 0:
                fail(key, f"must be >= 0, got {getattr(self, key)}")
        if not 0.0 <= self.vscc_fail_prob <= 1.0:
            fail("vscc_fail_prob", f"must be in [0, 1], got {self.vscc_fail_prob}")
        if (self.transmit_time == 0 and self.comm_latency.value == 0
                and self.endorse_time.value == 0
                and ordering_delay(self.chain(), self.services()) == 0
                and self.validate_block_overhead == 0 and self.validate_per_tx == 0):
            raise ConfigError(
                "config keys 'transmit_time', 'comm_latency', 'endorse_time', "
                "'ordering_base'/'ordering_per_kafka', 'validate_block_overhead' and "
                "'validate_per_tx' give a zero-latency pipeline: a proposal would "
                "commit at its own generation instant; make at least one delay > 0"
            )
        if not self.warmup >= 0:
            fail("warmup", f"must be >= 0, got {self.warmup}")
        if not self.horizon > self.warmup:
            fail("horizon", f"must exceed warmup {self.warmup}, got {self.horizon}")
        if self.replications < 1:
            fail("replications", f"must be >= 1, got {self.replications}")
        if self.target_aoi is not None and self.target_aoi < 0:
            fail("target_aoi", f"must be >= 0, got {self.target_aoi}")
        return self

    def source(self):
        return SourceConfig(
            total_rate=self.total_rate,
            generation_mode=self.generation_mode,
            target_ratio=self.target_ratio,
            discipline=self.discipline,
            stp=self.stp,
            comm_latency=self.comm_latency,
            transmit_time=self.transmit_time,
        )

    def chain(self):
        return BlockchainParams(
            block_size=self.block_size,
            timeout=self.timeout,
            n_endorsers=self.n_endorsers,
            n_kafka=self.n_kafka,
            n_channels=self.n_channels,
        )

    def services(self):
        return ServiceTimes(
            endorse_per_peer=self.endorse_time,
            ordering_base=self.ordering_base,
            ordering_per_kafka=self.ordering_per_kafka,
            validate_block_overhead=self.validate_block_overhead,
            validate_per_tx=self.validate_per_tx,
        )

    def replace(self, **overrides):
        cfg = dataclasses.replace(self, **overrides)
        return cfg.validate()


def _parse_str(allowed):
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


_PARSERS = {
    "total_rate": _parse_float,
    "generation_mode": _parse_str({"periodic", "exponential"}),
    "target_ratio": _parse_float,
    "discipline": _parse_str({"fcfs", "lcfs"}),
    "stp": _parse_float,
    "comm_latency": Delay.parse,
    "transmit_time": _parse_float,
    "block_size": _parse_int,
    "timeout": _parse_float,
    "n_endorsers": _parse_int,
    "n_kafka": _parse_int,
    "n_channels": _parse_int,
    "endorse_time": Delay.parse,
    "ordering_base": _parse_float,
    "ordering_per_kafka": _parse_float,
    "validate_block_overhead": _parse_float,
    "validate_per_tx": _parse_float,
    "vscc_fail_prob": _parse_float,
    "horizon": _parse_float,
    "warmup": _parse_float,
    "master_seed": _parse_int,
    "replications": _parse_int,
    "target_aoi": _parse_float,
}

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
    cfg = SimConfig(**overrides)
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{exc}") from None
    return cfg


def paper_default():
    """The calibrated default preset all scenarios start from."""
    return SimConfig().validate()
