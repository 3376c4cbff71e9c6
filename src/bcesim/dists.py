"""Delay distributions used for service and latency parameters.

Only two families appear in the model vocabulary: a fixed value and an
exponential with a given mean.  Config syntax: ``fixed:<v>`` / ``exp:<mean>``.
"""

import math
from dataclasses import dataclass

from .core import ConfigError, number_text


@dataclass(frozen=True)
class Delay:
    kind: str  # "fixed" | "exp"
    value: float  # the value itself, or the mean for "exp"

    def sample(self, rng):
        if self.kind == "fixed":
            return self.value
        return rng.expovariate(1.0 / self.value)

    def sample_max(self, rng, n):
        """One draw of the maximum of n independent copies.

        For the exponential family this inverts the max-of-n CDF
        (1 - e^(-x/mean))^n on a single uniform, so for a fixed uniform the
        draw is nondecreasing in n.  That couples runs that differ only in n
        (e.g. endorser counts) pathwise, which keeps comparisons monotone.
        """
        if self.kind == "fixed":
            return self.value
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return -self.value * math.log(-math.expm1(math.log(u) / n))

    @classmethod
    def parse(cls, text):
        kind, sep, raw = text.partition(":")
        if not sep or kind not in ("fixed", "exp"):
            raise ConfigError(f"expected 'fixed:<v>' or 'exp:<mean>', got {text!r}")
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"bad numeric value in distribution {text!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"distribution value must be finite, got {text!r}")
        if kind == "fixed" and value < 0:
            raise ConfigError(f"fixed delay must be >= 0, got {value}")
        if kind == "exp" and value <= 0:
            raise ConfigError(f"exponential mean must be > 0, got {value}")
        return cls(kind, value)

    def __str__(self):
        return f"{self.kind}:{number_text(self.value)}"
