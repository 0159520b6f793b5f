"""Settings of the training loops.

These are the ``[meta_train]`` and ``[adapt]`` sections of a run config, key
for key, so the command line reads them without a copy. The module imports no
numpy: the CLI loads it before it sets the BLAS thread variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["MetaTrainConfig", "AdaptConfig", "ADAPT_LR_GRID"]

# three log-spaced points spanning the adaptation learning-rate range
ADAPT_LR_GRID = (1e-6, 3.1622776601683795e-06, 1e-5)

# the range of each training setting; a learning rate of 0 is a no-op
_COUNT = (">= 1", lambda v: v >= 1)
_RATE = ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
_NON_NEGATIVE = (">= 0", lambda v: v >= 0)
_RANGES = {"epochs": _COUNT, "batch_size": _COUNT, "lr": _RATE, "lrs": _RATE,
           "patience": _NON_NEGATIVE, "clip_norm": _NON_NEGATIVE}


def _check_ranges(config) -> None:
    """ValueError naming the first setting of ``config`` out of its range,
    each entry of a tuple checked."""
    for name, (rule, ok) in _RANGES.items():
        value = getattr(config, name, ())
        for v in value if isinstance(value, tuple) else (value,):
            if not ok(v):
                raise ValueError(f"{name} must be {rule}, got {v!r}")


@dataclass(frozen=True)
class MetaTrainConfig:
    epochs: int = 1
    batch_size: int = 256
    lr: float = 1e-4
    seed: int = 0
    patience: int = 0       # early-stop rounds without val improvement; 0 = off
    clip_norm: float = 0.0  # global gradient-norm ceiling; 0 = off

    def __post_init__(self):
        _check_ranges(self)


@dataclass(frozen=True)
class AdaptConfig:
    epochs: int = 30
    batch_size: int = 256
    lrs: tuple = ADAPT_LR_GRID
    seed: int = 0

    def __post_init__(self):
        if not self.lrs:
            raise ValueError("lrs is empty")
        _check_ranges(self)
