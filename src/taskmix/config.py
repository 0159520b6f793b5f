"""Settings of the training loops.

These are the ``[meta_train]`` and ``[adapt]`` sections of a run config, key
for key, so the command line reads them without a copy. The module imports no
numpy: the CLI loads it before it sets the BLAS thread variables.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MetaTrainConfig", "AdaptConfig", "ADAPT_LR_GRID"]

# three log-spaced points spanning the adaptation learning-rate range
ADAPT_LR_GRID = (1e-6, 3.1622776601683795e-06, 1e-5)


@dataclass(frozen=True)
class MetaTrainConfig:
    epochs: int = 1
    batch_size: int = 256
    lr: float = 1e-4
    seed: int = 0
    patience: int = 0       # early-stop rounds without val improvement; 0 = off
    clip_norm: float = 0.0  # global gradient-norm ceiling; 0 = off


@dataclass(frozen=True)
class AdaptConfig:
    epochs: int = 30
    batch_size: int = 256
    lrs: tuple = ADAPT_LR_GRID
    seed: int = 0
