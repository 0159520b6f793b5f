"""Multi-task meta-learning over aligned concept vocabularies.

Tasks are aligned into one shared concept space, leakage concepts are masked
per task, and a task-gated mixture of experts is trained jointly over mixed
batches; single supervised datasets get a swarm of auxiliary
feature-prediction tasks plus low-lr online adaptation.

Submodules import lazily so the CLI can configure threading before numpy
loads; ``from taskmix import model`` etc. works as usual.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("numeric", "concepts", "config", "data", "model", "train",
               "metrics", "synth", "cli")


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
