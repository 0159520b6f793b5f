"""Multi-task meta-learning over aligned concept vocabularies.

Tasks are aligned into one shared concept space, leakage concepts are masked
per task, and a task-gated mixture of experts is trained jointly over mixed
batches; single supervised datasets get a swarm of auxiliary
feature-prediction tasks plus low-lr online adaptation.
"""

__version__ = "0.1.0"
