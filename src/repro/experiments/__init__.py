"""End-to-end experiment harnesses at quick and paper scale.

The package re-exports only the study configurations.  The harnesses and
the CLI are imported as submodules (``repro.experiments.runner``,
``repro.experiments.wear_experiment``, ...), so a process that reads a
config -- a farm worker, the service spec -- loads no harness, and
``python -m repro.experiments.runner`` runs the one runner module.
"""

from repro.experiments.config import PAPER, QUICK, ExperimentConfig, by_name

__all__ = [
    "PAPER",
    "QUICK",
    "ExperimentConfig",
    "by_name",
]
