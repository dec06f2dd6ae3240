"""End-to-end experiment harnesses at quick and paper scale."""

from repro.experiments.ablations import (
    AblationRow,
    ablate_aging_threshold,
    ablate_pacing,
    ablate_vendor_layer,
    ablate_stride,
    ablate_wedge_deliveries,
    render_rows,
)
from repro.experiments.config import PAPER, QUICK, ExperimentConfig, by_name
from repro.experiments.phone_experiment import run_phone_study
from repro.experiments.runner import full_report, phone_study, ui_study, wear_study
from repro.experiments.ui_experiment import UiStudyResult, run_ui_study
from repro.experiments.wear_experiment import StudyResult, run_wear_study

__all__ = [
    "AblationRow",
    "PAPER",
    "ablate_aging_threshold",
    "ablate_pacing",
    "ablate_vendor_layer",
    "ablate_stride",
    "ablate_wedge_deliveries",
    "render_rows",
    "QUICK",
    "ExperimentConfig",
    "StudyResult",
    "UiStudyResult",
    "by_name",
    "full_report",
    "phone_study",
    "run_phone_study",
    "run_ui_study",
    "run_wear_study",
    "ui_study",
    "wear_study",
]
