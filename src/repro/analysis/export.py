"""Machine-readable export of a full study's results.

The ASCII report (:mod:`repro.analysis.report`) is for humans; downstream
consumers -- plotting scripts, regression dashboards, meta-analyses over
multiple seeds -- want structured data.  :func:`export_results` flattens
every reproduced table and figure into one JSON-serialisable dict with a
stable schema, and :func:`dump_json` writes it.

Schema stability is part of the public API: keys are only added, never
renamed, and `schema_version` is bumped on additions.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.analysis import figures, tables

SCHEMA_VERSION = 1


def export_results(wear, phone, ui) -> Dict[str, object]:
    """Flatten three study results into one JSON-safe dict.

    Parameters are the result objects from
    :mod:`repro.experiments.wear_experiment`, ``phone_experiment`` and
    ``ui_experiment`` (or the cached runners).
    """
    table1 = [
        {
            "campaign": row["campaign"].value,
            "title": row["title"],
            "intents_per_component": row["intents_per_component"],
            "intents_sent": row.get("intents_sent", 0),
        }
        for row in tables.table1_campaigns(wear.summary)
    ]
    table3 = tables.table3_behaviors(wear.collector)
    fig2 = figures.fig2_exception_distribution(wear.collector)
    fig3a = figures.fig3a_manifestations(wear.collector)
    fig3b = figures.fig3b_rootcause_by_manifestation(wear.collector)
    fig4 = figures.fig4_crashes_by_app_class(wear.collector)

    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "name": wear.config.name,
            "ui_events": ui.config.ui_events,
            "corpus_seed": wear.config.corpus_seed,
        },
        "totals": {
            "wear_intents": wear.intents_sent,
            "phone_intents": phone.intents_sent,
            "wear_reboots": wear.reboot_count,
            "virtual_hours": wear.virtual_hours(),
        },
        "table1_campaigns": table1,
        "table2_population": tables.table2_population(wear.corpus.packages()),
        "table3_behaviors": table3,
        "table4_phone_crashes": tables.table4_phone_crashes(phone.collector),
        "table5_ui": tables.table5_ui(ui.results),
        "fig2_exceptions": fig2,
        "fig3a_manifestations": fig3a,
        "fig3b_rootcause": fig3b,
        "fig4_app_class": fig4,
        "reboot_postmortems": [
            {
                "time_ms": pm.time_ms,
                "reason": pm.reason,
                "package": pm.package,
                "campaign": pm.campaign,
                "culprit_classes": pm.culprit_classes,
                "involved_components": pm.involved_components,
                "native_signal": pm.native_signal,
            }
            for pm in wear.collector.reboots
        ],
    }


def dump_json(results: Dict[str, object], path: Optional[str] = None, indent: int = 2) -> str:
    """Serialise *results*; writes to *path* when given, returns the text."""
    text = json.dumps(results, indent=indent, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def assert_json_safe(results: Dict[str, object]) -> None:
    """Round-trip check used by tests and the CLI before writing."""
    round_tripped = json.loads(json.dumps(results))
    if round_tripped.get("schema_version") != results.get("schema_version"):
        raise ValueError("export is not JSON-stable")
