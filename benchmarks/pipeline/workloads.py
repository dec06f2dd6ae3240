"""The four study workloads, their correctness checks and simulated outputs.

Each workload drives the program only through its public entry points
(``run_wear_study``, ``run_fleet_study``, ``ServiceDaemon``) and keeps
three things apart: :meth:`execute` runs and times one repetition,
:meth:`check` lists every correctness check the run fails, and
:meth:`simulated` reduces the run to the statistics and digest that must
be identical across repetitions of one seed.

Sizes are slices of the paper-scale studies, cut so that one repetition
takes a few seconds and a time-boxed run holds several of them; ``smoke``
sizes exist for the end-to-end test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import re
import time
from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis import figures, report, tables
from repro.apps.catalog import Corpus, build_wear_corpus
from repro.android.component import ComponentKind
from repro.experiments.config import PAPER, QUICK, ExperimentConfig
from repro.experiments.wear_experiment import run_wear_study
from repro.fleet import run_fleet_study
from repro.qgj.campaigns import Campaign, campaign_size
from repro.qgj.fuzzer import FuzzConfig
from repro.service.daemon import ServiceDaemon
from repro.service.spec import StudySpec
from repro.service.store import ResultStore
from repro.service.wal import DONE, ServiceWAL

#: The paper's corpus calibration; ``--seed`` never touches it.
CORPUS_SEED = 2018

_FUZZED_KINDS = (ComponentKind.ACTIVITY, ComponentKind.SERVICE)


@dataclasses.dataclass
class Run:
    """One executed repetition: what the benchmark timed and what it got."""

    wall_s: float
    study_latencies_s: List[float]
    intents: int
    pairs: int
    ops: int
    artifacts: Dict[str, Any]


def with_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """*config* with its fuzz seed replaced (the corpus seed stays)."""
    return dataclasses.replace(config, fuzz=dataclasses.replace(config.fuzz, seed=seed))


def planned_intents(
    corpus: Corpus, packages: Sequence[str], fuzz: FuzzConfig, campaigns: Sequence[Campaign]
) -> int:
    """The analytic intent volume of fuzzing *packages*: an upper bound on
    what a run may send (a reboot only ever cuts a campaign short)."""
    cap = fuzz.max_intents_per_component
    total = 0
    for package in packages:
        components = sum(1 for info in corpus.app(package).package.components if info.kind in _FUZZED_KINDS)
        for campaign in campaigns:
            size = campaign_size(campaign, fuzz.stride_for(campaign))
            total += components * (size if cap is None else min(size, cap))
    return total


def digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


class WearWorkload:
    """``run_wear_study`` over a fixed package slice, then the wear report."""

    def __init__(self, name: str, config: ExperimentConfig, packages, smoke_packages) -> None:
        self.name = name
        self.config = config
        self._packages = tuple(packages)
        self._smoke_packages = tuple(smoke_packages)

    def packages(self, smoke: bool) -> Tuple[str, ...]:
        return self._smoke_packages if smoke else self._packages

    def execute(self, seed: int, smoke: bool, tracer, workdir: str) -> Run:
        config = with_seed(self.config, seed)
        packages = list(self.packages(smoke))
        with tracer.root():
            with tracer.span("study", study=self.name):
                start = time.perf_counter()
                result = run_wear_study(config, packages=packages)
                latency = time.perf_counter() - start
            with tracer.region("report"):
                sections = wear_sections(result)
        return Run(
            wall_s=tracer.wall_s,
            study_latencies_s=[latency],
            intents=result.intents_sent,
            pairs=len(packages),
            ops=len(packages) * len(Campaign),
            artifacts={"result": result, "sections": sections, "packages": packages, "config": config},
        )

    def check(self, run: Run) -> List[str]:
        result = run.artifacts["result"]
        packages = run.artifacts["packages"]
        failures = []
        expected = len(packages) * len(Campaign)
        if result.collector.segments_folded != expected:
            failures.append(f"segments folded {result.collector.segments_folded} != planned {expected}")
        volume = planned_intents(result.corpus, packages, run.artifacts["config"].fuzz, tuple(Campaign))
        if result.intents_sent > volume:
            failures.append(f"intents sent {result.intents_sent} > analytic volume {volume}")
        failures.extend(f"report section {key} is empty" for key, text in run.artifacts["sections"].items() if not text.strip())
        return failures

    def simulated(self, run: Run) -> Dict[str, Any]:
        result = run.artifacts["result"]
        header = (
            f"wear study: {result.intents_sent} intents, {result.reboot_count} reboots, "
            f"{result.virtual_hours()!r} virtual hours"
        )
        return {
            "intents": result.intents_sent,
            "crashes": result.summary.total_crashes_seen,
            "reboots": result.reboot_count,
            "virtual_hours": result.virtual_hours(),
            "report_sha256": digest(header, *run.artifacts["sections"].values()),
        }


def wear_sections(result) -> Dict[str, str]:
    """The wear study's report: Tables I-III, Figs 2-4, reboot post-mortems."""
    collector = result.collector
    return {
        "table1": report.render_table1(tables.table1_campaigns(result.summary)),
        "table2": report.render_table2(tables.table2_population(result.corpus.packages())),
        "table3": report.render_table3(tables.table3_behaviors(collector)),
        "fig2": report.render_fig2(figures.fig2_exception_distribution(collector)),
        "fig3a": report.render_fig3a(figures.fig3a_manifestations(collector)),
        "fig3b": report.render_fig3b(
            figures.fig3b_rootcause_by_manifestation(collector),
            figures.fig3b_base_counts(collector),
        ),
        "fig4": report.render_fig4(figures.fig4_crashes_by_app_class(collector)),
        "reboots": report.render_reboot_postmortems(collector),
    }


class FleetWorkload:
    """``run_fleet_study``: population screening, one intent per component."""

    name = "fleet_screen"
    lanes = 16
    campaigns = (Campaign.B,)

    def __init__(self, fleet_size: int, smoke_size: int) -> None:
        self.fleet_size = fleet_size
        self.smoke_size = smoke_size

    def size(self, smoke: bool) -> int:
        return self.smoke_size if smoke else self.fleet_size

    @staticmethod
    def config(seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            name="bench",
            fuzz=FuzzConfig(stride=8, max_intents_per_component=1, seed=seed),
            ui_events=0,
        )

    def execute(self, seed: int, smoke: bool, tracer, workdir: str) -> Run:
        size = self.size(smoke)
        config = self.config(seed)
        with tracer.root():
            with tracer.span("study", study=self.name):
                start = time.perf_counter()
                result = run_fleet_study(size, config=config, lanes=self.lanes, campaigns=self.campaigns)
                latency = time.perf_counter() - start
            with tracer.region("report"):
                rendered = result.render_report()
        return Run(
            wall_s=tracer.wall_s,
            study_latencies_s=[latency],
            intents=result.intents_sent,
            pairs=len(result.summaries),
            ops=size,
            artifacts={"result": result, "report": rendered, "size": size, "config": config},
        )

    def check(self, run: Run) -> List[str]:
        summaries = run.artifacts["result"].summaries
        size = run.artifacts["size"]
        failures = []
        if len(summaries) != size:
            failures.append(f"pairs {len(summaries)} != planned {size}")
        if len({summary.pair_id for summary in summaries}) != len(summaries):
            failures.append("pair ids are not distinct")
        corpus = build_wear_corpus(seed=CORPUS_SEED)
        fuzz = run.artifacts["config"].fuzz
        for summary in summaries:
            volume = planned_intents(corpus, summary.packages, fuzz, self.campaigns)
            if summary.sent > volume:
                failures.append(f"pair {summary.pair_id} sent {summary.sent} > analytic volume {volume}")
                break
        if not run.artifacts["report"].strip():
            failures.append("population report is empty")
        return failures

    def simulated(self, run: Run) -> Dict[str, Any]:
        result = run.artifacts["result"]
        records = [json.dumps(summary.to_record(), sort_keys=True) for summary in result.summaries]
        return {
            "intents": result.intents_sent,
            "crashes": result.crash_count,
            "reboots": sum(summary.reboots for summary in result.summaries),
            "virtual_hours": result.virtual_hours(),
            "report_sha256": digest(run.artifacts["report"], *records),
        }


_REPORT_TAIL = re.compile(r"^(\d+) intents, (\d+) reboots, ([\d.]+) virtual hours$", re.M)


class ServiceWorkload:
    """A closed-loop client pushing single-package quick studies through
    the service plane, one daemon incarnation per study, as
    ``serve --until-idle`` runs it."""

    name = "service_closed"

    def __init__(self, packages: Sequence[str], smoke_packages: Sequence[str]) -> None:
        self._packages = tuple(packages)
        self._smoke_packages = tuple(smoke_packages)

    def packages(self, smoke: bool) -> Tuple[str, ...]:
        return self._smoke_packages if smoke else self._packages

    def execute(self, seed: int, smoke: bool, tracer, workdir: str) -> Run:
        # StudySpec carries no fuzz seed; the seed shuffles submission order.
        packages = list(self.packages(smoke))
        random.Random(seed).shuffle(packages)
        root = os.path.join(workdir, "service-root")
        codes, latencies = [], []
        with tracer.root():
            for package in packages:
                spec = StudySpec(kind="wear", config="quick", packages=(package,))
                with tracer.span("study", study=package):
                    start = time.perf_counter()
                    daemon = ServiceDaemon(root)
                    daemon.start()
                    daemon.submit(spec)
                    codes.append(daemon.serve_forever(until_idle=True))
                    latencies.append(time.perf_counter() - start)
        studies = self._read_back(root)
        return Run(
            wall_s=tracer.wall_s,
            study_latencies_s=latencies,
            intents=sum(study["intents"] for study in studies.values()),
            pairs=len(packages),
            ops=len(packages),
            artifacts={"codes": codes, "studies": studies, "packages": packages},
        )

    @staticmethod
    def _read_back(root: str) -> Dict[str, Dict[str, Any]]:
        """Every study as the WAL and the store record it, keyed by package."""
        jobs, _ = ServiceWAL(os.path.join(root, "wal.jsonl")).replay()
        store = ResultStore(os.path.join(root, "store"), writer=False)
        studies = {}
        for fingerprint, job in jobs.items():
            (package,) = job.spec_wire["packages"]
            stored = store.get(fingerprint)
            text = stored.report_text() if stored is not None else ""
            tail = _REPORT_TAIL.search(text)
            studies[package] = {
                "state": job.state,
                "wal_digest": job.digest,
                "store_digest": stored.digest if stored is not None else "",
                "report": text,
                "intents": int(tail.group(1)) if tail else 0,
                "reboots": int(tail.group(2)) if tail else 0,
                "virtual_hours": float(tail.group(3)) if tail else 0.0,
                "crashes": sum(segment.counts.get("crashes", 0) for segment in store.segments(app=package)),
            }
        return studies

    def check(self, run: Run) -> List[str]:
        studies = run.artifacts["studies"]
        failures = [f"serve --until-idle exited {code}" for code in run.artifacts["codes"] if code != 0]
        if sorted(studies) != sorted(run.artifacts["packages"]):
            failures.append(f"{len(studies)} studies in the WAL, {len(run.artifacts['packages'])} submitted")
        corpus = build_wear_corpus(seed=CORPUS_SEED)
        for package, study in sorted(studies.items()):
            if study["state"] != DONE:
                failures.append(f"{package}: study {study['state']}, not done")
            if not study["report"].strip():
                failures.append(f"{package}: stored report is empty")
            if not study["wal_digest"] or study["wal_digest"] != ResultStore.digest_of(study["report"]):
                failures.append(f"{package}: stored report digest differs from its WAL complete record")
            if study["store_digest"] != study["wal_digest"]:
                failures.append(f"{package}: store index digest differs from its WAL complete record")
            volume = planned_intents(corpus, [package], QUICK.fuzz, tuple(Campaign))
            if study["intents"] > volume:
                failures.append(f"{package}: intents sent {study['intents']} > analytic volume {volume}")
        return failures

    def simulated(self, run: Run) -> Dict[str, Any]:
        studies = run.artifacts["studies"]
        ordered = sorted(studies)
        return {
            "intents": sum(studies[p]["intents"] for p in ordered),
            "crashes": sum(studies[p]["crashes"] for p in ordered),
            "reboots": sum(studies[p]["reboots"] for p in ordered),
            "virtual_hours": sum(studies[p]["virtual_hours"] for p in ordered),
            "report_sha256": digest(*(f"{p}\n{studies[p]['report']}" for p in ordered)),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        WearWorkload(
            "wear_quick",
            QUICK,
            packages=(
                "com.pulsetrack.wear",
                "com.google.android.wearable.watchface",
                "com.cardiowatch.wear",
                "com.chatterbox.wear",
                "com.surfview.wear",
            ),
            smoke_packages=("com.pulsetrack.wear", "com.cardiowatch.wear"),
        ),
        WearWorkload(
            "wear_paper_slice",
            PAPER,
            packages=("com.pulsetrack.wear", "com.sleepwell.wear"),
            smoke_packages=("com.pulsetrack.wear",),
        ),
        FleetWorkload(fleet_size=1024, smoke_size=64),
        ServiceWorkload(
            # The smallest third-party packages by planned quick volume.
            packages=(
                "com.chatterbox.wear",
                "com.blockdrop.wear",
                "com.fotobox.wear",
                "com.cardiowatch.wear",
                "com.tictoc.wear",
                "com.airwave.wear",
                "com.checklist.wear",
                "com.notely.wear",
            ),
            smoke_packages=("com.chatterbox.wear", "com.blockdrop.wear", "com.fotobox.wear"),
        ),
    )
}
