"""Cached study runners and the full-report entry point.

The benchmark suite regenerates every table and figure; running the whole
fuzzing study once per benchmark file would multiply a minutes-long
simulation nine-fold, so the three studies are memoised per configuration
here.  ``python -m repro.experiments.runner [quick|paper]`` prints the
complete reproduced report.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from repro import faults, telemetry
from repro.analysis import figures, report, tables
from repro.experiments.config import ExperimentConfig, by_name
from repro.experiments.phone_experiment import run_phone_study
from repro.experiments.ui_experiment import UiStudyResult, run_ui_study
from repro.experiments.wear_experiment import StudyResult, run_wear_study

from repro.apps.profiles import DEFAULT_COHORT_SPEC, parse_cohort_spec
from repro.farm.health import ShardPoisonedError, StudyInterrupted
from repro.farm.pool import resolve_workers
from repro.faults.errors import CampaignKilled
from repro.faults.plan import BASE_WEAR_API, FaultPlan


def _study_cache(fn):
    """Memoise a study per *effective* configuration.

    The cache key includes the installed fault plan's fingerprint, so a
    result computed under one plan (or none) is never served to a run under
    another.  Any extra keyword arguments (journal/resume/kill/workers
    knobs) make the run stateful and bypass the cache entirely.
    """
    cache = {}

    @functools.wraps(fn)
    def wrapper(config_name: str = "quick", **kwargs):
        config = by_name(config_name)  # validate before touching the cache
        if kwargs:
            return fn(config, **kwargs)
        key = (config_name, faults.fingerprint())
        if key not in cache:
            cache[key] = fn(config)
        return cache[key]

    wrapper.cache_clear = cache.clear
    return wrapper


@_study_cache
def wear_study(config: ExperimentConfig, **kwargs) -> StudyResult:
    return run_wear_study(config, **kwargs)


@_study_cache
def phone_study(config: ExperimentConfig, **kwargs) -> StudyResult:
    return run_phone_study(config, **kwargs)


@_study_cache
def ui_study(config: ExperimentConfig) -> UiStudyResult:
    return run_ui_study(config)


def full_report(
    config_name: str = "quick", workers: int = 1, healths=None, **study_kwargs
) -> str:
    """Every table and figure of the paper, regenerated, as one report.

    The report is byte-identical at every *workers* count: the farm merges
    shard outputs back into the exact artifacts the serial run produces.
    Extra keyword arguments (supervision knobs) pass through to the wear and
    phone studies; *healths*, when given, is a list the studies' farm health
    reports are appended to so the CLI can surface retries and poisoned
    shards on stderr.
    """
    if workers != 1:
        study_kwargs["workers"] = workers
    wear = wear_study(config_name, **study_kwargs)
    phone = phone_study(config_name, **study_kwargs)
    ui = ui_study(config_name)
    if healths is not None:
        healths.extend(h for h in (wear.health, phone.health) if h is not None)

    sections = [
        f"== Reproduced results ({config_name} scale) ==",
        f"wear study: {wear.intents_sent} intents, "
        f"{wear.reboot_count} reboots, {wear.virtual_hours():.1f} virtual hours",
        f"phone study: {phone.intents_sent} intents",
        "",
        report.render_table1(tables.table1_campaigns(wear.summary)),
        "",
        report.render_table2(tables.table2_population(wear.corpus.packages())),
        "",
        report.render_table3(tables.table3_behaviors(wear.collector)),
        "",
        report.render_table4(tables.table4_phone_crashes(phone.collector)),
        "",
        report.render_table5(tables.table5_ui(ui.results)),
        "",
        report.render_fig2(figures.fig2_exception_distribution(wear.collector)),
        "",
        report.render_fig3a(figures.fig3a_manifestations(wear.collector)),
        "",
        report.render_fig3b(
            figures.fig3b_rootcause_by_manifestation(wear.collector),
            figures.fig3b_base_counts(wear.collector),
        ),
        "",
        report.render_fig4(figures.fig4_crashes_by_app_class(wear.collector)),
        "",
        report.render_reboot_postmortems(wear.collector),
    ]
    return "\n".join(sections)


def export_json(
    config_name: str = "quick",
    path: Optional[str] = None,
    workers: int = 1,
    healths=None,
    **study_kwargs,
) -> str:
    """The full study as machine-readable JSON (see analysis.export)."""
    from repro.analysis.export import assert_json_safe, dump_json, export_results

    if workers != 1:
        study_kwargs["workers"] = workers
    wear = wear_study(config_name, **study_kwargs)
    phone = phone_study(config_name, **study_kwargs)
    if healths is not None:
        healths.extend(h for h in (wear.health, phone.health) if h is not None)
    results = export_results(wear, phone, ui_study(config_name))
    assert_json_safe(results)
    return dump_json(results, path=path)


USAGE = """\
usage: python -m repro [quick|paper] [--json FILE] [--telemetry DIR]
                       [--telemetry-sample N] [--profile]
                       [--workers N|auto] [--fault-seed N]
                       [--service-fault-seed N] [--compat-skew N]
                       [--fleet N] [--cohorts SPEC] [--lanes M]
                       [--journal FILE | --resume FILE] [--kill-after N]
                       [--shard-timeout S] [--max-shard-attempts N]
                       [--allow-partial]
                       [--guided] [--corpus-dir DIR] [--scheduler NAME]
                       [--guided-budget N]

Runs the three reproduced studies (wear, phone, QGJ-UI) and prints every
table and figure of the paper's evaluation.

options:
  quick|paper      experiment scale (default: quick)
  --json FILE      write the machine-readable study export instead
  --telemetry DIR  enable campaign telemetry and export metrics.prom,
                   trace.jsonl and summary.txt under DIR
  --telemetry-sample N
                   retain 1-in-N spans per span name (deterministic, seeded;
                   default 1 = keep everything; requires --telemetry)
  --profile        arm the telemetry self-profiler: adds a SELF-PROFILE
                   section to summary.txt and writes a flamegraph-ready
                   profile.collapsed under DIR (requires --telemetry)
  --workers N|auto shard the studies across N supervised worker processes
                   (default: 1; the merged report is identical at any N,
                   even across worker crashes and retries); auto resolves
                   to the core count, clamped to the units of work and to
                   1 on a single-core host (with a one-line note)
  --fault-seed N   arm the chaos plane: inject seeded environment faults
                   (adb drops, binder failures, lmkd kills, log truncation,
                   service outages, corrupted replies, system_server
                   restarts)
  --service-fault-seed N
                   arm (only) the OS-service fault streams -- service
                   unavailability windows, corrupted service replies,
                   system_server restarts; composes with --fault-seed
  --compat-skew N  pin the device pair's API levels N apart (phone behind
                   the wearable): version-gated calls fail with
                   NoSuchMethodError-style compat mismatches and data-sync
                   replication degrades; 0 is a matched pair (no effect)
  --fleet N        run the fleet study instead of the full report: N
                   heterogeneous watch+phone pairs multiplexed through the
                   cooperative virtual-clock kernel; prints the per-cohort
                   population report (byte-identical at any --lanes x
                   --workers packing).  Composes with the chaos flags,
                   --guided, --journal/--resume/--kill-after, --telemetry
  --cohorts SPEC   cohort cycle for --fleet, e.g. "flagship,budget:2,aging"
                   (name[:weight], comma-separated; default
                   "flagship,budget,legacy,aging"; requires --fleet)
  --lanes M        cooperative schedulers per fleet, each multiplexing its
                   strided share of the pairs (default: 1; requires
                   --fleet; output is packing-invariant)
  --journal FILE   checkpoint the wear study to FILE: each shard's journal
                   holds a header and, once the shard finishes, its
                   result; prints the study summary
  --resume FILE    resume a journalled wear study: load the finished
                   shards and re-run the rest; reproduces the summary the
                   uninterrupted run would have produced
  --kill-after N   simulate the host dying after N injections study-wide
                   (exit 3, resumable from the journal; at --workers N > 1
                   the counter is shared across all workers)
  --shard-timeout S
                   per-shard wall-clock deadline in seconds at --workers
                   N > 1; a worker past it is killed and its shard retried
  --max-shard-attempts N
                   attempts per shard before it is quarantined as poison
                   (default: 2)
  --allow-partial  complete the study even if shards fail every attempt,
                   printing a DEGRADED health report and exiting 4 instead
                   of aborting
  --guided         run the feedback-guided wear study instead of the blind
                   report: a bandit scheduler shifts the intent budget
                   toward (package, campaign) arms still yielding novel
                   behaviours; prints the guided report (byte-identical at
                   any --workers count).  Composes with the chaos flags
                   (--fault-seed / --service-fault-seed / --compat-skew);
                   stays incompatible with --journal/--resume (guided
                   rounds re-shard dynamically, so shard journals have
                   no stable identity to resume), with --kill-after (it
                   rides the journal), with --json (the guided report
                   has its own format), and with --allow-partial (a round
                   cannot attribute a poisoned package's blocks);
                   --shard-timeout and --max-shard-attempts apply
  --corpus-dir DIR write corpus.jsonl and schedule.jsonl under DIR
                   (requires --guided)
  --scheduler NAME bandit policy: ucb (default) or thompson
                   (requires --guided)
  --guided-budget N
                   total intent budget for the guided study (default: what
                   the blind wear study would spend; requires --guided)
  -h, --help       show this message

service mode:
  python -m repro serve|submit|status ...
                   the fuzzing-as-a-service surface: a durable study queue
                   plus a recoverable daemon over one ROOT directory (run
                   `python -m repro serve --help` for its options)

exit codes:
  0    complete report, every shard clean (retries allowed)
  2    usage error
  3    campaign killed by --kill-after (resumable via --resume)
  4    degraded: shards quarantined as poison (coverage dropped)
  5    service submission rejected by admission control (queue full)
  6    service submit --wait: study quarantined as poison; no report
  7    service submit --wait: no live daemon to complete the study
  130  interrupted (SIGINT/SIGTERM drain; resumable via --resume --
       or the service daemon drained: leased study checkpointed and
       released, the WAL still holds the queue)\
"""


class _UsageError(Exception):
    """Raised by the parser in place of SystemExit so main() can return 2."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="python -m repro", add_help=False)
    parser.add_argument("config", nargs="?", default="quick")
    parser.add_argument("--json", dest="json_path", metavar="FILE")
    parser.add_argument("--telemetry", dest="telemetry_dir", metavar="DIR")
    parser.add_argument(
        "--telemetry-sample", dest="telemetry_sample", type=int, default=1, metavar="N"
    )
    parser.add_argument("--profile", dest="profile", action="store_true")
    parser.add_argument("--workers", default="1", metavar="N")
    parser.add_argument("--fleet", dest="fleet", type=int, metavar="N")
    parser.add_argument("--cohorts", dest="cohorts", metavar="SPEC")
    parser.add_argument("--lanes", dest="lanes", type=int, metavar="M")
    parser.add_argument("--fault-seed", dest="fault_seed", type=int, metavar="N")
    parser.add_argument(
        "--service-fault-seed", dest="service_fault_seed", type=int, metavar="N"
    )
    parser.add_argument("--compat-skew", dest="compat_skew", type=int, metavar="N")
    checkpoint = parser.add_mutually_exclusive_group()
    checkpoint.add_argument("--journal", dest="journal_path", metavar="FILE")
    checkpoint.add_argument("--resume", dest="resume_path", metavar="FILE")
    parser.add_argument("--kill-after", dest="kill_after", type=int, metavar="N")
    parser.add_argument(
        "--shard-timeout", dest="shard_timeout", type=float, metavar="S"
    )
    parser.add_argument(
        "--max-shard-attempts", dest="max_shard_attempts", type=int, metavar="N"
    )
    parser.add_argument("--allow-partial", dest="allow_partial", action="store_true")
    parser.add_argument("--guided", dest="guided", action="store_true")
    parser.add_argument("--corpus-dir", dest="corpus_dir", metavar="DIR")
    parser.add_argument("--scheduler", dest="scheduler", metavar="NAME")
    parser.add_argument(
        "--guided-budget", dest="guided_budget", type=int, metavar="N"
    )
    return parser


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] in ("serve", "submit", "status"):
        # The service surface rides the same entry point; see
        # repro.service.cli for its usage and exit codes.
        from repro.service.cli import main as service_main

        return service_main(args)
    if "-h" in args or "--help" in args:
        print(USAGE)
        return 0
    try:
        opts = _build_parser().parse_args(args)
    except _UsageError as exc:
        print(f"{exc}\n{USAGE}", file=sys.stderr)
        return 2
    config_name = opts.config
    try:
        by_name(config_name)  # validate early
    except ValueError as exc:
        print(f"{exc}\n{USAGE}", file=sys.stderr)
        return 2
    if opts.workers != "auto":
        try:
            workers_given = int(opts.workers)
        except ValueError:
            print(
                f"--workers must be an integer or 'auto', got {opts.workers!r}"
                f"\n{USAGE}",
                file=sys.stderr,
            )
            return 2
        if workers_given < 1:
            print(
                f"--workers must be >= 1, got {opts.workers}\n{USAGE}", file=sys.stderr
            )
            return 2
    if opts.fleet is None:
        for flag, value in (("--cohorts", opts.cohorts), ("--lanes", opts.lanes)):
            if value is not None:
                print(f"{flag} requires --fleet\n{USAGE}", file=sys.stderr)
                return 2
    else:
        if opts.fleet < 1:
            print(f"--fleet must be >= 1, got {opts.fleet}\n{USAGE}", file=sys.stderr)
            return 2
        if opts.lanes is not None and opts.lanes < 1:
            print(f"--lanes must be >= 1, got {opts.lanes}\n{USAGE}", file=sys.stderr)
            return 2
        if opts.cohorts is not None:
            try:
                parse_cohort_spec(opts.cohorts)
            except ValueError as exc:
                print(f"--cohorts: {exc}\n{USAGE}", file=sys.stderr)
                return 2
        if opts.json_path is not None:
            print(
                f"--fleet cannot combine with --json (the fleet report has "
                f"its own format)\n{USAGE}",
                file=sys.stderr,
            )
            return 2
    lanes = opts.lanes if opts.lanes is not None else 1
    workers = resolve_workers(
        opts.workers if opts.workers == "auto" else int(opts.workers),
        units=lanes if opts.fleet is not None else None,
    )
    if opts.shard_timeout is not None and opts.shard_timeout <= 0:
        print(
            f"--shard-timeout must be > 0, got {opts.shard_timeout}\n{USAGE}",
            file=sys.stderr,
        )
        return 2
    if opts.max_shard_attempts is not None and opts.max_shard_attempts < 1:
        print(
            f"--max-shard-attempts must be >= 1, got {opts.max_shard_attempts}\n{USAGE}",
            file=sys.stderr,
        )
        return 2
    supervision_kwargs = {}
    if opts.shard_timeout is not None:
        supervision_kwargs["shard_timeout"] = opts.shard_timeout
    if opts.max_shard_attempts is not None:
        supervision_kwargs["max_shard_attempts"] = opts.max_shard_attempts
    if opts.allow_partial:
        supervision_kwargs["allow_partial"] = True
    if opts.compat_skew is not None and not (
        0 <= opts.compat_skew < BASE_WEAR_API
    ):
        print(
            f"--compat-skew must be in [0, {BASE_WEAR_API - 1}], got "
            f"{opts.compat_skew}\n{USAGE}",
            file=sys.stderr,
        )
        return 2
    # One composition rule, shared with the service daemon: --fault-seed
    # arms every stream, --service-fault-seed arms (or re-seeds onto) the
    # OS-service streams, --compat-skew pins the pair's API matrix.
    plan: Optional[FaultPlan] = faults.compose_plan(
        fault_seed=opts.fault_seed,
        service_fault_seed=opts.service_fault_seed,
        compat_skew=opts.compat_skew,
    )
    if plan is not None:
        faults.install(plan)
    if opts.telemetry_sample < 1:
        print(
            f"--telemetry-sample must be >= 1, got {opts.telemetry_sample}\n{USAGE}",
            file=sys.stderr,
        )
        return 2
    if opts.telemetry_dir is None and (opts.telemetry_sample != 1 or opts.profile):
        flag = "--telemetry-sample" if opts.telemetry_sample != 1 else "--profile"
        print(f"{flag} requires --telemetry DIR\n{USAGE}", file=sys.stderr)
        return 2
    if not opts.guided:
        for flag, value in (
            ("--corpus-dir", opts.corpus_dir),
            ("--scheduler", opts.scheduler),
            ("--guided-budget", opts.guided_budget),
        ):
            if value is not None:
                print(f"{flag} requires --guided\n{USAGE}", file=sys.stderr)
                return 2
    else:
        if opts.scheduler is not None and opts.scheduler not in ("ucb", "thompson"):
            print(
                f"--scheduler must be ucb or thompson, got {opts.scheduler!r}\n{USAGE}",
                file=sys.stderr,
            )
            return 2
        if opts.guided_budget is not None and opts.guided_budget < 1:
            print(
                f"--guided-budget must be >= 1, got {opts.guided_budget}\n{USAGE}",
                file=sys.stderr,
            )
            return 2
        if opts.fleet is None and (
            opts.json_path is not None
            or opts.journal_path is not None
            or opts.resume_path is not None
            or opts.kill_after is not None
        ):
            # A guided *fleet* journals fine: lane journals checkpoint whole
            # pairs and the manifest records the guided knobs for resume.
            print(
                f"--guided cannot combine with --json or checkpointing flags\n{USAGE}",
                file=sys.stderr,
            )
            return 2
        if opts.fleet is None and opts.allow_partial:
            print(
                f"--guided cannot combine with --allow-partial (a guided round "
                f"cannot attribute a poisoned package's blocks)\n{USAGE}",
                file=sys.stderr,
            )
            return 2
    handle: Optional[telemetry.Telemetry] = None
    if opts.telemetry_dir is not None:
        handle = telemetry.enable(
            sample_every=opts.telemetry_sample, profile=opts.profile
        )
        handle.progress.add_listener(lambda snap: print(snap.render(), file=sys.stderr))
    stateful = (
        opts.journal_path is not None
        or opts.resume_path is not None
        or opts.kill_after is not None
    )
    journal = opts.resume_path if opts.resume_path is not None else opts.journal_path
    resume_hint = (
        f"; resume with: python -m repro {config_name} --resume {journal}"
        if journal is not None
        else ""
    )
    fleet_active = opts.fleet is not None
    if not fleet_active and opts.resume_path is not None:
        # A bare ``--resume FILE`` must route a fleet manifest back to the
        # fleet study; the header records which study wrote it.
        from repro.farm import StudyManifest

        try:
            fleet_active = (
                StudyManifest(opts.resume_path).header().get("study") == "fleet"
            )
        except (OSError, ValueError):
            fleet_active = False  # let the wear path surface the real error
    if fleet_active and opts.corpus_dir is not None:
        print(
            f"--corpus-dir cannot combine with --fleet (guided fleet pairs "
            f"keep pair-local corpora)\n{USAGE}",
            file=sys.stderr,
        )
        return 2
    healths = []
    try:
        try:
            if fleet_active:
                from repro.fleet import run_fleet_study

                guided_config = None
                if opts.guided:
                    from repro.guided import GuidedConfig

                    guided_config = GuidedConfig(
                        scheduler=opts.scheduler or "ucb",
                        budget=opts.guided_budget,
                    )
                if opts.kill_after is not None and journal is None:
                    print(
                        f"--kill-after needs --journal or --resume\n{USAGE}",
                        file=sys.stderr,
                    )
                    return 2
                study_kwargs = dict(supervision_kwargs)
                if journal is not None:
                    study_kwargs["journal_path"] = journal
                if opts.resume_path is not None:
                    study_kwargs["resume"] = True
                if opts.kill_after is not None:
                    study_kwargs["kill_after_injections"] = opts.kill_after
                result = run_fleet_study(
                    opts.fleet if opts.fleet is not None else 0,
                    config=by_name(config_name),
                    cohorts=(
                        opts.cohorts if opts.cohorts is not None else DEFAULT_COHORT_SPEC
                    ),
                    lanes=lanes,
                    workers=workers,
                    guided=guided_config,
                    **study_kwargs,
                )
                if result.health is not None:
                    healths.append(result.health)
                print(result.render_report())
                print(
                    f"{result.intents_sent} intents across {result.fleet_size} "
                    f"pairs in {result.lanes} lane(s), "
                    f"{result.virtual_hours():.1f} virtual pair-hours"
                )
            elif opts.guided:
                from repro.guided import GuidedConfig, run_guided_study

                guided_config = GuidedConfig(
                    scheduler=opts.scheduler or "ucb",
                    budget=opts.guided_budget,
                )
                result = run_guided_study(
                    by_name(config_name),
                    guided_config,
                    workers=workers,
                    **supervision_kwargs,
                )
                if opts.corpus_dir is not None:
                    result.save(opts.corpus_dir)
                    print(f"wrote {opts.corpus_dir}/corpus.jsonl", file=sys.stderr)
                    print(f"wrote {opts.corpus_dir}/schedule.jsonl", file=sys.stderr)
                print(result.render())
            elif stateful:
                if journal is None:
                    print(
                        f"--kill-after needs --journal or --resume\n{USAGE}",
                        file=sys.stderr,
                    )
                    return 2
                study_kwargs = dict(supervision_kwargs)
                study_kwargs["journal_path"] = journal
                if opts.resume_path is not None:
                    study_kwargs["resume"] = True
                if opts.kill_after is not None:
                    study_kwargs["kill_after_injections"] = opts.kill_after
                if workers != 1:
                    study_kwargs["workers"] = workers
                result = wear_study(config_name, **study_kwargs)
                if result.health is not None:
                    healths.append(result.health)
                print(result.summary.render())
                print(
                    f"{result.intents_sent} intents, {result.reboot_count} reboots, "
                    f"{result.virtual_hours():.1f} virtual hours"
                )
            elif opts.json_path is not None:
                if workers != 1 or supervision_kwargs:
                    export_json(
                        config_name,
                        path=opts.json_path,
                        workers=workers,
                        healths=healths,
                        **supervision_kwargs,
                    )
                else:
                    export_json(config_name, path=opts.json_path)
                print(f"wrote {opts.json_path}")
            elif workers != 1 or supervision_kwargs:
                print(
                    full_report(
                        config_name,
                        workers=workers,
                        healths=healths,
                        **supervision_kwargs,
                    )
                )
            else:
                print(full_report(config_name))
        except CampaignKilled as exc:
            print(
                f"campaign killed after {exc.injections} injections{resume_hint}",
                file=sys.stderr,
            )
            return 3
        except ShardPoisonedError as exc:
            print(exc.health.render(), file=sys.stderr)
            print(str(exc), file=sys.stderr)
            return 4
        except StudyInterrupted as exc:
            print(exc.health.render(), file=sys.stderr)
            print(f"study interrupted; in-flight shards drained{resume_hint}", file=sys.stderr)
            return 130
        except KeyboardInterrupt:
            print(f"study interrupted{resume_hint}", file=sys.stderr)
            return 130
        if handle is not None:
            from repro.telemetry.exporters import export_snapshot

            written = export_snapshot(opts.telemetry_dir, handle)
            for name, path in sorted(written.items()):
                print(f"wrote {path}")
    finally:
        if handle is not None:
            telemetry.disable()
    for health in healths:
        if health.noteworthy:
            print(health.render(), file=sys.stderr)
    if any(health.degraded for health in healths):
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
