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
from repro.farm.journal import StudyManifest
from repro.farm.pool import resolve_workers
from repro.faults.errors import CampaignKilled
from repro.faults.plan import BASE_WEAR_API, FaultPlan
from repro.faults.plane import NOOP_PLANE


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
  --journal FILE   checkpoint the study to FILE: a manifest naming its study
                   (wear, or fleet with --fleet) over per-shard journals of
                   finished work; prints the study summary
  --resume FILE    resume the study FILE's manifest names (wear or fleet):
                   load the finished work and re-run the rest; reproduces
                   the summary the uninterrupted run would have produced
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


def _usage(message: str) -> int:
    """Print *message* and the usage to stderr; return the usage exit code."""
    print(f"{message}\n{USAGE}", file=sys.stderr)
    return 2


#: The flags only one kind of run reads: (the flag that enables the kind,
#: its option name, the flags it owns).
_OWNED_FLAGS = (
    ("--fleet", "fleet", ("--cohorts", "--lanes")),
    ("--telemetry DIR", "telemetry_dir", ("--telemetry-sample", "--profile")),
    ("--guided", "guided", ("--corpus-dir", "--scheduler", "--guided-budget")),
)

#: The flags whose values must be >= 1 when given.
_AT_LEAST_ONE = (
    "--fleet",
    "--lanes",
    "--max-shard-attempts",
    "--telemetry-sample",
    "--guided-budget",
)


def _dest(flag: str) -> str:
    """The parsed-options attribute that holds *flag*'s value."""
    return flag[2:].replace("-", "_")


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
    parser = _build_parser()
    try:
        opts = parser.parse_args(args)
        config = by_name(opts.config)
    except (_UsageError, ValueError) as exc:
        return _usage(str(exc))
    config_name = opts.config
    workers = opts.workers
    if workers != "auto":
        try:
            workers = int(workers)
        except ValueError:
            return _usage(f"--workers must be an integer or 'auto', got {opts.workers!r}")
        if workers < 1:
            return _usage(f"--workers must be >= 1, got {opts.workers}")
    # Every flag is checked before anything is armed: a refused call
    # leaves no fault plan installed and no telemetry session open.
    for owner, owner_dest, flags in _OWNED_FLAGS:
        if getattr(opts, owner_dest) == parser.get_default(owner_dest):
            for flag in flags:
                if getattr(opts, _dest(flag)) != parser.get_default(_dest(flag)):
                    return _usage(f"{flag} requires {owner}")
    for flag in _AT_LEAST_ONE:
        value = getattr(opts, _dest(flag))
        if value is not None and value < 1:
            return _usage(f"{flag} must be >= 1, got {value}")
    if opts.shard_timeout is not None and opts.shard_timeout <= 0:
        return _usage(f"--shard-timeout must be > 0, got {opts.shard_timeout}")
    if opts.compat_skew is not None and not 0 <= opts.compat_skew < BASE_WEAR_API:
        return _usage(
            f"--compat-skew must be in [0, {BASE_WEAR_API - 1}], got {opts.compat_skew}"
        )
    if opts.cohorts is not None:
        try:
            parse_cohort_spec(opts.cohorts)
        except ValueError as exc:
            return _usage(f"--cohorts: {exc}")
    if opts.scheduler not in (None, "ucb", "thompson"):
        return _usage(f"--scheduler must be ucb or thompson, got {opts.scheduler!r}")
    fleet_given = opts.fleet is not None
    if fleet_given and opts.json_path is not None:
        return _usage(
            "--fleet cannot combine with --json (the fleet report has its own format)"
        )
    journal = opts.resume_path if opts.resume_path is not None else opts.journal_path
    if opts.guided and not fleet_given:
        # A guided *fleet* journals fine: lane journals checkpoint whole
        # pairs and the manifest records the guided knobs for resume.
        if opts.json_path is not None or journal is not None or opts.kill_after is not None:
            return _usage("--guided cannot combine with --json or checkpointing flags")
        if opts.allow_partial:
            return _usage(
                "--guided cannot combine with --allow-partial (a guided round "
                "cannot attribute a poisoned package's blocks)"
            )
    if opts.kill_after is not None and journal is None:
        return _usage("--kill-after needs --journal or --resume")
    if fleet_given and opts.corpus_dir is not None:
        return _usage(
            "--corpus-dir cannot combine with --fleet (guided fleet pairs "
            "keep pair-local corpora)"
        )
    lanes = opts.lanes if opts.lanes is not None else 1
    workers = resolve_workers(workers, units=lanes if fleet_given else None)
    # One composition rule, shared with the service daemon: --fault-seed
    # arms every stream, --service-fault-seed arms (or re-seeds onto) the
    # OS-service streams, --compat-skew pins the pair's API matrix.
    plan: Optional[FaultPlan] = faults.compose_plan(
        fault_seed=opts.fault_seed,
        service_fault_seed=opts.service_fault_seed,
        compat_skew=opts.compat_skew,
    )
    kind = "fleet" if fleet_given else "guided" if opts.guided else "wear"
    if opts.resume_path is not None:
        # The manifest names its study, so a bare --resume runs that one;
        # a journal this run cannot resume is refused before anything runs.
        manifest = StudyManifest(opts.resume_path)
        try:
            if manifest.header().get("study") == "fleet":
                kind = "fleet"
            manifest.validate_resume(
                study=kind,
                config=config_name,
                fault_fingerprint=(
                    plan.fingerprint() if plan is not None else NOOP_PLANE.fingerprint()
                ),
                workers=workers,
            )
        except (OSError, ValueError) as exc:
            return _usage(str(exc))

    if plan is not None:
        faults.install(plan)
    handle: Optional[telemetry.Telemetry] = None
    if opts.telemetry_dir is not None:
        handle = telemetry.enable(
            sample_every=opts.telemetry_sample, profile=opts.profile
        )
        handle.progress.add_listener(lambda snap: print(snap.render(), file=sys.stderr))
    # Only the knobs this run sets, so a plain run keeps the cached study.
    study_kwargs = {
        name: value
        for name, value in (
            ("shard_timeout", opts.shard_timeout),
            ("max_shard_attempts", opts.max_shard_attempts),
            ("allow_partial", True if opts.allow_partial else None),
            ("workers", workers if workers != 1 else None),
            ("journal_path", journal),
            ("resume", True if opts.resume_path is not None else None),
            ("kill_after_injections", opts.kill_after),
        )
        if value is not None
    }
    guided_config = None
    if opts.guided:
        from repro.guided import GuidedConfig

        guided_config = GuidedConfig(
            scheduler=opts.scheduler or "ucb", budget=opts.guided_budget
        )
    resume_hint = (
        f"; resume with: python -m repro {config_name} --resume {journal}"
        if journal is not None
        else ""
    )
    healths = []
    try:
        try:
            if kind == "wear" and journal is None:
                report_kwargs = dict(study_kwargs, healths=healths) if study_kwargs else {}
                if opts.json_path is not None:
                    export_json(config_name, path=opts.json_path, **report_kwargs)
                    print(f"wrote {opts.json_path}")
                else:
                    print(full_report(config_name, **report_kwargs))
            else:
                if kind == "guided":
                    from repro.guided import run_guided_study

                    result = run_guided_study(config, guided_config, **study_kwargs)
                    if opts.corpus_dir is not None:
                        result.save(opts.corpus_dir)
                        print(f"wrote {opts.corpus_dir}/corpus.jsonl", file=sys.stderr)
                        print(f"wrote {opts.corpus_dir}/schedule.jsonl", file=sys.stderr)
                else:
                    if kind == "fleet":
                        from repro.fleet import run_fleet_study

                        result = run_fleet_study(
                            opts.fleet or 0,  # a resume reads it from the manifest
                            config=config,
                            cohorts=(
                                opts.cohorts
                                if opts.cohorts is not None
                                else DEFAULT_COHORT_SPEC
                            ),
                            lanes=lanes,
                            guided=guided_config,
                            **study_kwargs,
                        )
                    else:
                        result = wear_study(config_name, **study_kwargs)
                    if result.health is not None:
                        healths.append(result.health)
                print(result.render())
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
