"""``serve`` / ``submit`` / ``status``: the service's command surface.

These ride the same ``python -m repro`` entry point as the batch runner
(:mod:`repro.experiments.runner` dispatches here when the first argument
is a service subcommand) and share its exit-code conventions, plus one of
their own: **5** for an admission-control rejection, so scripts can
distinguish "queue full, resubmit later" from a usage error.

::

    python -m repro serve  ROOT [--until-idle] [--capacity N] ...
    python -m repro submit ROOT [quick|paper] [--guided] [chaos flags] ...
    python -m repro status ROOT [--report FINGERPRINT]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.service.client import ServiceClient
from repro.service.daemon import RootLockedError, ServiceDaemon
from repro.service.queue import (
    AdmissionError,
    DEFAULT_CAPACITY,
    DEFAULT_LEASE_TTL_S,
    DEFAULT_MAX_ATTEMPTS,
)
from repro.service.spec import StudySpec
from repro.service.wal import DONE, POISONED

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REJECTED = 5
EXIT_POISONED = 6
EXIT_NO_DAEMON = 7
EXIT_DRAINED = 130

USAGE = """\
usage: python -m repro serve  ROOT [--capacity N] [--max-attempts N]
                                   [--lease-ttl S] [--port P] [--no-http]
                                   [--until-idle] [--no-telemetry]
       python -m repro submit ROOT [quick|paper] [--guided]
                                   [--packages P1,P2] [--campaigns ABCD]
                                   [--fault-seed N] [--service-fault-seed N]
                                   [--compat-skew N] [--workers N]
                                   [--scheduler NAME] [--guided-budget N]
                                   [--wait]
       python -m repro status ROOT [--json] [--report FINGERPRINT]

Fuzzing as a service over one durable ROOT directory: a write-ahead study
queue (wal.jsonl), a persistent results/corpus store (store/), and one
daemon incarnation at a time executing leased studies.  kill -9 the daemon
at any point; the next `serve` replays the WAL, reclaims the dead
incarnation's leases, resumes from shard checkpoints, and completes every
study to the byte-identical report.

serve options:
  --capacity N      bounded queue size; submissions past it are rejected
                    with an explicit backpressure error (default: 16)
  --max-attempts N  lease grants per study before it is quarantined as
                    poison and the queue completes degraded (default: 3)
  --lease-ttl S     seconds a lease may run before it is presumed dead and
                    requeued (monotonic clock; default: 3600)
  --port P          serve the HTTP status API on 127.0.0.1:P (default: an
                    ephemeral port, published in ROOT/daemon.json)
  --no-http         run without the status API
  --until-idle      exit 0 once the queue is drained (batch/CI mode)
  --no-telemetry    skip the telemetry plane

submit options:
  quick|paper       experiment scale (default: quick)
  --guided          submit a feedback-guided study (merges its behaviour
                    corpus into ROOT/store/corpus.jsonl) instead of the
                    journalled wear study
  --packages LIST   comma-separated package subset (default: full corpus)
  --campaigns SET   campaign letters, e.g. AB (default: all four)
  --fault-seed N, --service-fault-seed N, --compat-skew N
                    chaos knobs, same semantics as the batch runner
                    (--service-fault-seed does nothing beside --fault-seed)
  --workers N       shard the study across N workers (default: 1)
  --scheduler NAME  guided bandit policy: ucb or thompson
  --guided-budget N total guided intent budget
  --wait            block until the study completes; print its report

status options:
  --json            print the raw status dict
  --report FP       print the stored report for study fingerprint FP

exit codes:
  0    ok (serve: queue idle with --until-idle; submit: admitted/cached)
  2    usage error (serve: also when another daemon holds the ROOT's
       writer lock)
  5    submission rejected by admission control (queue full)
  6    submit --wait: the study was quarantined as poison; no report
  7    submit: no daemon reachable to accept the study (one holds the
       root's writer lock without an HTTP endpoint), or with --wait the
       daemon died before the study completed; the WAL holds whatever
       was admitted for the next serve
  130  serve: drained on SIGTERM/SIGINT (leased study checkpointed and
       released; resubmit nothing -- the WAL still holds the queue)

One writer per ROOT: the daemon holds a kernel flock (ROOT/wal.lock) for
its lifetime, and offline submission takes the same lock, so two serves
of one ROOT -- or a submit racing a starting daemon -- cannot interleave
WAL appends.  A daemon running --no-http holds the lock but publishes no
endpoint, so submissions to it fail; reads (status, report) always work.\
"""


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fail(message: str) -> int:
    print(f"{message}\n{USAGE}", file=sys.stderr)
    return EXIT_USAGE


# -- serve ---------------------------------------------------------------------
def _serve(args: List[str]) -> int:
    parser = _ArgumentParser(prog="python -m repro serve", add_help=False)
    parser.add_argument("root")
    parser.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY)
    parser.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    parser.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL_S)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--no-http", action="store_true")
    parser.add_argument("--until-idle", action="store_true")
    parser.add_argument("--no-telemetry", action="store_true")
    opts = parser.parse_args(args)
    try:
        daemon = ServiceDaemon(
            opts.root,
            capacity=opts.capacity,
            max_attempts=opts.max_attempts,
            lease_ttl_s=opts.lease_ttl,
            http_port=None if opts.no_http else opts.port,
            enable_telemetry=not opts.no_telemetry,
        )
    except RootLockedError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    daemon.start()
    recovered = daemon.jobs_recovered
    line = f"serving {daemon.root} as {daemon.owner}"
    if daemon._server is not None:
        line += f" on 127.0.0.1:{daemon._server.port}"
    print(line)
    if recovered:
        print(f"recovered {recovered} leased study(ies) from a dead incarnation")
    if daemon.wal.recovered_bytes:
        print(f"truncated {daemon.wal.recovered_bytes} torn WAL byte(s)")
    code = daemon.serve_forever(until_idle=opts.until_idle)
    counts = daemon.queue.counts()
    print(
        f"exiting: {counts[DONE]} done, {counts['queued']} queued, "
        f"{counts[POISONED]} poisoned"
    )
    return code


# -- submit --------------------------------------------------------------------
def _spec_from_opts(opts) -> StudySpec:
    packages = None
    if opts.packages:
        packages = tuple(p.strip() for p in opts.packages.split(",") if p.strip())
    campaigns = None
    if opts.campaigns:
        campaigns = tuple(opts.campaigns.upper())
    return StudySpec(
        kind="guided" if opts.guided else "wear",
        config=opts.config,
        packages=packages,
        campaigns=campaigns,
        fault_seed=opts.fault_seed,
        service_fault_seed=opts.service_fault_seed,
        compat_skew=opts.compat_skew,
        workers=opts.workers,
        scheduler=opts.scheduler or "ucb",
        guided_budget=opts.guided_budget,
    )


def _wait_for_report(client: ServiceClient, fingerprint: str):
    """Poll until the study resolves; ``(outcome, report_or_None)``.

    Outcomes: ``"done"`` (report ready), ``"poisoned"`` (quarantined, no
    report), ``"lost"`` (no live daemon to finish it -- waiting longer
    cannot help; the WAL still holds the study for the next serve).  A
    daemon observed dead gets one final re-check before ``"lost"``: it
    may have completed the study and exited between polls.
    """
    while True:
        alive = client.daemon_alive()
        report = client.report(fingerprint)
        if report is not None:
            return "done", report
        job = client.study(fingerprint)
        if job is not None and job.get("state") == POISONED:
            return "poisoned", None
        if not alive:
            return "lost", None
        time.sleep(0.3)


def _submit(args: List[str]) -> int:
    parser = _ArgumentParser(prog="python -m repro submit", add_help=False)
    parser.add_argument("root")
    parser.add_argument("config", nargs="?", default="quick")
    parser.add_argument("--guided", action="store_true")
    parser.add_argument("--packages")
    parser.add_argument("--campaigns")
    parser.add_argument("--fault-seed", dest="fault_seed", type=int)
    parser.add_argument(
        "--service-fault-seed", dest="service_fault_seed", type=int
    )
    parser.add_argument("--compat-skew", dest="compat_skew", type=int)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--scheduler")
    parser.add_argument("--guided-budget", dest="guided_budget", type=int)
    parser.add_argument("--wait", action="store_true")
    opts = parser.parse_args(args)
    try:
        spec = _spec_from_opts(opts)
    except (ValueError, TypeError) as exc:
        return _fail(str(exc))
    client = ServiceClient(opts.root)
    try:
        answer = client.submit(spec)
    except AdmissionError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except ConnectionError as exc:
        # A daemon holds the root (writer lock) but published no reachable
        # HTTP endpoint (--no-http, or mid-startup past the wait window).
        print(f"cannot submit: {exc}", file=sys.stderr)
        return EXIT_NO_DAEMON
    state = "cached" if answer.get("cached") else answer.get("state", "?")
    print(f"{answer['fingerprint']}  {state}  {spec.describe()}")
    if answer.get("cached") or opts.wait:
        fingerprint = str(answer["fingerprint"])
        if answer.get("cached"):
            outcome, report = "done", client.report(fingerprint)
            if report is None:
                # Cached but its report vanished (operator deleted it):
                # the queue will re-run on the next live resubmission.
                outcome = "lost"
        else:
            outcome, report = _wait_for_report(client, fingerprint)
        if outcome == "poisoned":
            print("study quarantined as poison; no report", file=sys.stderr)
            return EXIT_POISONED
        if outcome == "lost":
            print(
                "no live daemon to complete the study; it stays queued in "
                "the WAL -- start `serve` and re-check with `status`",
                file=sys.stderr,
            )
            return EXIT_NO_DAEMON
        print(report, end="" if report.endswith("\n") else "\n")
    return EXIT_OK


# -- status --------------------------------------------------------------------
def _status(args: List[str]) -> int:
    parser = _ArgumentParser(prog="python -m repro status", add_help=False)
    parser.add_argument("root")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--report", metavar="FINGERPRINT")
    opts = parser.parse_args(args)
    client = ServiceClient(opts.root)
    if opts.report:
        report = client.report(opts.report)
        if report is None:
            print(f"no stored report for {opts.report}", file=sys.stderr)
            return EXIT_USAGE
        print(report, end="" if report.endswith("\n") else "\n")
        return EXIT_OK
    status = client.status()
    if opts.json:
        print(json.dumps(status, sort_keys=True))
        return EXIT_OK
    live = "offline" if status.get("offline") else f"pid {status.get('pid')}"
    counts = status.get("queue", {})
    print(f"service {status.get('root')} ({live})")
    print(
        f"  queued {counts.get('queued', 0)}  leased {counts.get('leased', 0)}"
        f"  done {counts.get('done', 0)}  poisoned {counts.get('poisoned', 0)}"
    )
    if status.get("executing"):
        print(f"  executing {status['executing']}")
    if status.get("wal_recovered_bytes"):
        print(f"  wal: truncated {status['wal_recovered_bytes']} torn byte(s)")
    return EXIT_OK


SUBCOMMANDS = ("serve", "submit", "status")


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] not in SUBCOMMANDS:
        return _fail(f"expected one of {SUBCOMMANDS}")
    if "-h" in args or "--help" in args:
        print(USAGE)
        return EXIT_OK
    try:
        if args[0] == "serve":
            return _serve(args[1:])
        if args[0] == "submit":
            return _submit(args[1:])
        return _status(args[1:])
    except _UsageError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
