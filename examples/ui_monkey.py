#!/usr/bin/env python3
"""QGJ-UI: mutational UI-event fuzzing on the Watch emulator (Fig. 1b).

Shows the full pipeline with its intermediate artifacts:

* the Monkey log (the real tool's grammar -- QGJ-UI parses it back);
* a few semi-valid and random mutants side by side with their adb shell
  lowering (including the paper's famous off-screen tap);
* the Table V summary for both mutation modes.

Run:  python examples/ui_monkey.py
"""

from repro.experiments.config import QUICK
from repro.farm import build_rig
from repro.qgj.monkey import Monkey, parse_monkey_log
from repro.qgj.ui_fuzzer import (
    EventMutator,
    MutationMode,
    QGJUi,
    event_to_shell,
    render_table5,
)
from repro.wear.device import WearDevice


def build_emulator() -> WearDevice:
    _, fuzzer = build_rig(QUICK, "emulator")
    emulator = fuzzer.device
    print(
        f"emulator carries {len(emulator.packages.installed_packages())} apps "
        "(all non-vendor built-ins + top-20 third-party)\n"
    )
    return emulator


def main() -> None:
    emulator = build_emulator()

    # Step 5-6: run monkey, show its log, parse it back.
    monkey = Monkey(emulator, seed=7)
    log_text = monkey.run(12)
    print("monkey log excerpt:")
    for line in log_text.splitlines()[:8]:
        print("  " + line)
    events = parse_monkey_log(log_text)
    print(f"parsed {len(events)} events back out of the log\n")

    # Step 7: mutate a few events both ways.
    mutator = EventMutator(events, seed=1)
    print(f"{'original':<42} {'semi-valid':<42} random")
    for event in events[:6]:
        semi = mutator.mutate(event, MutationMode.SEMI_VALID)
        rand = mutator.mutate(event, MutationMode.RANDOM)
        print(
            f"{event_to_shell(event):<42.41} "
            f"{event_to_shell(semi):<42.41} "
            f"{event_to_shell(rand):.41}"
        )

    # Step 8: the full experiment at reduced volume.
    print("\nrunning QGJ-UI, both modes ...\n")
    results = QGJUi(emulator, seed=25).run(4000)
    print(render_table5(results))
    print(
        f"\nno system crash during UI injection (boot count: {emulator.boot_count})"
        " -- UI handlers and the adb tools validate far better than intent"
        " handlers do."
    )


if __name__ == "__main__":
    main()
