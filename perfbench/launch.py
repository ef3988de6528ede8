"""Start the fracwave command as its console script does, stamping the clock.

    python3 perfbench/launch.py STAMPS MODE SUBCOMMAND CONFIG [ARGS...]

MODE "run" imports fracwave.cli, parses CONFIG into an ExperimentPlan (the
set-up the benchmark times), then calls fracwave.cli.main with the remaining
arguments and exits with its code.  MODE "setup" stops after the parse.
STAMPS receives CLOCK_MONOTONIC readings (shared by all processes on the
host, so the parent can subtract its own spawn time) and the peak RSS of this
process and of its largest reaped child, the pool workers.  The own peak is
read from VmHWM: ru_maxrss of an exec'd process starts from the RSS its
parent had when it was spawned, so it would report the benchmark's memory.
"""

import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    stamps_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from fracwave import cli

    with open(argv[1], "r", encoding="utf-8") as fh:
        cli.parse_config(fh.read())
    t_setup = time.monotonic()
    code = cli.main(argv) if mode == "run" else 0
    t_end = time.monotonic()
    with open(stamps_path, "w", encoding="utf-8") as fh:
        json.dump({
            "setup": t_setup,
            "end": t_end,
            "rss_self_kb": peak_rss_kb(),
            "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
