"""Rewrite perfbench/reference.json with the quality values this commit gives.

    python3 perfbench/freeze.py --seeds 0-15

For every workload and seed it runs the set-up and the timed stages once,
untimed, and records automation_lb and accuracy_lb (the lower bounds of
automation_ci and accuracy_ci in calibration.json) and, where the workload
replays, prior_gain_step1 from repeats.csv.  run.py then checks every run
whose seed is in the table against these values.
"""

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="range such as 0-15")
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    cli, _ = run.import_program()
    table = {}
    for name, make in run.WORKLOADS.items():
        wl = make("full")
        table[name] = {}
        for seed in range(lo, hi + 1):
            workdir = run.ROOT / ".bench_work" / f"freeze-{name}-{seed}-{os.getpid()}"
            workdir.mkdir(parents=True)
            try:
                runner = run.Runner(cli, workdir, seed)
                for stage, stage_argv in (wl.setup if wl.setup_is_sample else []) + wl.stages:
                    runner.run(stage, stage_argv)
                if runner.failures:
                    sys.exit(f"{name} seed {seed}: {runner.failures}")
                table[name][str(seed)] = run.quality(workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(name, seed, table[name][str(seed)], flush=True)
    (run.BENCH / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
