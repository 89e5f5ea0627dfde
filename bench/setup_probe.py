"""Set-up probe: a fresh interpreter imports afq and generates the first
block of a workload's inputs, then prints ``ready``. The caller times it
from process start to that line.

Usage: python bench/setup_probe.py WORKLOAD SEED WORKDIR
(run from the repository root)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (needs src on sys.path)


def main(argv):
    name, seed, workdir = argv
    wl = workloads.WORKLOADS[name](int(seed), Path(workdir), Path.cwd())
    for i, op in enumerate(wl.block(0)):
        wl.prepare(op, i)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
