"""Set-up probe: a fresh interpreter imports nvorient, builds one workload's
inputs from the seed and runs one untimed warm-up result, then exits.
`run.py` times the whole process from outside to get `setup_s`.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workload = WORKLOADS[name](seed, workdir)
    failures = workload.check(-1, workload.run(-1))
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
