"""Run the `nvorient` command line with the benchmark's span recorder installed.

Usage: python3 perfbench/cli_child.py SPANS_PATH <nvorient arguments...>

Writes the recorded spans to SPANS_PATH as JSON lines and exits with the
command line's own exit code.  `src/` must be on PYTHONPATH.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from nvorient import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
