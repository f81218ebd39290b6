"""`schurweyl` with spans: python3 perfbench/cli_traced.py SPANS_FILE ARGV...

Runs `schurweyl.cli.main(ARGV)` exactly as the console script does, with every
layer wrapped by `tracing.Tracer`, and writes the spans to SPANS_FILE when the
command ends, however it ends.
"""

import sys
from pathlib import Path

from schurweyl import characters, cli

import tracing


def main() -> int:
    spans, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    tracer.enabled = True
    try:
        return cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.write(spans, characters)


if __name__ == "__main__":
    sys.exit(main())
