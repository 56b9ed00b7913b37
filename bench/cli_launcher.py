"""Traced stand-in for ``python -m revspec.cli``.

Usage: ``cli_launcher.py TRACE_FILE ARG...``.  Times ``import revspec``,
installs the tracer's wrappers, runs ``revspec.cli.main(ARG...)`` as one
operation and writes the spans to ``TRACE_FILE`` (``.npz``).  The exit code
is the command's.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    start = time.perf_counter()
    import revspec  # noqa: F401
    import_s = time.perf_counter() - start

    import numpy as np
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    import revspec.cli
    tracer.begin_op(0)
    try:
        code = revspec.cli.main(sys.argv[2:])
    finally:
        tracer.end_op()
        np.savez(sys.argv[1], import_s=np.asarray([import_s]), **tracer.tables())
    return code


if __name__ == "__main__":
    sys.exit(main())
