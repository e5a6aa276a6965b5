"""Traced stand-in for ``python -m repro``.

Usage::

    python perfbench/cli_shim.py --trace-out SPANS.json -- run FIG-GAP ...

Times ``import repro.__main__`` (the ``cli.import`` span), installs the layer
wrappers of :mod:`tracer`, calls ``repro.__main__.main(argv)`` inside a
``cli.cmd`` span and writes this process's spans to ``SPANS.json`` on exit.
Shard slices the command fans out run through this shim as well, each
writing its own spans file next to ``SPANS.json``.
"""

import os
import sys
import time

started = time.perf_counter()
import repro.__main__  # noqa: E402

imported = time.perf_counter()

from tracer import Tracer, write_json  # noqa: E402


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] != "--trace-out" or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, argv = sys.argv[2], sys.argv[4:]
    tracer = Tracer(slice_trace_dir=os.path.dirname(out))
    tracer.spans.append(["cli.import", started, imported, -1, {}])
    tracer.install()
    index = tracer.open_span("cli.cmd")
    try:
        return repro.__main__.main(argv)
    finally:
        tracer.close_span(index)
        tracer.uninstall()
        write_json(out, tracer.take())


if __name__ == "__main__":
    sys.exit(main())
