"""One ``folnersys`` process as the benchmark runs it.

    python3 bench/child.py STAMP_FILE TRACE_FILE folnersys-args...

Imports the package from ``src/`` of the checkout, writes to STAMP_FILE the
monotonic time at which ``load_config`` returned (the end of set-up), and
then runs ``folnersys.cli.main``.  With a TRACE_FILE other than ``-`` the
public functions are wrapped by ``tracer`` first and the recorded spans and
counters are written there once the run ends.
"""
from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    stamp_file, trace_file, args = argv[0], argv[1], argv[2:]
    from folnersys import cli

    tracer = None
    if trace_file != "-":
        sys.path.insert(0, HERE)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    load = cli.load_config

    def stamped_load(*a, **kw):
        cfg = load(*a, **kw)
        stamp = time.monotonic()
        with open(stamp_file, "w") as fh:
            fh.write(repr(stamp))
        return cfg

    cli.load_config = stamped_load
    code = cli.main(args)
    if tracer is not None:
        tracer.dump(trace_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
