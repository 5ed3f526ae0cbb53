"""Run ``python -m repro.serve`` with the layer wrappers installed.

    python3 perfbench/serve_launcher.py --spans-out PATH -- [serve options]

SIGUSR1 drops what was recorded so far (the load generator sends it when
its timed window opens); SIGINT stops the server as usual.  On the way out
the wrappers are removed and the spans are written to PATH, with calls,
counts and the restore check in ``PATH.meta.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import common


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] \
        else args.serve_args

    common.use_sources()
    import tracing
    from repro.serve.__main__ import main as serve_main

    tracer = tracing.Tracer()
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda *_: tracer.reset())
    patched = tracer.patch_count
    try:
        status = serve_main(serve_args)
    finally:
        not_restored = tracer.uninstall()
        tracer.write_spans(args.spans_out)
        with open(args.spans_out + ".meta.json", "w") as fh:
            json.dump({"calls": dict(tracer.calls),
                       "counts": dict(tracer.counts),
                       "patched": patched,
                       "not_restored": not_restored}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
