"""Entry script for the benchmark's ``repro.service`` daemon.

Runs ``repro.service.serve`` with the benchmark's service settings
(one worker, fsync on, four-target shards).  With ``--spool-dir`` it
installs the span tracer before ``serve()`` and writes the spans to
that directory once the daemon has drained.

    python3 perfbench/daemon_main.py --socket S --state-dir D \\
        [--spool-dir DIR]
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--spool-dir", default="")
    args = parser.parse_args()

    from repro.service import ServiceConfig, serve

    tracer = None
    if args.spool_dir:
        from tracing import Tracer

        tracer = Tracer(args.spool_dir)
        tracer.install()
    config = ServiceConfig(socket_path=args.socket,
                           state_dir=args.state_dir, jobs=1,
                           shard_size=4, max_queued_targets=64,
                           fsync=True)
    try:
        return serve(config)
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
