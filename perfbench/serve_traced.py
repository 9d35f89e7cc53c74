"""Launch the campaign daemon with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py --store DIR --trace-dir DIR

Installs :func:`perfbench.spans.install`, then calls the public
:func:`repro.service.http.serve` exactly as ``python -m repro serve
--port 0 --workers 1`` does.  Pool workers fork from this process and
inherit the wrappers; each appends its spans to ``--trace-dir`` after
every task, and this process writes its own when the daemon stops.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.spans import Tracer, install  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args()

    tracer = Tracer(flush_dir=args.trace_dir)
    install(tracer)
    os.register_at_fork(after_in_child=tracer.after_fork_in_child)
    from repro.service.http import serve

    server = serve(store_dir=args.store, port=0, n_workers=1)
    print(f"serving on {server.url}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.stop()
        server.server_close()
        tracer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
