"""Run ``repro serve`` with the benchmark's tracing wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS.json serve [serve args]``

Installs the wrappers of :func:`tracing.install_program`, runs the CLI
command given after the spans path, and when the server has drained
(SIGTERM or ``POST /v1/drain``) writes every recorded span as a JSON
list to ``SPANS.json``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list[str]) -> int:
    from repro import cli

    import tracing

    out = Path(argv[0])
    tracer = tracing.Tracer()
    tracing.install_program(tracer)
    try:
        code = cli.main(argv[1:])
    finally:
        tracer.uninstall()
        tmp = out.with_suffix(".tmp")
        tmp.write_text(json.dumps([s.to_list() for s in tracer.spans]))
        os.replace(tmp, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
