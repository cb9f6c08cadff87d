"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_launcher.py --spans OUT.json serve --socket S ...

Everything after ``--spans OUT.json`` is handed to the ``repro`` CLI
unchanged.  When the daemon exits after a drain (``repro serve --stop`` or
the ``drain`` wire op), the spans it recorded are written to ``OUT.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import import_repro  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]
    import_repro()
    from repro.cli import main as repro_main

    tracer = Tracer().install()
    try:
        return repro_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
