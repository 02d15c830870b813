"""Start ``repro serve``, optionally with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_launcher.py [--ledger PATH] <serve arguments>``.
Without ``--ledger`` this is exactly ``python -m repro serve <serve arguments>``.
With it, the wrappers of :mod:`spans` are installed before the server boots
and the per-layer ledger is written to ``PATH`` as JSON once the server has
drained and returned.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.serve.server import main  # noqa: E402

from spans import Recorder  # noqa: E402


def launch(argv: list[str]) -> int:
    ledger_path = None
    if argv[:1] == ["--ledger"]:
        ledger_path, argv = Path(argv[1]), argv[2:]
    if ledger_path is None:
        return main(argv)
    recorder = Recorder()
    recorder.install()
    started = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - started
    recorder.uninstall()
    ledger = recorder.ledger(wall, main_thread=threading.main_thread().ident)
    ledger_path.write_text(json.dumps(ledger))
    return code


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
