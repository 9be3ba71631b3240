"""Set-up probe: import quatwell and finish one operation in a fresh interpreter.

Usage: python3 bench/probe.py <quatwell argv...>
Prints one JSON line with the set-up seconds and the CLI exit code.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quatwell.cli import main  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"setup_s": time.perf_counter() - START, "code": code}))
