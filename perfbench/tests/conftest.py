"""Make the benchmark modules and the repro sources importable.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
