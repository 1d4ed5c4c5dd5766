"""``python -m benchmarks.suite``: run the benchmark (see ``run.py``)."""

import runpy
from pathlib import Path

runpy.run_path(str(Path(__file__).with_name("run.py")), run_name="__main__")
