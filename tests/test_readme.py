"""README's Library example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import actsim
from actsim import write_log_csv
from synthetic_logs import worked_log

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(heading):
    """The first ```python block of the README section under ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path):
    write_log_csv(worked_log(), tmp_path / "log.csv")
    src = str(Path(actsim.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", python_block("## Library")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert done.stdout
