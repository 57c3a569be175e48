"""README.md's Python examples run against the package as it is.

The ```python blocks run in order in one namespace (a later block may use
a name an earlier one made), in a new interpreter with src on the path,
so a public name that is deleted or renamed cannot leave them stale.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)

# each block is compiled under its own number, so a traceback names it
RUNNER = """
import sys
namespace = {"__name__": "__main__"}
for k, block in enumerate(sys.argv[1:], start=1):
    exec(compile(block, f"<README.md python block {k}>", "exec"), namespace)
"""


def test_readme_python_blocks_run(tmp_path):
    assert len(BLOCKS) >= 4
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", RUNNER, *BLOCKS], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
