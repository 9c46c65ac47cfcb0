import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_package_loads_no_module():
    # Every name lives in its own module; the package re-exports nothing.
    script = ("import json, sys, permcrypt; print(json.dumps([permcrypt.__file__, "
              "sorted(m for m in sys.modules if m.startswith('permcrypt.'))]))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    location, loaded = json.loads(out)
    assert Path(location).resolve() == SRC / "permcrypt" / "__init__.py"
    assert loaded == []
