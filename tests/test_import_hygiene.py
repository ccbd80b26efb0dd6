"""The package runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []``; this keeps it true.  The
public entry points are imported in a fresh interpreter and every top-level
module the imports pull in must be either part of the standard library or
``repro`` itself.  Modules the interpreter loaded before the imports (site
hooks, ``.pth`` files) are not the package's doing and are ignored.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.xnf.api, repro.server, repro.client
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"repro"})))
"""


def test_public_imports_load_only_stdlib_and_repro():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    foreign = json.loads(result.stdout.strip().splitlines()[-1])
    assert foreign == [], f"non-stdlib modules imported by repro: {foreign}"
