"""Child process for the set-up measurement: import the package, load and
validate a config, build the model and the grid, then print ``ready``.

Usage: python3 setup_probe.py <src dir> <config.json>
"""

import sys

sys.path.insert(0, sys.argv[1])

from agebranch.cli import load_config, spec_from_config  # noqa: E402
from agebranch.model import build_grid  # noqa: E402

build_grid(spec_from_config(load_config(sys.argv[2])))
print("ready", flush=True)
