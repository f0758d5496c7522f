"""Set-up as a cold CLI call pays it: import mtcontrol, then build each of
the given configs.

Usage: python3 bench/setup_child.py CONFIG.json...
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mtcontrol import cli  # noqa: E402

for path in sys.argv[1:]:
    cli.build_system(cli.load_config(path))
