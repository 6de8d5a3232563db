"""Write the expected outputs the oracles byte-compare against.

    python3 perfbench/capture.py

Run once, from the repository root, at the commit whose outputs define
"correct" (the files committed under perfbench/expected/ were captured from
the seed commit).  It overwrites perfbench/expected/cli/ and
perfbench/expected/arrangements/.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli_dir = HERE / "expected" / "cli"
    cli_dir.mkdir(parents=True, exist_ok=True)
    for slug, argv in workloads.README_COMMANDS:
        for fmt in workloads.FORMATS:
            done = subprocess.run(
                [sys.executable, "-c", workloads.CLI_ENTRY, *argv, "--format", fmt],
                env=env, cwd=ROOT, capture_output=True, text=True, check=True,
            )
            (cli_dir / f"{slug}.{fmt}.out").write_text(done.stdout, encoding="utf-8")
    sys.path.insert(0, str(ROOT / "src"))
    import contactconics as cc

    runner = workloads.Runner(cc)
    arrangement_dir = HERE / "expected" / "arrangements"
    arrangement_dir.mkdir(parents=True, exist_ok=True)
    for item in workloads.arrangement_items(random.Random(0)):
        (arrangement_dir / f"{item['id']}.out").write_text(
            runner.run(item), encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
