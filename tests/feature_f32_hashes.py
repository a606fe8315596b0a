"""Print the float32 feature-salience hash rows of README's *Reproducibility notes*.

    PYTHONPATH=src python tests/feature_f32_hashes.py [LAYOUT]

Each cell is the first 12 hex digits of the sha256 of the float64 salience
bytes of a 10-frame float32 clip (uniform 0..255, all clips drawn in table
order from one ``default_rng(11)``), featured with ``random_bank(C, seed=0)``.
Every column runs in its own child process: the kernel OpenBLAS picks for
this CPU ("default"), then each ``OPENBLAS_CORETYPE`` below. A core type
whose child fails, say on an instruction this CPU lacks, is left out and
named on stderr.  LAYOUT labels the rows (default "this tree").

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import subprocess
import sys

CORETYPES = ("default", "Prescott", "Haswell", "SkylakeX", "Sandybridge")
SHAPES = ((8, 8, 1), (8, 8, 3), (24, 32, 1), (24, 32, 3), (64, 64, 3), (97, 131, 1))

_CHILD = f"""
import hashlib
import numpy as np
from motionsample import FrameVolume, feature_diff_salience, random_bank
rng = np.random.default_rng(11)
for h, w, c in {SHAPES!r}:
    frames = rng.uniform(0, 255, size=(10, h, w, c)).astype(np.float32)
    values = feature_diff_salience(FrameVolume(frames), random_bank(c, seed=0)).values
    print(hashlib.sha256(values.tobytes()).hexdigest()[:12])
"""


def column(coretype: str) -> list[str] | None:
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype != "default":
        env["OPENBLAS_CORETYPE"] = coretype
    child = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True)
    if child.returncode != 0:
        print(f"skipped {coretype}: child exited with {child.returncode}", file=sys.stderr)
        return None
    return child.stdout.split()


def main(argv: list[str]) -> int:
    layout = argv[0] if argv else "this tree"
    columns = {name: cells for name in CORETYPES if (cells := column(name)) is not None}
    print("| H×W×C | layout | " + " | ".join(columns) + " |")
    print("|---|---|" + "---|" * len(columns))
    for row, (h, w, c) in enumerate(SHAPES):
        cells = " | ".join(cells[row] for cells in columns.values())
        print(f"| {h}×{w}×{c} | {layout} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
