#!/usr/bin/env python3
"""Run one wstrank benchmark workload from the root of a checkout.

    python3 bench/run.py --workload study_dense --seed 1 --seconds 10 --trace 0

The last line of standard output is the result as one JSON object; the exit
code is non-zero if any correctness check failed. See bench/README.md.
"""

import os
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy loads: numpy wheels link a threaded
# OpenBLAS, and one thread keeps timings steady on a shared machine and makes
# the USVT SVD reproducible bit for bit, which the quality metrics rely on.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from wstbench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
