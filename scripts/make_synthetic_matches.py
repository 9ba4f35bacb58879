#!/usr/bin/env python3
"""Generate a synthetic match CSV at a chosen scale and pair density.

Useful for exercising the `rank` pipeline at tournament scale without
shipping any real dataset, e.g.:

    python3 scripts/make_synthetic_matches.py --players 875 --density 0.0713
    python3 -m wstrank rank --input matches.csv --method master --filter no-wins
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wstrank import synthetic_matches, write_match_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--players", type=int, default=875)
    parser.add_argument("--density", type=float, default=0.0713)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="matches.csv")
    args = parser.parse_args()

    records = synthetic_matches(args.players, args.density, seed=args.seed)
    write_match_csv(args.out, records)
    print(f"wrote {len(records)} games over {args.players} players to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
