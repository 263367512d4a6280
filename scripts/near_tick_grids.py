#!/usr/bin/env python3
"""Triangulate the 300 near-tick grids, each with insertion seeds 0 and 1.

    PYTHONPATH=src python scripts/near_tick_grids.py

The grids are prices on a 0.25 tick: shapes 6x6, 3x3x3 and 2x2x2x2, seeds
0-99 each, an origin round(U(10, 11), 2) per axis and every coordinate moved
off the tick by U(-j, j), j = 10^-(9 + seed % 7), all drawn from
numpy's default_rng(seed) (the tests' _near_tick_grid). Such points are
nearly cospherical: Qhull's cells often fail the certificate, and then the
exact builder decides, so these 600 runs exercise it on the data of the
paper's financial application, which no benchmark workload does.

Prints one JSON line: the runs by outcome (the backend that answered, or
the refusal kind), the exact_fallbacks total of each backend, a SHA-256 over
every run's outcome in run order (backend, facets_created and cells, or
refusal kind and subset) and the wall time in seconds. Two trees that give
the same digest answer and refuse every run alike.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter

import numpy as np

from delo import GeneralPositionError, delaunay

SHAPES = ((6, 6), (3, 3, 3), (2, 2, 2, 2))
SEEDS = range(100)
INSERTION_SEEDS = (0, 1)


def near_tick_grid(shape: tuple[int, ...], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    origin = np.round(rng.uniform(10.0, 11.0, len(shape)), 2)
    axes = [np.round(origin[d] + 0.25 * np.arange(m), 2) for d, m in enumerate(shape)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(shape))
    jitter = 10.0 ** -(9 + seed % 7)
    return grid + rng.uniform(-jitter, jitter, grid.shape)


def main() -> None:
    outcomes, exact = Counter(), Counter()
    digest = hashlib.sha256()
    start = time.perf_counter()
    for shape in SHAPES:
        for seed in SEEDS:
            pts = near_tick_grid(shape, seed)
            for insertion_seed in INSERTION_SEEDS:
                try:
                    g = delaunay(pts, insertion_seed=insertion_seed)
                except GeneralPositionError as err:
                    run = ["refused", err.kind, list(err.subset)]
                else:
                    exact[g.stats.backend] += g.stats.exact_fallbacks
                    run = [g.stats.backend, g.stats.facets_created, g.cells.tolist()]
                outcomes[run[1] if run[0] == "refused" else run[0]] += 1
                digest.update((json.dumps(run) + "\n").encode())
    print(json.dumps({
        "runs": sum(outcomes.values()),
        "outcomes": dict(sorted(outcomes.items())),
        "exact_fallbacks": dict(sorted(exact.items())),
        "sha256": digest.hexdigest(),
        "wall_s": round(time.perf_counter() - start, 2),
    }, sort_keys=True))


if __name__ == "__main__":
    main()
