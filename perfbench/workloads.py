"""The benchmark's workloads.

Each workload makes its inputs from the seed, so the program only ever sees
generated inputs. ``run`` is one timed pass over those inputs through delo's
public API or its CLI, ``serialize`` turns a pass's output into the bytes
that must repeat across passes, and ``check`` judges the first pass's bytes
against a reference that does not come from the code being timed. Layer
functions are looked up on their modules at call time so that a traced pass
sees the tracer's wrappers.
"""

from __future__ import annotations

import json
import time
from itertools import combinations
from pathlib import Path

import numpy as np

import delo.cli as cli
import delo.geometry as geometry
import delo.oracle as oracle
import delo.outlyingness as outlyingness
import delo.simulation as simulation
import delo.triangulation as triangulation

from . import reference

# A second insertion order: an exact triangulation of points in general
# position does not depend on it, so agreement with it is a check that needs
# no outside reference.
ALT_INSERTION_SEED = 1

LOG_TOL = 1e-9  # |delta log score| allowed between delo and a reference


def reference_edges(coords: np.ndarray) -> set[tuple[int, int]]:
    """Qhull's edges where scipy imports, else delo under another insertion order."""
    if reference.qhull_available():
        return reference.qhull_edges(coords)
    return triangulation.delaunay(coords, insertion_seed=ALT_INSERTION_SEED).edge_set()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _write_csv(path: Path, coords: np.ndarray, header: str | None = None, index=False):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for i, row in enumerate(coords.tolist()):
            cells = ([str(i)] if index else []) + [repr(v) for v in row]
            fh.write(",".join(cells) + "\n")


class Workload:
    name = ""
    item = ""        # what one counted item is
    workers = 0      # replicate worker processes a pass starts
    items = 0        # items per pass

    def run(self):
        raise NotImplementedError

    def serialize(self, raw) -> bytes:
        raise NotImplementedError

    def check(self, data: bytes) -> int:
        """Number of items of one pass whose output is missing or wrong."""
        raise NotImplementedError

    def traced_extras(self, pass_wall_s: float) -> dict[str, float]:
        """Extra work and numbers for a traced pass (spans are open)."""
        return {}

    def triangulation_inputs(self) -> list[np.ndarray]:
        """The point sets a pass triangulates, for the Qhull yardstick."""
        raise NotImplementedError


class ShellD4(Workload):
    """The ROADMAP's headline experiment through the process pool."""

    name = "shell_d4"
    item = "replicate"
    workers = 2
    replicates = 6

    def __init__(self, seed: int, workdir: Path):
        self.cfg = simulation.SimulationConfig(dim=4, n_inliers=299,
                                               replicates=self.replicates, seed=seed)
        self.items = self.replicates

    def run(self):
        return simulation.run_relative_outlyingness_experiment(
            self.cfg, processes=self.workers, keep_ratios=True)

    def serialize(self, report) -> bytes:
        obj = report.to_dict()
        obj["replicate_ratios"] = report.replicate_ratios
        return json.dumps(obj, sort_keys=True).encode()

    def check(self, data: bytes) -> int:
        obj = json.loads(data)
        n = self.cfg.n_inliers
        ratios = obj.get("replicate_ratios") or []
        if (obj["failed_replicates"] or len(ratios) != self.replicates
                or obj["total_ratios"] != self.replicates * n):
            return self.items
        failed = 0
        wanted = []
        for rep, got in enumerate(ratios):
            pts = simulation.sample_shell(self.cfg, rep).coords
            radii = np.linalg.norm(pts[:n], axis=1)
            in_shell = (pts.shape == (n + 1, self.cfg.dim) and not pts[n].any()
                        and radii.min() >= self.cfg.r_lo * (1 - 1e-12)
                        and radii.max() <= self.cfg.r_hi * (1 + 1e-12))
            ls = reference.log_scores(pts, reference_edges(pts))
            want = np.exp(ls[:n] - ls[n])
            wanted.append(want)
            failed += not (in_shell and np.allclose(got, want, rtol=LOG_TOL, atol=0.0))
        if not np.isclose(obj["median_ratio"], np.median(np.concatenate(wanted)),
                          rtol=LOG_TOL, atol=0.0):
            return self.items
        return failed

    def traced_extras(self, pass_wall_s: float) -> dict[str, float]:
        # the same replicates serially, so each layer gets its own spans
        t0 = time.perf_counter()
        for rep in range(self.replicates):
            ps = simulation.sample_shell(self.cfg, rep)
            table = outlyingness.score(triangulation.delaunay(ps))
            outlyingness.relative_outlyingness(table, self.cfg.n_inliers)
        serial = time.perf_counter() - t0
        return {"simulation.parallel_efficiency": serial / (self.workers * pass_wall_s),
                "simulation.pool_overhead_s": pass_wall_s - serial / self.workers}

    def triangulation_inputs(self) -> list[np.ndarray]:
        return [simulation.sample_shell(self.cfg, rep).coords
                for rep in range(self.replicates)]


def _cli_output(rc: int, path: Path) -> bytes:
    return f"exit={rc}\n".encode() + (path.read_bytes() if path.exists() else b"")


class ScoreCsv2D(Workload):
    """`delo score` on a large heavy-tailed 2-D CSV, in one process."""

    name = "score_csv_2d"
    item = "row"
    rows = 20_000

    def __init__(self, seed: int, workdir: Path):
        self.coords = _rng(seed, 2).standard_t(3, size=(self.rows, 2))
        src = workdir / "t2d.csv"
        _write_csv(src, self.coords, header="t,x,y", index=True)
        self.out = workdir / "t2d.scores.csv"
        self.argv = ["score", str(src), "--header", "--columns", "x,y",
                     "--output", str(self.out)]
        self.items = self.rows

    def run(self):
        self.out.unlink(missing_ok=True)
        return cli.main(self.argv)

    def serialize(self, rc) -> bytes:
        return _cli_output(rc, self.out)

    def check(self, data: bytes) -> int:
        lines = data.decode().splitlines()
        if (lines[:3] != ["exit=0", "# schema=delo.scores.v1", "row,x0,x1,log_score,score"]
                or len(lines) != 3 + self.items):
            return self.items
        ls = reference.log_scores(self.coords, reference_edges(self.coords))
        failed = 0
        for i, line in enumerate(lines[3:]):
            row, x0, x1, log_score, sc = line.split(",")
            ok = (int(row) == i and float(x0) == self.coords[i, 0]
                  and float(x1) == self.coords[i, 1]
                  and abs(float(log_score) - ls[i]) <= LOG_TOL
                  and abs(np.log(float(sc)) - ls[i]) <= LOG_TOL)
            failed += not ok
        return failed

    def triangulation_inputs(self) -> list[np.ndarray]:
        return [self.coords]


class GridJitter(Workload):
    """`delo flag --jitter` on gridded (cospherical) 2-D and 3-D CSVs."""

    name = "grid_jitter"
    item = "row"
    shapes = ((50, 50), (8, 8, 8))
    # thresholds in grid steps, between clusters of grid scores
    alphas = (1.2, 1.5)

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 3)
        self.grids = []
        for g, (shape, alpha) in enumerate(zip(self.shapes, self.alphas)):
            # how often the float filter fails grows with |origin| / step, so
            # both stay in a narrow band: every seed does similar exact work
            step = 0.25
            origin = np.round(rng.uniform(10.0, 11.0, len(shape)), 2)
            axes = [np.round(origin[d] + step * np.arange(m), 2) for d, m in enumerate(shape)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(shape))
            coords = grid[rng.permutation(len(grid))]
            src = workdir / f"grid{g}.csv"
            out = workdir / f"grid{g}.flags.csv"
            _write_csv(src, coords)
            jitter_seed = int(rng.integers(2 ** 31))
            alpha = alpha * step
            argv = ["flag", str(src), "--jitter", "--jitter-seed", str(jitter_seed),
                    "--alpha", repr(alpha), "--output", str(out)]
            self.grids.append((coords, jitter_seed, alpha, argv, out))
        self.items = sum(len(c) for c, *_ in self.grids)

    def run(self):
        rcs = []
        for *_, argv, out in self.grids:
            out.unlink(missing_ok=True)
            rcs.append(cli.main(argv))
        return rcs

    def serialize(self, rcs) -> bytes:
        return b"".join(_cli_output(rc, out) for rc, (*_, out) in zip(rcs, self.grids))

    def check(self, data: bytes) -> int:
        blocks = data.decode().split("exit=")[1:]
        if len(blocks) != len(self.grids):
            return self.items
        return sum(self._check_grid(grid, block)
                   for grid, block in zip(self.grids, blocks))

    @staticmethod
    def _check_grid(grid, block: str) -> int:
        coords, jitter_seed, alpha, _, _ = grid
        n, dim = coords.shape
        lines = block.splitlines()
        header = "row," + ",".join(f"x{d}" for d in range(dim)) + ",score"
        if lines[:3] != ["0", "# schema=delo.flags.v1", header]:
            return n
        # the same jittered points, triangulated in another insertion order
        pts = geometry.jitter_points(coords, jitter_seed).coords
        graph = triangulation.delaunay(pts, insertion_seed=ALT_INSERTION_SEED)
        edges = graph.edge_set()
        if dim == 2:  # Euler: E = 3n - 3 - h and T = 2n - 2 - h
            h = reference.hull_vertex_count_2d(pts)
            if len(edges) != 3 * n - 3 - h or len(graph.simplices) != 2 * n - 2 - h:
                return n
        ls = reference.log_scores(pts, edges)
        flagged = {}
        for line in lines[3:-1]:
            row, *xs, sc = line.split(",")
            flagged[int(row)] = ([float(x) for x in xs], float(sc))
        if lines[-1] != f"# flagged={len(flagged)} total={n} alpha={alpha!r}":
            return n
        failed = 0
        log_alpha = np.log(alpha)
        for i in range(n):
            near_tie = abs(ls[i] - log_alpha) <= LOG_TOL
            if i in flagged:
                xs, sc = flagged[i]
                ok = (xs == pts[i].tolist() and abs(np.log(sc) - ls[i]) <= LOG_TOL
                      and (ls[i] >= log_alpha or near_tie))
            else:
                ok = ls[i] < log_alpha or near_tie
            failed += not ok
        return failed

    def triangulation_inputs(self) -> list[np.ndarray]:
        return [geometry.jitter_points(c, js).coords for c, js, *_ in self.grids]


class OracleAgreement(Workload):
    """Criterion-01 triple agreement: hull, brute force and LP witness."""

    name = "oracle_agreement"
    item = "point set"

    @staticmethod
    def sizes(k: int) -> list[int]:
        # midpoints of four equal strata of [k+2, 30]: every seed pays the same
        # brute-force cost, which grows like n^(k+2)
        lo, hi = k + 2, 30
        return [lo + round((hi - lo) * (2 * j + 1) / 8) for j in range(4)]

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 4)
        self.sets = [rng.uniform(-1.0, 1.0, size=(n, k))
                     for k in (2, 3, 4) for n in self.sizes(k)]
        self.items = len(self.sets)

    def run(self):
        out = []
        for pts in self.sets:
            hull = triangulation.delaunay(pts).edge_set()
            brute = oracle.delaunay_bruteforce(pts)
            witness = {(i, j) for i, j in combinations(range(len(pts)), 2)
                       if oracle.adjacent_witness(pts, i, j).adjacent}
            out.append((hull, brute, witness))
        return out

    def serialize(self, raw) -> bytes:
        return json.dumps([[sorted(e) for e in triple] for triple in raw]).encode()

    def check(self, data: bytes) -> int:
        triples = json.loads(data)
        if len(triples) != len(self.sets):
            return self.items
        failed = 0
        for pts, (hull, brute, witness) in zip(self.sets, triples):
            ok = hull == brute == witness
            if ok and reference.qhull_available():
                ok = {tuple(e) for e in hull} == reference.qhull_edges(pts)
            failed += not ok
        return failed

    def triangulation_inputs(self) -> list[np.ndarray]:
        return list(self.sets)


WORKLOADS = {w.name: w for w in (ShellD4, ScoreCsv2D, GridJitter, OracleAgreement)}
