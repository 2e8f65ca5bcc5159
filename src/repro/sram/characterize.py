"""Cached voltage-sweep characterization of a bitcell.

The circuit-to-system pipeline repeatedly needs, for each cell type and
each candidate supply voltage: failure probabilities (read access,
write, read disturb), access energies/powers, leakage and cycle time.
:func:`characterize_cell` runs the Monte-Carlo + power models across a
voltage grid once and caches the results in the shared
content-addressed :class:`~repro.runtime.ResultCache` (keyed by every
parameter that affects the numbers), so system-level experiments start
instantly after the first run.

Caching happens at up to three granularities: the whole table
(namespace ``cell``), each voltage point (namespace ``cellpoint``),
and — when sharding splits a point — each Monte-Carlo shard (namespace
``mcshard``).  Per-point entries survive changes to the *grid* —
characterizing a superset grid reuses every already-computed point —
and the Monte Carlo of the missing points runs as one job list across
a :class:`~repro.runtime.SweepExecutor` worker pool when ``jobs`` asks
for parallelism.

The cached table interpolates between grid points: probabilities in
log-space (they span decades), energies/powers in linear space.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import DEFAULT_SEED, resolve_seed
from repro.runtime import DEFAULT_BLOCK_SAMPLES, ResultCache, default_cache_dir
from repro.sram.area import bitcell_area
from repro.sram.bitcell import BitcellBase, make_cell
from repro.sram.montecarlo import MonteCarloAnalyzer
from repro.sram.power import cell_power
from repro.sram.read_path import BitlineModel, nominal_read_cycle
from repro.devices.technology import Technology, ptm22

__all__ = [
    "DEFAULT_VDD_GRID",
    "CellCharacterization",
    "CharacterizationPoint",
    "cell_analyzer",
    "cell_table",
    "characterize_cell",
    "default_cache_dir",
]

#: The paper's voltage range (0.65-0.95 V) plus one margin point below.
DEFAULT_VDD_GRID = (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)

#: Probability floor for log-space interpolation of zero estimates.
_P_FLOOR = 1e-15


@dataclass(frozen=True)
class CharacterizationPoint:
    """All per-cell figures at one supply voltage."""

    vdd: float
    p_read_access: float
    p_write: float
    p_read_disturb: float
    p_cell: float
    read_energy: float
    write_energy: float
    read_power: float
    write_power: float
    leakage_power: float
    cycle_time: float


@dataclass(frozen=True)
class CellCharacterization:
    """A voltage-indexed characterization table for one cell type."""

    cell_kind: str
    technology: str
    rows: int
    n_samples: int
    seed: int
    area: float
    points: tuple

    @property
    def vdd_grid(self) -> np.ndarray:
        return np.array([p.vdd for p in self.points])

    def _interp(self, vdd: float, attr: str, log_space: bool) -> float:
        grid = self.vdd_grid
        if not (grid[0] - 1e-9 <= vdd <= grid[-1] + 1e-9):
            raise ConfigurationError(
                f"vdd={vdd} outside characterized range "
                f"[{grid[0]}, {grid[-1]}] for {self.cell_kind}"
            )
        values = np.array([getattr(p, attr) for p in self.points], dtype=float)
        if log_space:
            logv = np.log(np.maximum(values, _P_FLOOR))
            out = float(np.exp(np.interp(vdd, grid, logv)))
            return 0.0 if out <= _P_FLOOR * 10 else out
        return float(np.interp(vdd, grid, values))

    def point_at(self, vdd: float) -> CharacterizationPoint:
        """Interpolated characterization at an arbitrary in-range voltage."""
        return CharacterizationPoint(
            vdd=float(vdd),
            p_read_access=self._interp(vdd, "p_read_access", log_space=True),
            p_write=self._interp(vdd, "p_write", log_space=True),
            p_read_disturb=self._interp(vdd, "p_read_disturb", log_space=True),
            p_cell=self._interp(vdd, "p_cell", log_space=True),
            read_energy=self._interp(vdd, "read_energy", log_space=False),
            write_energy=self._interp(vdd, "write_energy", log_space=False),
            read_power=self._interp(vdd, "read_power", log_space=False),
            write_power=self._interp(vdd, "write_power", log_space=False),
            leakage_power=self._interp(vdd, "leakage_power", log_space=False),
            cycle_time=self._interp(vdd, "cycle_time", log_space=False),
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable form (used by the shared result cache)."""
        payload = asdict(self)
        payload["points"] = [asdict(p) for p in self.points]
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CellCharacterization":
        payload = dict(payload)
        points = tuple(CharacterizationPoint(**p) for p in payload.pop("points"))
        return cls(points=points, **payload)

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CellCharacterization":
        return cls.from_payload(json.loads(text))


def cell_analyzer(
    technology: Technology,
    cell: BitcellBase,
    rows: int,
    n_samples: int,
    seed: int,
    read_cycle: Optional[float] = None,
    block_samples: Optional[int] = None,
    backend: Optional[str] = None,
) -> MonteCarloAnalyzer:
    """The resolved Monte-Carlo analyzer that characterizes ``cell``.

    The bitline is a ``rows``-row column sized for the cell's port, and
    ``read_cycle`` (the hybrid array passes the 6T budget, see
    :func:`repro.mem.tables.hybrid_read_cycle`) defaults to the cell's
    own nominal read cycle.  Everything that builds characterization
    tables uses this one construction, so their Monte-Carlo entries
    share store addresses.
    """
    bitline = BitlineModel(technology, rows=rows).for_cell(cell)
    budget = read_cycle if read_cycle is not None else nominal_read_cycle(
        cell, bitline=bitline
    )
    return MonteCarloAnalyzer(
        cell=cell, n_samples=n_samples, bitline=bitline,
        seed=resolve_seed(seed), read_cycle=budget,
        block_samples=(block_samples if block_samples is not None
                       else DEFAULT_BLOCK_SAMPLES),
        backend=backend,
    ).resolved()


def cell_table(
    analyzer: MonteCarloAnalyzer,
    technology: Technology,
    rows: int,
    points: Sequence[CharacterizationPoint],
) -> CellCharacterization:
    """Assemble the characterization table of ``analyzer``'s cell."""
    return CellCharacterization(
        cell_kind=analyzer.cell.kind,
        technology=technology.name,
        rows=rows,
        n_samples=analyzer.n_samples,
        seed=analyzer.seed,
        area=bitcell_area(analyzer.cell),
        points=tuple(points),
    )


def _point_from_rates(
    analyzer: MonteCarloAnalyzer, rows: int, vdd: float, rates
) -> CharacterizationPoint:
    """Combine already-computed failure rates with the power models."""
    power = cell_power(analyzer.cell, vdd, rows=rows, cols=rows)
    return CharacterizationPoint(
        vdd=float(vdd),
        p_read_access=rates.p_read_access,
        p_write=rates.p_write,
        p_read_disturb=rates.p_read_disturb,
        p_cell=rates.p_cell,
        read_energy=power.read_energy,
        write_energy=power.write_energy,
        read_power=power.read_power,
        write_power=power.write_power,
        leakage_power=power.leakage_power,
        cycle_time=power.cycle_time,
    )


def _point_payload(
    analyzer: MonteCarloAnalyzer, rows: int, vdd: float
) -> Dict[str, Any]:
    """Cache address of one characterization point (MC + power models)."""
    payload = analyzer.cache_payload(vdd)
    payload["rows"] = int(rows)
    payload["power_rev"] = 1  # bump to invalidate after power-model changes
    return payload


def characterize_cell(
    cell_kind: str = "6t",
    technology: Optional[Technology] = None,
    vdd_grid: Sequence[float] = DEFAULT_VDD_GRID,
    rows: int = 256,
    n_samples: int = 20000,
    seed: int = DEFAULT_SEED,
    read_cycle: Optional[float] = None,
    cell: Optional[BitcellBase] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    shards: Optional[int] = None,
    max_shard_samples: Optional[int] = None,
    block_samples: Optional[int] = None,
    backend: Optional[str] = None,
) -> CellCharacterization:
    """Characterize a cell over a voltage grid (cached, parallelizable).

    Parameters mirror :class:`~repro.sram.montecarlo.MonteCarloAnalyzer`;
    pass ``cell`` to characterize a custom-sized cell, otherwise the
    default-sized cell of ``cell_kind`` is used.  ``read_cycle`` lets the
    hybrid architecture impose the 6T timing budget on the 8T cell.
    ``jobs`` fans uncached work across a worker pool and ``cache``
    overrides the default shared result store.  When ``shards`` /
    ``max_shard_samples`` request sub-array sharding, each voltage
    point's Monte-Carlo population runs as several shard jobs (bounded
    per-shard memory, per-shard cache entries); the table is
    bit-identical for every (jobs, cache, shards) combination.
    ``block_samples`` sets the sharding granularity — unlike the execution knobs it is part of the
    population's statistical definition (it selects which child seed
    each sample draws from), so tables with different block sizes are
    different, equally valid populations and are cached separately.
    ``backend`` pins the margin-kernel backend (see
    :mod:`repro.kernels`) — another execution knob: backends are
    bit-identical and the default (canonical) ones share cache entries.
    """
    tech = technology or ptm22()
    the_cell = cell if cell is not None else make_cell(cell_kind, tech)
    if sorted(vdd_grid) != list(vdd_grid):
        raise ConfigurationError("vdd_grid must be sorted ascending")

    store = cache if cache is not None else ResultCache(
        cache_dir=cache_dir, enabled=use_cache
    )

    analyzer = cell_analyzer(
        tech, the_cell, rows, n_samples, seed,
        read_cycle=read_cycle, block_samples=block_samples, backend=backend,
    )

    from repro.kernels import payload_fields

    table_payload = {
        "technology": asdict(tech),
        "kind": the_cell.kind,
        "sizing": asdict(the_cell.sizing),
        "rows": int(rows),
        "n_samples": int(n_samples),
        "seed": analyzer.seed,
        "block_samples": analyzer.block_samples,
        "vdds": [float(v) for v in vdd_grid],
        "read_cycle": analyzer.read_cycle,
        "rev": 5,  # rev 5: block-decomposed sample streams (sharding)
    }
    # Empty for canonical (bit-identical) margin backends — see
    # MonteCarloAnalyzer.cache_payload.
    table_payload.update(payload_fields(backend))
    hit = store.get("cell", table_payload)
    if hit is not None:
        return CellCharacterization.from_payload(hit)

    # Serve individually-cached points, then run the Monte Carlo of the
    # misses as one job list; per-point entries make grid changes cheap
    # (a superset grid recomputes only the new voltages).
    points: Dict[int, CharacterizationPoint] = {}
    missing: List[Tuple[int, float]] = []
    for i, vdd in enumerate(vdd_grid):
        point_hit = store.get("cellpoint", _point_payload(analyzer, rows, vdd))
        if point_hit is not None:
            points[i] = CharacterizationPoint(**point_hit)
        else:
            missing.append((i, float(vdd)))

    from repro.distributed.jobs import sweep_failure_rates

    plan = analyzer.shard_plan(shards=shards, max_shard_samples=max_shard_samples)
    rates = sweep_failure_rates(
        analyzer, [v for _, v in missing], plan, store=store, jobs=jobs
    )
    for (i, vdd), point_rates in zip(missing, rates):
        points[i] = _point_from_rates(analyzer, rows, vdd, point_rates)
        store.put("cellpoint", _point_payload(analyzer, rows, vdd), asdict(points[i]))

    table = cell_table(analyzer, tech, rows, [points[i] for i in range(len(points))])
    store.put("cell", table_payload, table.to_payload())
    return table
