"""Mean-shifted importance sampling for rare bitcell failures.

Plain Monte Carlo cannot resolve failure probabilities far below
``1 / n_samples``; the library's default answer is the Gaussian tail fit
(:mod:`repro.sram.montecarlo`).  This module provides the standard
*unbiased* alternative from the SRAM yield literature: sample ΔVT from a
Gaussian shifted toward the failure region and reweight each sample by
the likelihood ratio.

The shift direction is the margin's steepest-descent direction in
sigma-normalized ΔVT space (estimated by finite differences at the
nominal point — the first-order approximation of the "most probable
failure point"), and the shift magnitude is chosen so the *mean* shifted
sample sits on the failure boundary (margin ~ 0), which is where the
estimator's variance is near-minimal.

Used by the tail-estimator ablation and available to users who want
confidence in deep-tail numbers (e.g. nominal-voltage failure rates for
yield statements).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, ensure_rng
from repro.runtime import CacheLike
from repro.sram.bitcell import BitcellBase
from repro.sram.failures import FailureType, compute_failure_margins
from repro.sram.read_path import BitlineModel, nominal_read_cycle


@dataclass(frozen=True)
class ImportanceSamplingResult:
    """Outcome of one importance-sampled failure estimation."""

    vdd: float
    failure_type: FailureType
    probability: float
    relative_error: float
    n_samples: int
    shift_sigmas: np.ndarray

    def summary(self) -> str:
        return (
            f"{self.failure_type.value} @ {self.vdd:.3f} V: "
            f"p = {self.probability:.3e} "
            f"(rel. err. {100 * self.relative_error:.1f}%, "
            f"{self.n_samples} samples)"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (used by the shared result cache)."""
        return {
            "vdd": self.vdd,
            "failure_type": self.failure_type.value,
            "probability": self.probability,
            "relative_error": self.relative_error,
            "n_samples": self.n_samples,
            "shift_sigmas": np.asarray(self.shift_sigmas).tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ImportanceSamplingResult":
        return cls(
            vdd=float(payload["vdd"]),
            failure_type=FailureType(payload["failure_type"]),
            probability=float(payload["probability"]),
            relative_error=float(payload["relative_error"]),
            n_samples=int(payload["n_samples"]),
            shift_sigmas=np.asarray(payload["shift_sigmas"], dtype=float),
        )


class ImportanceSampler:
    """Importance-sampled estimator of one cell's failure probabilities."""

    def __init__(
        self,
        cell: BitcellBase,
        bitline: Optional[BitlineModel] = None,
        read_cycle: Optional[float] = None,
        backend: Optional[str] = None,
    ):
        self.cell = cell
        self.bitline = bitline or BitlineModel(cell.technology).for_cell(cell)
        self.read_cycle = (
            read_cycle if read_cycle is not None
            else nominal_read_cycle(cell, bitline=self.bitline)
        )
        #: Margin-kernel backend (``None`` = session default; see
        #: :mod:`repro.kernels`).  Pure execution knob: backends are
        #: bit-identical, estimates cannot change.
        self.backend = backend
        self._sigmas = cell.variation_model().sigmas

    # ------------------------------------------------------------------
    def _margin(self, vdd: float, dvt: np.ndarray, ftype: FailureType) -> np.ndarray:
        margins = compute_failure_margins(
            self.cell, vdd, dvt, bitline=self.bitline,
            read_cycle=self.read_cycle, backend=self.backend,
        )
        m = margins.margin(ftype)
        if m is None:
            raise ConfigurationError(
                f"{self.cell.kind} cell has no {ftype.value} mechanism"
            )
        return np.asarray(m)

    def _descent_direction(self, vdd: float, ftype: FailureType) -> np.ndarray:
        """Unit steepest-descent direction of the margin in sigma space."""
        n = len(self._sigmas)
        grad = np.zeros(n)
        base = float(self._margin(vdd, np.zeros((1, n)), ftype)[0])
        step = 0.1  # sigma units; margins are smooth at this scale
        for j in range(n):
            probe = np.zeros((1, n))
            probe[0, j] = step * self._sigmas[j]
            grad[j] = (float(self._margin(vdd, probe, ftype)[0]) - base) / step
        norm = np.linalg.norm(grad)
        if norm == 0:
            raise ConfigurationError(
                f"margin insensitive to every device at {vdd} V; "
                "cannot choose a shift direction"
            )
        return -grad / norm  # toward decreasing margin

    def _boundary_scale(
        self, vdd: float, ftype: FailureType, direction: np.ndarray,
        max_sigma: float = 12.0,
    ) -> float:
        """Sigma-multiple along ``direction`` where the margin crosses 0."""
        def margin_at(t: float) -> float:
            dvt = (t * direction * self._sigmas)[np.newaxis, :]
            return float(self._margin(vdd, dvt, ftype)[0])

        lo, hi = 0.0, max_sigma
        if margin_at(hi) > 0:
            # Failure region unreachable within max_sigma: probability is
            # effectively zero at any meaningful precision.
            return np.inf
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if margin_at(mid) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # ------------------------------------------------------------------
    def estimate(
        self,
        vdd: float,
        failure_type: FailureType = FailureType.READ_ACCESS,
        n_samples: int = 20000,
        seed: SeedLike = None,
        max_shift_sigma: float = 12.0,
    ) -> ImportanceSamplingResult:
        """Unbiased failure-probability estimate with likelihood weights.

        ``max_shift_sigma`` bounds the search for the failure boundary;
        if the margin never goes negative within that many sigma along
        the steepest-descent direction, the probability is reported as
        an exact 0 (it is below any precision the caller could care
        about: 12 sigma is ~2e-33).
        """
        if n_samples < 100:
            raise ConfigurationError(f"n_samples too small: {n_samples}")

        direction = self._descent_direction(vdd, failure_type)
        t_star = self._boundary_scale(vdd, failure_type, direction,
                                      max_sigma=max_shift_sigma)
        if not np.isfinite(t_star):
            return ImportanceSamplingResult(
                vdd=float(vdd), failure_type=failure_type, probability=0.0,
                relative_error=0.0, n_samples=n_samples,
                shift_sigmas=direction * 0.0,
            )

        shift_sigmas = t_star * direction            # in sigma units
        mu = shift_sigmas * self._sigmas             # in volts

        rng = ensure_rng(seed)
        unit = rng.standard_normal((n_samples, len(self._sigmas)))
        dvt = unit * self._sigmas + mu

        margins = self._margin(vdd, dvt, failure_type)
        fails = ~(margins > 0.0)

        # Likelihood ratio pdf0/pdf_mu in log space, summed over devices.
        z = dvt / self._sigmas
        s = shift_sigmas
        log_w = np.sum(s * s / 2.0 - z * s, axis=1)
        weights = np.exp(log_w)

        contrib = weights * fails
        p_hat = float(np.mean(contrib))
        std = float(np.std(contrib, ddof=1)) / np.sqrt(n_samples)
        rel_err = std / p_hat if p_hat > 0 else 0.0

        return ImportanceSamplingResult(
            vdd=float(vdd),
            failure_type=failure_type,
            probability=p_hat,
            relative_error=rel_err,
            n_samples=n_samples,
            shift_sigmas=shift_sigmas,
        )

    # ------------------------------------------------------------------
    def point_payload(
        self, vdd: float, failure_type: FailureType, n_samples: int,
        seed: int, max_shift_sigma: float,
    ) -> Dict[str, Any]:
        """Cache address of one importance-sampled estimate.

        Also the wire spec of a distributed ``is_shard`` job
        (:func:`repro.distributed.jobs.is_shard_jobs`) — the spec *is*
        the address, so fleets and local sweeps dedupe each other.
        """
        from repro.kernels import payload_fields

        payload = {
            "technology": asdict(self.cell.technology),
            "kind": self.cell.kind,
            "sizing": asdict(self.cell.sizing),
            "bitline": {
                "rows": self.bitline.rows,
                "port_width": self.bitline.port_width,
            },
            "read_cycle": self.read_cycle,
            "failure_type": failure_type.value,
            "n_samples": int(n_samples),
            "seed": int(seed),
            "max_shift_sigma": float(max_shift_sigma),
            "vdd": float(vdd),
            "rev": 1,  # bump to invalidate cached IS results
        }
        # Empty for canonical (bit-identical) backends — see
        # MonteCarloAnalyzer.cache_payload.
        payload.update(payload_fields(self.backend))
        return payload

    def estimate_sweep(
        self,
        vdds: Sequence[float],
        failure_type: FailureType = FailureType.READ_ACCESS,
        n_samples: int = 20000,
        seed: SeedLike = None,
        max_shift_sigma: float = 12.0,
        jobs: Optional[int] = None,
        cache: Optional[CacheLike] = None,
        dispatcher: Optional[Any] = None,
    ) -> List[ImportanceSamplingResult]:
        """Importance-sampled estimates across a voltage sweep.

        The sweep is one ``is_shard`` job per voltage
        (:func:`~repro.distributed.jobs.is_shard_jobs`).  Each point
        derives its own seed from the (once-resolved) base seed and the
        voltage, so the sweep is bit-identical for any ``jobs`` count.
        The jobs run on a ``jobs``-worker pool
        (:func:`~repro.distributed.jobs.run_jobs`): cached points skip
        recomputation entirely, and each computed point is cached (the
        ``is`` namespace) as soon as it completes.

        ``dispatcher`` (a started
        :class:`~repro.distributed.dispatcher.ShardDispatcher`) farms
        the same jobs to a worker fleet instead — an execution knob like
        ``jobs``: the numbers cannot change, and the fleet reads/writes
        the same ``is`` store addresses a cached local sweep uses.
        """
        from repro.distributed.jobs import is_shard_jobs, job_runner

        if len(vdds) == 0:
            return []
        return job_runner(dispatcher, store=cache, jobs=jobs)(
            is_shard_jobs(
                self, [float(v) for v in vdds],
                failure_type=failure_type, n_samples=n_samples,
                seed=seed, max_shift_sigma=max_shift_sigma,
            ),
            decode=ImportanceSamplingResult.from_dict,
        )
