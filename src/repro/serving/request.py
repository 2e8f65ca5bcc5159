"""Request schema of the batch-serving front-end.

A serving request names one evaluation of the circuit-to-system
simulator: a memory configuration (``base`` / ``config1`` / ``config2``
with its MSB arguments), a supply voltage, a trial count and a fault
seed.  The canonical form produced by :meth:`EvalRequest.key_payload`
is the request half of every response-cache and single-flight key, so
two requests that would produce the same numbers — however they were
spelled on the wire — must canonicalize identically.  That is why
:meth:`EvalRequest.resolved` pins the ``None`` defaults (trial count,
seed) to their concrete values before any key is formed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, positive_finite
from repro.rng import DEFAULT_SEED

#: Configuration names understood by the serving layer, mirroring
#: :meth:`repro.core.framework.CircuitToSystemSimulator.memory_for`.
KNOWN_CONFIGS = ("base", "config1", "config2")

#: Wire fields accepted by :func:`EvalRequest.from_dict`; anything else
#: in a request object is rejected so typos fail loudly.
_WIRE_FIELDS = frozenset(
    {"id", "config", "vdd", "msb_in_8t", "msb_per_layer", "n_trials", "seed"}
)

#: Ceiling on a request's trial count.  Far above any study in the
#: library (the paper uses 3-5), and low enough that no single request
#: can monopolize the evaluator's worker thread; callers needing more
#: drive the simulator directly.
MAX_TRIALS = 1000


@dataclass(frozen=True)
class EvalRequest:
    """One evaluation request: ``configuration × VDD × seed``.

    ``request_id`` is a client echo token for matching responses on a
    multiplexed connection; it never enters cache or coalescing keys,
    so requests that differ only by id share one evaluation.
    ``n_trials=None``/``seed=None`` mean "the server's defaults" and
    are pinned by :meth:`resolved` before keying.
    """

    config: str
    vdd: float
    msb_in_8t: Optional[int] = None
    msb_per_layer: Optional[Tuple[int, ...]] = None
    n_trials: Optional[int] = None
    seed: Optional[int] = None
    request_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.config not in KNOWN_CONFIGS:
            raise ConfigurationError(
                f"unknown config {self.config!r}; known: {', '.join(KNOWN_CONFIGS)}"
            )
        object.__setattr__(self, "vdd", positive_finite("vdd", self.vdd))
        if self.msb_in_8t is not None:
            object.__setattr__(self, "msb_in_8t", _int_field("msb_in_8t", self.msb_in_8t))
        if self.msb_per_layer is not None:
            try:
                msbs = tuple(_int_field("msb_per_layer entry", m) for m in self.msb_per_layer)
            except TypeError:
                raise ConfigurationError(
                    f"msb_per_layer must be a sequence of ints, got "
                    f"{self.msb_per_layer!r}"
                ) from None
            object.__setattr__(self, "msb_per_layer", msbs)
        if self.n_trials is not None:
            n_trials = _int_field("n_trials", self.n_trials)
            if n_trials <= 0:
                raise ConfigurationError(f"n_trials must be positive, got {n_trials}")
            if n_trials > MAX_TRIALS:
                raise ConfigurationError(
                    f"n_trials must not exceed {MAX_TRIALS}, got {n_trials}"
                )
            object.__setattr__(self, "n_trials", n_trials)
        if self.seed is not None:
            seed = _int_field("seed", self.seed)
            # numpy's SeedSequence rejects negative entropy; catching it
            # here keeps a bad seed a per-request error instead of a
            # mid-batch failure.
            if seed < 0:
                raise ConfigurationError(f"seed must be non-negative, got {seed}")
            object.__setattr__(self, "seed", seed)
        # Configuration/argument pairing mirrors memory_for()'s rules.
        if self.config == "config1" and self.msb_in_8t is None:
            raise ConfigurationError("config 'config1' requires msb_in_8t")
        if self.config == "config2" and self.msb_per_layer is None:
            raise ConfigurationError("config 'config2' requires msb_per_layer")
        if self.config != "config1" and self.msb_in_8t is not None:
            raise ConfigurationError(f"config {self.config!r} takes no msb_in_8t")
        if self.config != "config2" and self.msb_per_layer is not None:
            raise ConfigurationError(f"config {self.config!r} takes no msb_per_layer")

    # ------------------------------------------------------------------
    def resolved(self, default_n_trials: int) -> "EvalRequest":
        """Pin ``None`` defaults so equal work canonicalizes equally.

        ``seed=None`` already means :data:`~repro.rng.DEFAULT_SEED` on
        the sequential path (see :func:`repro.rng.derive_seed`), so
        pinning it changes no numbers — it only stops ``seed: null``
        and ``seed: 20160227`` from occupying two cache entries.
        """
        return replace(
            self,
            n_trials=self.n_trials if self.n_trials is not None else int(default_n_trials),
            seed=self.seed if self.seed is not None else DEFAULT_SEED,
        )

    def key_payload(self) -> Dict[str, Any]:
        """Canonical JSON-able form of everything that affects the result.

        Excludes ``request_id`` (transport metadata) and must only be
        called on a :meth:`resolved` request, where no field is an
        implicit default.
        """
        if self.n_trials is None or self.seed is None:
            raise ConfigurationError(
                "key_payload() requires a resolved request (concrete "
                "n_trials and seed)"
            )
        return {
            "config": self.config,
            "vdd": self.vdd,
            "msb_in_8t": self.msb_in_8t,
            "msb_per_layer": (
                None if self.msb_per_layer is None else list(self.msb_per_layer)
            ),
            "n_trials": self.n_trials,
            "seed": self.seed,
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EvalRequest":
        """Parse one wire object, rejecting unknown fields."""
        unknown = sorted(set(payload) - _WIRE_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"unknown request fields: {', '.join(unknown)}"
            )
        if "config" not in payload or "vdd" not in payload:
            raise ConfigurationError("a request needs at least 'config' and 'vdd'")
        request_id = payload.get("id")
        if request_id is not None and not isinstance(request_id, str):
            raise ConfigurationError(f"id must be a string, got {request_id!r}")
        return cls(
            config=payload["config"],
            vdd=payload["vdd"],
            msb_in_8t=payload.get("msb_in_8t"),
            msb_per_layer=payload.get("msb_per_layer"),
            n_trials=payload.get("n_trials"),
            seed=payload.get("seed"),
            request_id=request_id,
        )

    @classmethod
    def from_json_line(cls, line: str) -> "EvalRequest":
        """Parse one JSON-lines request (see ``docs/serving.md``)."""
        return cls.from_dict(parse_object_line(line))


def parse_object_line(line: str) -> Dict[str, Any]:
    """One JSON line -> object, with protocol-grade error messages."""
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ConfigurationError(f"request is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"a request line must hold a JSON object, got {type(payload).__name__}"
        )
    return payload


def _int_field(name: str, value: Any) -> int:
    """Strict int coercion: bools and floats are wire mistakes, not ints."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)
