"""Exception hierarchy for the ``repro`` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library errors without also
swallowing programming mistakes such as ``TypeError``.
:func:`positive_finite` is the one check of voltage-like inputs, shared
by the local sweeps and the job specs that arrive from the wire.
"""

import math
import numbers


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An object was configured with inconsistent or out-of-range parameters."""


class ConvergenceError(ReproError):
    """A numerical solver failed to converge to the requested tolerance."""


class CalibrationError(ReproError):
    """A calibration routine could not reach its target within bounds."""


class SimulationError(ReproError):
    """A simulation produced an invalid or physically meaningless state."""


class DatasetError(ReproError):
    """A dataset could not be generated or loaded as requested."""


def positive_finite(what: str, value: object) -> float:
    """``value`` as a float, if it is a finite positive real number.

    Anything else — ``nan``, ``±inf``, zero, negatives, booleans and
    non-numbers — raises :class:`ConfigurationError` naming ``what``.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ConfigurationError(f"{what} must be a finite positive number, got {value!r}")
    return float(value)
