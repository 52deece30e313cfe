"""Exception types and value checks shared across the package."""

import math

import numpy as np


class ConfigurationError(ValueError):
    """A scenario, schedule or scheme is malformed or not allowed here."""


def _shown(value) -> str:
    """repr(value), cut to 60 characters and its length when longer; an int too long for repr by its size."""
    try:
        text = repr(value)
    except ValueError:  # an int past the interpreter's limit on digits in a string
        return f"an integer of {value.bit_length()} bits"
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def _integer(value, what: str, low: int | None = None) -> int:
    """value if it is an int, not a bool, and at least low; what names it, as "key 'n'" or "stride"."""
    if isinstance(value, bool) or not isinstance(value, int) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ConfigurationError(f"{what} must be an integer{bound}, got {_shown(value)}")
    return value


# the ranges a number may be asked to lie in, each on top of being finite
_RANGES = {"": lambda x: True, ">= 0": lambda x: x >= 0.0, "> 0": lambda x: x > 0.0,
           "in [0, 1]": lambda x: 0.0 <= x <= 1.0, "in (0, 1)": lambda x: 0.0 < x < 1.0}


def _number(value, what: str, within: str = "") -> float:
    """float(value) for an int, float or numpy integer or floating scalar, not a bool, that is finite
    and in the range within names, a key of _RANGES; what names the value, as "key 'd'" or "--gap"."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{what} must be a number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigurationError(f"{what} must be a number in double range, got {_shown(value)}") from None
    if not (math.isfinite(number) and _RANGES[within](number)):
        raise ConfigurationError(f"{what} must be finite{within and ' and ' + within}, got {_shown(value)}")
    return number


def _string(value, what: str) -> str:
    """value if it is a JSON string; what names any other value."""
    if not isinstance(value, str):
        raise ConfigurationError(f"{what} must be a string, got {_shown(value)}")
    return value
