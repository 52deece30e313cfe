"""Exception types and value checks shared across the package."""


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


def _number(value, what: str) -> float:
    """float(value) for a JSON integer or float in double range; what names any other value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{what} must be a number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"{what} must be a number in double range, got {_shown(value)}") from None


def _string(value, what: str) -> str:
    """value if it is a JSON string; what names any other value."""
    if not isinstance(value, str):
        raise ConfigurationError(f"{what} must be a string, got {_shown(value)}")
    return value
