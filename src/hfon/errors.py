"""Exception types and value checks shared across the package."""


class ConfigurationError(ValueError):
    """A scenario, schedule or scheme is malformed or not allowed here."""


def _integer(value, key: str) -> int:
    """value if it is a JSON integer; a bool, a float (2.7 or 3.0) or a string names the key."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"key {key!r} must be an integer, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """float(value) for a JSON integer or float in double range; any other value names the key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"key {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"key {key!r} must be a number in double range, got {value!r}") from None


def _string(value, key: str) -> str:
    """value if it is a JSON string; any other value names the key."""
    if not isinstance(value, str):
        raise ConfigurationError(f"key {key!r} must be a string, got {value!r}")
    return value
