"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A scenario, schedule or scheme is malformed or not allowed here."""
