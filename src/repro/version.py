"""Package version, kept in sync with ``pyproject.toml``."""

__version__ = "1.9.0"
