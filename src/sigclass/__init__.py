"""Multi-sensor vehicle signature classification pipeline."""

__version__ = "0.1.0"
