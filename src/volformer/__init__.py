"""Volumetric classification with global attention and built-in localization.

Importing the package applies the ``VOLFORMER_THREADS`` thread cap before it
loads any numeric library, so the cap reaches BLAS (``config.cap_threads``)."""

from .config import cap_threads as _cap_threads
from .errors import ConfigError as _ConfigError

__version__ = "0.1.0"

try:
    _cap_threads()
except _ConfigError:
    pass  # volformer.cli.main reports it with exit code 2
