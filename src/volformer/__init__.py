"""Volumetric classification with global attention and built-in localization.

Importing the package loads no numeric library, so the thread cap below and
the one ``volformer.cli.main`` applies reach BLAS (``config.cap_threads``)."""

from .config import cap_threads as _cap_threads
from .errors import ConfigError as _ConfigError

__version__ = "0.1.0"

try:
    _cap_threads()
except _ConfigError:
    pass  # volformer.cli.main reports it with exit code 2
