"""Strict parsing of settings from outside the program: JSON configuration
sections and the ``VOLFORMER_THREADS`` thread cap. Loads no numeric library,
so the package import and ``volformer.cli`` use it before numpy loads."""

from __future__ import annotations

import os
from dataclasses import fields, replace

from .errors import ConfigError


def cap_threads(cap: str | None = None) -> None:
    """Cap BLAS/OpenMP threads at ``cap``, else at ``VOLFORMER_THREADS``, by
    writing the cap to that variable and the BLAS/OpenMP ones, which child
    processes inherit. It acts only if numpy is not yet imported. Raises
    ConfigError unless the cap is a positive integer.
    """
    cap = cap or os.environ.get("VOLFORMER_THREADS")
    if not cap:
        return
    try:
        if int(cap) < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"VOLFORMER_THREADS must be a positive integer, got {cap!r}") from None
    for var in ("VOLFORMER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = cap


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _lists(value):
    return [_lists(v) for v in value] if isinstance(value, tuple) else value


def to_config_dict(obj) -> dict:
    """JSON-ready fields of dataclass ``obj``, tuples as lists."""
    return {f.name: _lists(getattr(obj, f.name)) for f in fields(obj)}


def from_config_dict(cls, doc, what: str, base=None):
    """Build and validate dataclass ``cls`` from a JSON object: unknown keys are
    rejected, lists become tuples, missing keys keep ``base``'s (or ``cls()``'s)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be an object, got {type(doc).__name__}")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    try:
        obj = replace(cls() if base is None else base,
                      **{k: _tuples(v) for k, v in doc.items()})
    except TypeError as err:
        raise ConfigError(str(err)) from None
    obj.validate()
    return obj
