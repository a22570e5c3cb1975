"""Strict parsing of settings from outside the program: JSON configuration
sections and the ``VOLFORMER_THREADS`` thread cap. Loads no numeric library,
so the package import applies the cap before numpy loads."""

from __future__ import annotations

import functools
import json
import os
import typing
from dataclasses import fields, replace

from .errors import ConfigError


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads at ``VOLFORMER_THREADS`` by writing it to the
    BLAS/OpenMP variables, which child processes inherit. It acts only if
    numpy is not yet imported. Raises ConfigError unless the cap is a
    positive integer.
    """
    cap = os.environ.get("VOLFORMER_THREADS")
    if not cap:
        return
    try:
        if int(cap) < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"VOLFORMER_THREADS must be a positive integer, got {cap!r}") from None
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = cap


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


_hints = functools.cache(typing.get_type_hints)  # per section class


def _parse(value, hint):
    """A JSON value as its field's value: an object for a field typed as a
    section builds that section, and lists become tuples."""
    for t in (hint, *typing.get_args(hint)):
        if isinstance(t, type) and issubclass(t, Section) and value is not None:
            return t.from_dict(value)
    return _tuples(value)


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the declared type ``hint``: an int passes for a
    float, a bool only for a bool, and each tuple element and ``| None`` is
    checked."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if args:  # a union such as int | None
        return any(_conforms(value, a) for a in args)
    types = (int, float) if hint is float else hint
    return isinstance(value, types) and isinstance(value, bool) == (hint is bool)


def _plain(value):
    if isinstance(value, Section):
        return value.to_dict()
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


class Section:
    """JSON codec of a dataclass configuration section, which is checked when
    built, from JSON or Python alike; ``what`` names the section in errors."""

    what = "config section"

    def __post_init__(self):
        """Check every field against its declared type, then ``validate``."""
        hints = _hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, hints[f.name]):
                raise ConfigError(f"{self.what} field {f.name!r} must be {f.type}, "
                                  f"got {json.dumps(value, default=repr)}")
        self.validate()

    def validate(self) -> None:
        """Cross-field and range rules; raise ``ConfigError`` naming the field."""

    def to_dict(self) -> dict:
        """JSON-ready fields: nested sections as objects, tuples as lists."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc, base=None):
        """Build the section from a JSON object: unknown keys are rejected,
        a section field takes its own object, lists become tuples, and
        missing keys keep ``base``'s (or ``cls()``'s) values."""
        if not isinstance(doc, dict):
            raise ConfigError(f"{cls.what} must be an object, got {type(doc).__name__}")
        hints = _hints(cls)
        unknown = set(doc) - set(hints)
        if unknown:
            raise ConfigError(f"unknown {cls.what} keys: {sorted(unknown)}")
        values = {k: _parse(v, hints[k]) for k, v in doc.items()}
        return replace(cls() if base is None else base, **values)
