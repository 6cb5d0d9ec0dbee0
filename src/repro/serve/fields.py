"""One typed field table for scenario documents.

Every scenario block (:class:`~repro.serve.scenario.Scenario`, its
tenants, ``batch``, ``overheads``, ``telemetry``, ``routing`` and
``autoscale``) is a frozen dataclass deriving from :class:`Block` that
states each field once — name, annotation, default and rules::

    max_requests: int = spec(4, min=1)
    window_seconds: float = spec(2.0, min=0)
    mode: str = spec("greedy", choices=("greedy", "slo"))

The annotation is the JSON type:

* ``int`` takes JSON integers only (not ``true``, not ``1.5``);
* ``float`` takes an integer or a real number, stored as ``float``,
  never a bool or a string, and never NaN or ±inf;
* ``bool`` takes ``true`` / ``false`` and ``str`` a string;
* a :class:`Block` subclass takes an object without unknown keys;
* ``Tuple[X, ...]`` takes a list and ``Dict[str, X]`` an object of X.

A field whose default is None also takes ``null`` (and is not written
back).  ``spec`` rules:

* ``min`` / ``gt`` / ``max`` / ``lt`` bound a number (``>=`` / ``>`` /
  ``<=`` / ``<``);
* ``choices`` lists the allowed strings;
* ``nonempty`` forbids an empty list or object;
* ``at`` places the field inside a sub-object of the block (a tenant's
  ``arrival``);
* ``free`` keeps an object whose vocabulary the owning block checks, as
  sorted ``(key, value)`` pairs with lists made tuples.  With ``at`` it
  takes the sub-object's remaining keys, so it is declared after the
  named ones;
* ``omit_default`` leaves the field out of :meth:`Block.to_dict` while
  it holds its default.

:func:`read_block` builds a block from parsed JSON and
:meth:`Block.to_dict` writes it back; direct construction runs the same
bound and choice checks.  Every failure is one :class:`ValueError`
naming the field path, e.g. ``tenants[0].arrival.rate_rps``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import re
import typing

__all__ = ["Block", "check", "read", "read_block", "spec"]


def spec(default=dataclasses.MISSING, **rules):
    """A dataclass field carrying its schema ``rules`` as metadata."""
    return dataclasses.field(default=default, metadata=rules)


def _join(path, key):
    return f"{path}.{key}" if path else str(key)


#: bound rules: comparison that must hold, and how a message states it
_BOUNDS = {"gt": (operator.gt, "> {}"), "min": (operator.ge, ">= {}"),
           "max": (operator.le, "<= {}"), "lt": (operator.lt, "< {}")}


def _describe(kind, bounds):
    parts = ["positive" if (op, bound) == ("gt", 0)
             else _BOUNDS[op][1].format(bound) for op, bound in bounds]
    if kind is float and not {"max", "lt"} & {op for op, _ in bounds}:
        parts.append("finite")
    text = " and ".join(parts)
    if kind is int:
        return "a positive integer" if text == "positive" \
            else f"an integer {text}"
    return text


def check(value, kind, path, rules):
    """Bound, choice and emptiness rules on an already-typed value."""
    choices = rules.get("choices")
    if choices is not None and value not in choices:
        noun = re.split(r"[\]\s]", path)[-1].lstrip(".").replace(".", " ")
        raise ValueError(f"{path}: unknown {noun} {value!r}; choose from "
                         f"{', '.join(choices)}")
    if rules.get("nonempty") and not value:
        raise ValueError(f"{path} must not be empty")
    bounds = [(op, rules[op]) for op in _BOUNDS if op in rules]
    if (kind is float and not math.isfinite(value)) or not all(
            _BOUNDS[op][0](value, bound) for op, bound in bounds):
        raise ValueError(f"{path} must be {_describe(kind, bounds)}, "
                         f"got {value!r}")


def _object(value, path):
    if not isinstance(value, dict):
        raise ValueError(f"{path} must be a JSON object, got {value!r}")
    return value


def _free(value, path):
    return tuple(sorted(
        (key, tuple(item) if isinstance(item, list) else item)
        for key, item in _object(value, path).items()))


#: JSON type names and the Python types each scalar kind accepts
_SCALARS = {bool: ("true or false", bool), str: ("a string", str),
            int: ("an integer", int), float: ("a number", (int, float))}


def read(value, kind, path, **rules):
    """``value`` checked as ``kind`` under ``rules``; the stored value."""
    if rules.get("free"):
        return _free(value, path)
    origin = typing.get_origin(kind)
    if kind in _SCALARS:
        expected, accepted = _SCALARS[kind]
        if (isinstance(value, bool) != (kind is bool)
                or not isinstance(value, accepted)):
            raise ValueError(f"{path} must be {expected}, got {value!r}")
        if kind is float:
            try:
                value = float(value)
            except OverflowError:  # a JSON integer beyond float range
                value = math.inf if value > 0 else -math.inf
    elif origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path} must be a list, got {value!r}")
        item = typing.get_args(kind)[0]
        value = tuple(read(v, item, f"{path}[{i}]")
                      for i, v in enumerate(value))
    elif origin is dict:
        item = typing.get_args(kind)[1]
        value = {key: read(v, item, _join(path, key))
                 for key, v in _object(value, path).items()}
    else:
        return read_block(kind, value, path)
    check(value, kind, path, rules)
    return value


@functools.lru_cache(maxsize=None)
def _table(cls):
    """``(name, kind, rules, default)`` rows in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.metadata,
         f.default_factory() if f.default_factory is not dataclasses.MISSING
         else f.default)
        for f in dataclasses.fields(cls))


def read_block(cls, data, path=""):
    """Build block ``cls`` from a parsed JSON object at ``path``."""
    data = _object(data, path or "scenario")
    table = _table(cls)
    known = {rules.get("at", name) for name, _, rules, _ in table}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown key(s) {', '.join(_join(path, k) for k in unknown)}; "
            f"{path or 'a scenario'} takes {', '.join(sorted(known))}")
    subs, kwargs = {}, {}
    for name, kind, rules, default in table:
        source, where = data, _join(path, name)
        at = rules.get("at")
        if at is not None:
            if at not in subs:
                subs[at] = dict(_object(data.get(at, {}), _join(path, at)))
            source, where = subs[at], _join(_join(path, at), name)
            if rules.get("free"):
                kwargs[name] = _free(source, where)
                continue
        if name not in source:
            if default is dataclasses.MISSING:
                raise ValueError(f"{where} is required")
            continue
        value = source.pop(name) if at is not None else source[name]
        kwargs[name] = (None if value is None and default is None
                        else read(value, kind, where, **rules))
    return cls(**kwargs)


def _plain(value):
    if isinstance(value, Block):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    return value


class Block:
    """Base of scenario blocks: checks and writes the field table.

    Subclasses are frozen dataclasses.  One that adds rules across
    fields defines ``__post_init__`` and calls this one first.
    """

    #: path prefix of direct-construction errors ("batch", "routing", ...)
    block_path = ""

    def __post_init__(self):
        for name, kind, rules, _ in _table(type(self)):
            value = getattr(self, name)
            if value is not None and not rules.get("free"):
                at = rules.get("at")
                where = _join(self.block_path, at) if at else self.block_path
                check(value, kind, _join(where, name), rules)

    def to_dict(self):
        doc = {}
        for name, _, rules, default in _table(type(self)):
            value = getattr(self, name)
            free, at = rules.get("free"), rules.get("at")
            if value is None or (free and not value) or (
                    rules.get("omit_default") and value == default):
                continue
            target = doc if at is None else doc.setdefault(at, {})
            value = _plain(dict(value) if free else value)
            if free and at is not None:
                target.update(value)
            else:
                target[name] = value
        return doc
