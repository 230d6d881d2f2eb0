"""Scenario config: a JSON document read through one table of fields.

Each field is one row of the table (_CONFIG): its key, its kind and its
default, which is read as a given value would be.  Every refusal is a
ConfigError whose message starts with the field's path.  The rules:

- Unknown keys are refused.  The network's access_mu, egress_xi and
  routing are required; an absent traffic param keeps VideoUserParams'
  default.
- Quantities accept suffixed literals ("11.33 Mb/s", "25 GB", "45 min");
  bare numbers mean bits, bits/second and seconds.  Counts and plain
  numbers (alpha, the routing entries, the burst sizes, the session
  probabilities, the sweep's intensities) are JSON numbers, not strings.
- Every number is finite and never a boolean.  Rates, sizes, durations
  and plain numbers are > 0; q0, warmup, priority_rates, the routing
  entries, burst_size_dispersion and the session table are >= 0; the
  sweep's intensities are in (0, 1).  Counts (users, seeds,
  users_per_flow) are whole and >= 0, workers whole and >= 1, and every
  packet_size whole bits > 0: a fraction is refused, not truncated.
- Null is refused, except where a field's None has a meaning: queue.mu,
  alpha (whose "auto" is None too) and capacity, network.core's mu and
  capacity, and network.flows.target_rate.
- The list fields (sweep.rho_targets, the network's access_mu, egress_xi,
  routing and its rows, priority_rates, and the session table and its
  [duration, probability] pairs) are JSON arrays.
"""

import json

from .series import ParameterError
from .traffic import VideoUserParams
from .units import UnitError, parse_duration, parse_rate, parse_size

_INF = float("inf")
_REQUIRED, _OMIT = object(), object()   # defaults: must be given; left out
_BOUNDS = {"> 0": lambda x: x > 0, ">= 0": lambda x: x >= 0,
           ">= 1": lambda x: x >= 1, "in (0, 1)": lambda x: 0 < x < 1}


class ConfigError(ValueError):
    """Schema violation; the message carries the field path."""


class _Number:
    """A finite JSON number, or with ``parse`` a quantity literal too, that
    is whole if ``whole`` and within ``bound``, a key of _BOUNDS.  ``null``
    is the refusal of null.  A value out of bounds is refused as not the
    ``noun`` where the noun states the bound (``noun_bounds``)."""

    def __init__(self, noun, parse=None, whole=False, bound="> 0",
                 null="must not be null", noun_bounds=False):
        self.noun, self.parse, self.whole = noun, parse, whole
        self.bound, self.null, self.noun_bounds = bound, null, noun_bounds

    def read(self, value, path):
        if value is None:
            raise ConfigError(f"{path}: {self.null}")
        if isinstance(value, bool) or not (
                isinstance(value, (int, float))
                or isinstance(value, str) and self.parse):
            raise self._expected(value, path)
        if self.whole and isinstance(value, int):
            x = value           # exact, at any size
        else:
            try:
                x = (self.parse or float)(value)
            except (UnitError, OverflowError) as exc:
                raise ConfigError(f"{path}: {exc}") from None
            if not (-_INF < x < _INF and (x.is_integer() or not self.whole)):
                raise self._expected(value, path)
        if not _BOUNDS[self.bound](x):
            if self.noun_bounds:
                raise self._expected(value, path)
            raise ConfigError(f"{path}: must be {self.bound}")
        return int(x) if self.whole else x

    def _expected(self, value, path):
        return ConfigError(f"{path}: expected {self.noun}, got "
                           f"{json.dumps(value)}")


class _Or:
    """``kind``, or one of ``words``, each of which means None."""

    def __init__(self, kind, *words):
        self.kind, self.words = kind, words

    def read(self, value, path):
        return None if value in self.words else self.kind.read(value, path)


class _Array:
    """A JSON array of ``item``s, or, for a tuple of kinds, of one item of
    each.  An item that is an array is read at path[i], any other at the
    array's path."""

    def __init__(self, item):
        self.item = item

    def read(self, value, path):
        fixed = isinstance(self.item, tuple)
        if not isinstance(value, list) or fixed and len(value) != len(
                self.item):
            size = f" of {len(self.item)}" if fixed else ""
            raise ConfigError(f"{path}: expected a JSON array{size}, got "
                              f"{json.dumps(value)}")
        kinds = self.item if fixed else (self.item,) * len(value)
        return [k.read(v, f"{path}[{i}]" if isinstance(k, _Array) else path)
                for i, (k, v) in enumerate(zip(kinds, value))]


class _Table:
    """A JSON object of the fields ``rows``, each (key, kind, default) or
    (key, kind, default, name), made into ``make(**{name: value})``.  A
    None default is the value itself; a row named None adds the fields of
    its table to this one."""

    def __init__(self, rows, make=dict):
        self.rows = [(*row, row[0])[:4] for row in rows]
        self.keys, self.make = {row[0] for row in rows}, make

    def read(self, value, path):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        for key in value:
            if key not in self.keys:
                raise ConfigError(f"{path}.{key}: unknown key")
        fields = {}
        for key, kind, default, name in self.rows:
            if key in value:
                got = kind.read(value[key], f"{path}.{key}")
            elif default is _REQUIRED:
                raise ConfigError(f"{path}: missing required key '{key}'")
            elif default is None or default is _OMIT:
                got = default
            else:
                got = kind.read(default, f"{path}.{key}")
            if name is None:
                fields.update(got)
            elif got is not _OMIT:
                fields[name] = got
        try:
            return self.make(**fields)
        except ParameterError as exc:
            raise ConfigError(f"{path}: {exc}") from None


RATE, SIZE = _Number("a rate", parse_rate), _Number("a size", parse_size)
DURATION, REAL = _Number("a duration", parse_duration), _Number("a number")
RATE0 = _Number("a rate", parse_rate, bound=">= 0")
SIZE0 = _Number("a size", parse_size, bound=">= 0")
DURATION0 = _Number("a duration", parse_duration, bound=">= 0")
REAL0 = _Number("a number", bound=">= 0")
# a null count reads as below its bound
COUNT = _Number("a whole number", whole=True, bound=">= 0",
                null="must be >= 0")
WORKERS = _Number("a whole number", whole=True, bound=">= 1")
# whole bits, so that a bin's bits, its packet count times the size, are
# exact
BITS = _Number("a whole number of bits > 0", parse_size, whole=True,
               noun_bounds=True)

_PARAMS = _Table((
    ("packet_size", BITS, _OMIT, "packet_size_bits"),
    ("burst_size_mean", REAL, _OMIT),
    ("burst_size_dispersion", REAL0, _OMIT),
    ("interburst", DURATION, _OMIT, "interburst_mean_s"),
    ("interpacket", DURATION, _OMIT, "interpacket_mean_s"),
    ("interuse", DURATION, _OMIT, "interuse_mean_s"),
    ("sessions", _Array(_Array((DURATION0, REAL0))), _OMIT,
     "session_lengths"),
), VideoUserParams)

_CONFIG = _Table((
    ("traffic", _Table((
        ("users", COUNT, 10),
        ("horizon", DURATION, "48 h"),
        ("dt", DURATION, "60 s"),
        ("seed", COUNT, 0),
        ("params", _PARAMS, {}),
    )), {}),
    ("queue", _Table((
        ("mu", _Or(RATE, None), None),
        ("alpha", _Or(REAL, None, "auto"), "auto"),
        ("q0", SIZE0, 0.0),
        ("capacity", _Or(SIZE, None), None),
    )), {}),
    ("sweep", _Table((
        ("rho_targets", _Array(_Number("a number", bound="in (0, 1)")),
         [0.45, 0.55, 0.65, 0.75, 0.85]),
    )), {}),
    ("network", _Table((
        ("access_mu", _Array(RATE), _REQUIRED),
        ("core", _Table((
            ("mu", _Or(RATE, None), None, "core_mu"),
            ("capacity", _Or(SIZE, None), None, "core_k"),
        )), {}, None),
        ("egress_xi", _Array(RATE), _REQUIRED),
        ("routing", _Array(_Array(REAL0)), _REQUIRED),
        ("packet_size", BITS, 1464 * 8),
        ("priority_rates", _Array(RATE0), []),
        ("flows", _Table((
            ("users_per_flow", COUNT, 10),
            ("target_rate", _Or(RATE, None), None),
            ("horizon", DURATION, "1 d"),
            ("dt", DURATION, "60 s"),
            ("seed", COUNT, 0),
            ("warmup", DURATION0, 0.0),
            ("params", _PARAMS, {}),
        )), {}),
    )), None),
    ("workers", WORKERS, 1),
))


def load_config(path):
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from None
    return parse_config(raw)


def parse_config(raw):
    return _CONFIG.read(raw, "config")
