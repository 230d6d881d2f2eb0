"""Scenario config: a JSON document validated section by section.

Unknown keys are rejected with the offending field path.  Quantities accept
suffixed literals ("11.33 Mb/s", "25 GB", "45 min"); bare numbers mean bits,
bits/second and seconds.  Null is refused, except where a field's None
has a meaning: queue.mu, alpha and capacity, network.core's mu and
capacity, and network.flows.target_rate.  Counts (users, seeds,
users_per_flow, workers) and every packet_size in bits are whole numbers:
a fraction or a boolean is refused, not truncated.  The list fields
(sweep.rho_targets, and the network's access_mu, egress_xi, routing and
its rows, priority_rates) are JSON arrays.
"""

import json

from .series import ParameterError
from .traffic import VideoUserParams
from .units import UnitError, parse_duration, parse_rate, parse_size


class ConfigError(ValueError):
    """Schema violation; the message carries the field path."""


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _get(obj, key, default, path, convert=None, nullable=False):
    """obj[key] (``default`` when absent) through ``convert``.  Null is
    refused unless ``nullable``, where it means the field's None."""
    value = obj.get(key, default)
    if value is None:
        if not nullable:
            raise ConfigError(f"{path}.{key}: must not be null")
        return None
    if convert is None:
        return value
    try:
        return convert(value)
    except (UnitError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from None


def _whole(value):
    """int(value) for a whole number; a boolean or a fraction is refused,
    not truncated."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"expected a whole number, got {json.dumps(value)}")
    return int(value)


def _packet_bits(value):
    """A packet size in whole bits > 0, so that a bin's bits, its packet
    count times the size, are exact: a fraction is refused, not
    truncated."""
    bits = parse_size(value)
    if isinstance(value, bool) or not (bits > 0 and bits.is_integer()):
        raise ValueError("expected a whole number of bits > 0, got "
                         f"{json.dumps(value)}")
    return int(bits)


def _array(value, field, convert=None):
    """The items of the JSON array ``value`` through ``convert``; anything
    else, a string among them, is refused, not read item by item."""
    if not isinstance(value, list):
        raise ConfigError(f"{field}: expected a JSON array, got "
                          f"{json.dumps(value)}")
    if convert is None:
        return value
    try:
        return [convert(v) for v in value]
    except (UnitError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _count(obj, key, default, path):
    """A whole number field that must not be negative (nor null)."""
    value = _get(obj, key, default, path, _whole, nullable=True)
    if value is None or value < 0:
        raise ConfigError(f"{path}.{key}: must be >= 0")
    return value


def _auto(convert):
    def inner(value):
        if value == "auto":
            return None
        return convert(value)
    return inner


def load_config(path):
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from None
    return parse_config(raw)


def parse_config(raw):
    _check_keys(raw, {"traffic", "queue", "sweep", "network", "workers"},
                "config")
    cfg = {
        "traffic": _parse_traffic(raw.get("traffic", {})),
        "queue": _parse_queue(raw.get("queue", {})),
        "sweep": _parse_sweep(raw.get("sweep", {})),
        "network": _parse_network(raw.get("network")) if "network" in raw else None,
        "workers": _get(raw, "workers", 1, "config", _whole),
    }
    if cfg["workers"] < 1:
        raise ConfigError("config.workers: must be >= 1")
    return cfg


def _parse_user_params(obj, path):
    _check_keys(obj, {"packet_size", "burst_size_mean", "burst_size_dispersion",
                      "interburst", "interpacket", "interuse", "sessions"},
                path)
    kwargs = {}
    if "packet_size" in obj:
        kwargs["packet_size_bits"] = _get(obj, "packet_size", None, path,
                                          _packet_bits)
    for key, name in (("burst_size_mean", "burst_size_mean"),
                      ("burst_size_dispersion", "burst_size_dispersion")):
        if key in obj:
            kwargs[name] = _get(obj, key, None, path, float)
    for key, name in (("interburst", "interburst_mean_s"),
                      ("interpacket", "interpacket_mean_s"),
                      ("interuse", "interuse_mean_s")):
        if key in obj:
            kwargs[name] = _get(obj, key, None, path, parse_duration)
    if "sessions" in obj:
        try:
            kwargs["session_lengths"] = tuple(
                (parse_duration(d), float(p)) for d, p in obj["sessions"])
        except (UnitError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.sessions: {exc}") from None
    try:
        return VideoUserParams(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_traffic(obj):
    path = "config.traffic"
    _check_keys(obj, {"users", "horizon", "dt", "seed", "params"}, path)
    return {
        "users": _count(obj, "users", 10, path),
        "horizon": _get(obj, "horizon", "48 h", path, parse_duration),
        "dt": _get(obj, "dt", "60 s", path, parse_duration),
        "seed": _count(obj, "seed", 0, path),
        "params": _parse_user_params(obj.get("params", {}), path + ".params"),
    }


def _parse_queue(obj):
    path = "config.queue"
    _check_keys(obj, {"mu", "alpha", "q0", "capacity"}, path)
    return {
        "mu": _get(obj, "mu", None, path, parse_rate, nullable=True),
        "alpha": _get(obj, "alpha", "auto", path, _auto(float),
                      nullable=True),
        "q0": _get(obj, "q0", 0.0, path, parse_size),
        "capacity": _get(obj, "capacity", None, path, parse_size,
                         nullable=True),
    }


def _parse_sweep(obj):
    path = "config.sweep"
    _check_keys(obj, {"rho_targets"}, path)
    targets = _array(obj.get("rho_targets", [0.45, 0.55, 0.65, 0.75, 0.85]),
                     path + ".rho_targets", float)
    if any(not 0.0 < v < 1.0 for v in targets):
        raise ConfigError(f"{path}.rho_targets: intensities must be in (0, 1)")
    return {"rho_targets": targets}


def _parse_network(obj):
    path = "config.network"
    _check_keys(obj, {"access_mu", "core", "egress_xi", "routing",
                      "packet_size", "flows", "priority_rates"}, path)
    core = obj.get("core", {})
    _check_keys(core, {"mu", "capacity"}, path + ".core")
    flows = obj.get("flows", {})
    _check_keys(flows, {"users_per_flow", "target_rate", "horizon", "dt",
                        "seed", "warmup", "params"},
                path + ".flows")
    for key in ("access_mu", "egress_xi", "routing"):
        if key not in obj:
            raise ConfigError(f"{path}: missing required key '{key}'")
    access_mu = _array(obj["access_mu"], path + ".access_mu", parse_rate)
    egress_xi = _array(obj["egress_xi"], path + ".egress_xi", parse_rate)
    routing = [_array(row, f"{path}.routing[{i}]", float) for i, row in
               enumerate(_array(obj["routing"], path + ".routing"))]
    priority = _array(obj.get("priority_rates", []),
                      path + ".priority_rates", parse_rate)
    return {
        "access_mu": access_mu,
        "core_mu": _get(core, "mu", None, path + ".core", parse_rate,
                        nullable=True),
        "core_k": _get(core, "capacity", None, path + ".core", parse_size,
                       nullable=True),
        "egress_xi": egress_xi,
        "routing": routing,
        "packet_size": _get(obj, "packet_size", 1464 * 8, path,
                            _packet_bits),
        "priority_rates": priority,
        "flows": {
            "users_per_flow": _count(flows, "users_per_flow", 10,
                                     path + ".flows"),
            "target_rate": _get(flows, "target_rate", None, path + ".flows",
                                parse_rate, nullable=True),
            "horizon": _get(flows, "horizon", "1 d", path + ".flows", parse_duration),
            "dt": _get(flows, "dt", "60 s", path + ".flows", parse_duration),
            "seed": _count(flows, "seed", 0, path + ".flows"),
            "warmup": _get(flows, "warmup", 0.0, path + ".flows", parse_duration),
            "params": _parse_user_params(flows.get("params", {}),
                                         path + ".flows.params"),
        },
    }
