"""Scenario JSON schema: unit literals, defaults, unknown-key rejection,
and one property over the table of fields: every bad value of every field
is a config error that names it."""

import copy
import json
import math
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logiq import config
from logiq.config import ConfigError, load_config, parse_config


ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
# perfbench's configs too: a rule that refused one would first show as a
# failed benchmark run
SHIPPED = SCENARIOS + sorted((ROOT / "perfbench").glob("*.json"))


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestTopLevel:
    def test_empty_config_gets_defaults(self):
        cfg = parse_config({})
        assert cfg["traffic"]["users"] == 10
        assert cfg["traffic"]["horizon"] == 48 * 3600.0
        assert cfg["traffic"]["dt"] == 60.0
        assert cfg["queue"]["mu"] is None
        assert cfg["sweep"]["rho_targets"] == [0.45, 0.55, 0.65, 0.75, 0.85]
        assert cfg["network"] is None
        assert cfg["workers"] == 1

    def test_unknown_top_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="config.quue"):
            parse_config({"quue": {}})

    def test_unknown_nested_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="config.queue.mmu"):
            parse_config({"queue": {"mmu": 1}})

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


class TestUnits:
    def test_literals_parsed(self):
        cfg = parse_config({
            "traffic": {"horizon": "6 h", "dt": "60 s"},
            "queue": {"mu": "11.33 Mb/s", "capacity": "25 GB"},
        })
        assert cfg["traffic"]["horizon"] == 6 * 3600.0
        assert cfg["queue"]["mu"] == pytest.approx(11.33e6)
        assert cfg["queue"]["capacity"] == 25e9 * 8

    def test_bad_unit_carries_path(self):
        with pytest.raises(ConfigError, match="config.queue.mu"):
            parse_config({"queue": {"mu": "11 parsec/s"}})

    def test_auto_means_none(self):
        cfg = parse_config({"queue": {"alpha": "auto"}})
        assert cfg["queue"]["alpha"] is None


class TestTrafficSection:
    def test_user_params_forwarded(self):
        cfg = parse_config({"traffic": {"params": {
            "packet_size": "1464 B",
            "interburst": 5.56,
            "interuse": "45 min",
            "sessions": [["5 min", 0.4], ["15 min", 0.3],
                         ["30 min", 0.25], ["120 min", 0.05]],
        }}})
        p = cfg["traffic"]["params"]
        assert p.packet_size_bits == 1464 * 8
        assert p.interuse_mean_s == 2700.0
        assert p.session_lengths[3] == (7200.0, 0.05)

    def test_bad_session_table(self):
        with pytest.raises(ConfigError, match="params"):
            parse_config({"traffic": {"params": {
                "sessions": [["5 min", 0.4], ["15 min", 0.3]]}}})

    def test_negative_users(self):
        with pytest.raises(ConfigError, match="users"):
            parse_config({"traffic": {"users": -1}})


class TestSweepSection:
    def test_targets_validated(self):
        with pytest.raises(ConfigError, match="rho_targets"):
            parse_config({"sweep": {"rho_targets": [0.5, 1.5]}})

    # a string was read one character at a time: "" ran an empty sweep
    @pytest.mark.parametrize("targets", ["", "0.5", {"a": 0.5}, None],
                             ids=["empty", "string", "object", "null"])
    def test_targets_not_array_rejected(self, targets):
        with pytest.raises(ConfigError, match=re.escape(
                "config.sweep.rho_targets: expected a JSON array")):
            parse_config({"sweep": {"rho_targets": targets}})


class TestNetworkSection:
    def payload(self):
        return {
            "access_mu": ["25 Gb/s"] * 4,
            "core": {"mu": "100 Gb/s", "capacity": "25 GB"},
            "egress_xi": ["20 Gb/s"] * 5,
            "routing": [[0.2, 0.2, 0.2, 0.2, 0.2]] * 4,
            "priority_rates": ["0 Gb/s", "5 Gb/s"],
            "flows": {"users_per_flow": 40, "target_rate": "12.5 Gb/s",
                      "horizon": "600 s", "dt": "1 s", "warmup": "1 d"},
        }

    def test_full_section(self):
        cfg = parse_config({"network": self.payload()})
        net = cfg["network"]
        assert net["core_mu"] == 100e9
        assert net["core_k"] == 25e9 * 8
        assert net["flows"]["warmup"] == 86400.0
        assert net["flows"]["target_rate"] == 12.5e9
        assert net["priority_rates"] == [0.0, 5e9]
        assert np.asarray(net["routing"]).shape == (4, 5)

    def test_missing_required_key(self):
        payload = self.payload()
        del payload["routing"]
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config({"network": payload})

    def test_unknown_flow_key(self):
        payload = self.payload()
        payload["flows"]["warmups"] = 1
        with pytest.raises(ConfigError, match="flows.warmups"):
            parse_config({"network": payload})


NETWORK = TestNetworkSection().payload()


@pytest.mark.parametrize("raw, path", [
    ({"queue": {"mu": 1e6, "gate_h0": 0.5}}, "config.queue.gate_h0"),
    ({"queue": {"mu": 1e6, "gate_n": 1e-4}}, "config.queue.gate_n"),
    ({"network": {**NETWORK, "core": {**NETWORK["core"], "gate_h0": 0.5}}},
     "config.network.core.gate_h0"),
    ({"network": {**NETWORK, "core": {**NETWORK["core"], "gate_n": 1e-4}}},
     "config.network.core.gate_n"),
    ({"network": {**NETWORK, "td_at_core_rate": False}},
     "config.network.td_at_core_rate"),
    ({"network": {**NETWORK, "flows": {**NETWORK["flows"],
                                       "full_generation": True}}},
     "config.network.flows.full_generation"),
    ({"validation": {"sample_dt": "60 s"}}, "config.validation"),
    ({"validation": {"des": False}}, "config.validation"),
    ({"solver": {"rel_tol": 1e-6, "abs_tol": 1e-9, "max_step": "1 s",
                 "output_dt": "120 s"}}, "config.solver"),
], ids=["queue.gate_h0", "queue.gate_n", "core.gate_h0", "core.gate_n",
        "td_at_core_rate", "flows.full_generation", "validation.sample_dt",
        "validation.des", "solver"])
def test_removed_key_rejected_with_path(raw, path):
    with pytest.raises(ConfigError, match=re.escape(f"{path}: unknown key")):
        parse_config(raw)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_bundled_scenario_loads(path):
    load_config(path)  # raises ConfigError on a removed or unknown key


def test_scenarios_found():
    assert len(SCENARIOS) >= 3


def test_load_config_round_trip(tmp_path):
    path = write_cfg(tmp_path, {"traffic": {"users": 3, "horizon": "1 h"}})
    cfg = load_config(path)
    assert cfg["traffic"]["users"] == 3
    assert cfg["traffic"]["horizon"] == 3600.0


# JSON reads 1e999 as inf, which int() cannot convert: each raised a raw
# OverflowError
@pytest.mark.parametrize("raw, path", [
    ({"traffic": {"users": 1e999}}, "config.traffic.users"),
    ({"traffic": {"seed": 1e999}}, "config.traffic.seed"),
    ({"workers": 1e999}, "config.workers"),
    ({"traffic": {"params": {"packet_size": 1e999}}},
     "config.traffic.params.packet_size"),
    ({"network": {**NETWORK, "flows": {**NETWORK["flows"],
                                       "users_per_flow": 1e999}}},
     "config.network.flows.users_per_flow"),
], ids=["users", "seed", "workers", "packet_size", "flows.users_per_flow"])
def test_infinite_count_rejected_with_path(raw, path):
    with pytest.raises(ConfigError, match=re.escape(f"{path}: ")):
        parse_config(raw)


# a negative or null seed used to reach numpy's SeedSequence as a raw
# ValueError or a fresh random stream, and a negative user count ended as
# an all-idle flow
@pytest.mark.parametrize("raw, path", [
    ({"traffic": {"users": -1}}, "config.traffic.users"),
    ({"traffic": {"seed": -1}}, "config.traffic.seed"),
    ({"traffic": {"seed": None}}, "config.traffic.seed"),
    ({"network": {**NETWORK, "flows": {**NETWORK["flows"], "seed": -7}}},
     "config.network.flows.seed"),
    ({"network": {**NETWORK, "flows": {**NETWORK["flows"],
                                       "users_per_flow": -3}}},
     "config.network.flows.users_per_flow"),
], ids=["users", "seed", "null_seed", "flows.seed", "flows.users_per_flow"])
def test_negative_count_rejected_with_path(raw, path):
    with pytest.raises(ConfigError, match=re.escape(f"{path}: must be >= 0")):
        parse_config(raw)


# a null field whose None has no meaning ended as a raw TypeError traceback
# (workers, horizon, dt) or as an input error with exit 1 (q0)
@pytest.mark.parametrize("raw, path", [
    ({"workers": None}, "config.workers"),
    ({"traffic": {"horizon": None}}, "config.traffic.horizon"),
    ({"traffic": {"dt": None}}, "config.traffic.dt"),
    ({"queue": {"q0": None}}, "config.queue.q0"),
    ({"traffic": {"params": {"interuse": None}}},
     "config.traffic.params.interuse"),
    ({"network": {**NETWORK, "packet_size": None}},
     "config.network.packet_size"),
    ({"network": {**NETWORK, "flows": {**NETWORK["flows"], "horizon": None}}},
     "config.network.flows.horizon"),
    ({"network": {**NETWORK, "flows": {**NETWORK["flows"], "dt": None}}},
     "config.network.flows.dt"),
    ({"network": {**NETWORK, "flows": {**NETWORK["flows"], "warmup": None}}},
     "config.network.flows.warmup"),
], ids=["workers", "horizon", "dt", "q0", "params.interuse", "packet_size",
        "flows.horizon", "flows.dt", "flows.warmup"])
def test_null_field_rejected_with_path(raw, path):
    with pytest.raises(ConfigError,
                       match=re.escape(f"{path}: must not be null")):
        parse_config(raw)


def test_nullable_fields_mean_none():
    cfg = parse_config({
        "queue": {"mu": None, "alpha": None, "capacity": None},
        "network": {**NETWORK, "core": {"mu": None, "capacity": None},
                    "flows": {**NETWORK["flows"], "target_rate": None}}})
    assert cfg["queue"] == {"mu": None, "alpha": None, "q0": 0.0,
                            "capacity": None}
    net = cfg["network"]
    assert net["core_mu"] is net["core_k"] is net["flows"]["target_rate"] is None


@pytest.mark.parametrize("field", ["horizon", "dt", "q0", "workers"])
def test_null_field_exits_2(tmp_path, capsys, field):
    from logiq.cli import main
    raw = ({"workers": None} if field == "workers"
           else {"queue": {"mu": "11.33 Mb/s", "q0": None}} if field == "q0"
           else {"traffic": {field: None}})
    code = main(["validate", "--config", str(write_cfg(tmp_path, raw)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "must not be null" in capsys.readouterr().err


# int() truncated a fraction (2.7 users ran 2, seed 3.9 ran seed 3) and
# read a boolean as 1
@pytest.mark.parametrize("raw, path", [
    ({"traffic": {"users": 2.7}}, "config.traffic.users"),
    ({"traffic": {"users": True}}, "config.traffic.users"),
    ({"traffic": {"seed": 3.9}}, "config.traffic.seed"),
    ({"traffic": {"seed": False}}, "config.traffic.seed"),
    ({"workers": True}, "config.workers"),
    ({"workers": 1.5}, "config.workers"),
    ({"network": {**NETWORK, "flows": {**NETWORK["flows"], "seed": 0.5}}},
     "config.network.flows.seed"),
    ({"network": {**NETWORK, "flows": {**NETWORK["flows"],
                                       "users_per_flow": True}}},
     "config.network.flows.users_per_flow"),
], ids=["users_fraction", "users_bool", "seed_fraction", "seed_bool",
        "workers_bool", "workers_fraction", "flows.seed_fraction",
        "flows.users_per_flow_bool"])
def test_count_not_whole_rejected_with_path(raw, path):
    with pytest.raises(ConfigError,
                       match=re.escape(f"{path}: expected a whole number")):
        parse_config(raw)


def test_whole_float_count_accepted():
    cfg = parse_config({"traffic": {"users": 3.0, "seed": 7.0},
                        "workers": 2.0})
    assert (cfg["traffic"]["users"], cfg["traffic"]["seed"],
            cfg["workers"]) == (3, 7, 2)
    assert all(type(v) is int for v in (cfg["traffic"]["users"],
                                        cfg["traffic"]["seed"],
                                        cfg["workers"]))


# int() truncated a fractional packet size (11712.7 ran 11 712-bit
# packets), and 0.5 became 0, refused under the name packet_size_bits
@pytest.mark.parametrize("raw, path", [
    ({"traffic": {"params": {"packet_size": 11712.7}}},
     "config.traffic.params.packet_size"),
    ({"traffic": {"params": {"packet_size": 0.5}}},
     "config.traffic.params.packet_size"),
    ({"traffic": {"params": {"packet_size": "1464.1 B"}}},
     "config.traffic.params.packet_size"),
    ({"traffic": {"params": {"packet_size": 0}}},
     "config.traffic.params.packet_size"),
    ({"traffic": {"params": {"packet_size": True}}},
     "config.traffic.params.packet_size"),
    ({"network": {**NETWORK, "flows": {**NETWORK["flows"],
                                       "params": {"packet_size": 11712.7}}}},
     "config.network.flows.params.packet_size"),
    # the twin's own size went through parse_size alone: "0.5" ran half-bit
    # packets, and NaN passed the config to fail later with exit 1
    ({"network": {**NETWORK, "packet_size": "0.5"}},
     "config.network.packet_size"),
    ({"network": {**NETWORK, "packet_size": float("nan")}},
     "config.network.packet_size"),
    ({"network": {**NETWORK, "packet_size": 0}},
     "config.network.packet_size"),
], ids=["fraction", "half_bit", "fraction_of_bytes", "zero", "bool",
        "flows.params.fraction", "network.half_bit", "network.nan",
        "network.zero"])
def test_packet_size_not_whole_rejected_with_path(raw, path):
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}: expected a whole number of bits > 0")):
        parse_config(raw)


def test_whole_packet_size_accepted():
    cfg = parse_config({"traffic": {"params": {"packet_size": 11712.0}},
                        "network": {**NETWORK, "flows": {
                            **NETWORK["flows"],
                            "params": {"packet_size": "1 kB"}}}})
    assert cfg["traffic"]["params"].packet_size_bits == 11712
    assert cfg["network"]["flows"]["params"].packet_size_bits == 8000
    assert cfg["network"]["packet_size"] == 11712


# a string was read one character at a time: "12" ran two origins at 1 and
# 2 b/s, and ["10", "01"] became the identity routing matrix
@pytest.mark.parametrize("raw, path", [
    ({**NETWORK, "access_mu": "12"}, "config.network.access_mu"),
    ({**NETWORK, "access_mu": {"a": "25 Gb/s"}}, "config.network.access_mu"),
    ({**NETWORK, "egress_xi": "20"}, "config.network.egress_xi"),
    ({**NETWORK, "routing": "10"}, "config.network.routing"),
    ({**NETWORK, "routing": ["10", "01"]}, "config.network.routing[0]"),
    ({**NETWORK, "routing": [[0.5, 0.5], "01"]}, "config.network.routing[1]"),
    ({**NETWORK, "priority_rates": "5"}, "config.network.priority_rates"),
    ({**NETWORK, "priority_rates": None}, "config.network.priority_rates"),
], ids=["access_mu", "access_mu_object", "egress_xi", "routing",
        "routing_rows", "routing_row_1", "priority_rates",
        "priority_rates_null"])
def test_network_list_not_array_rejected_with_path(raw, path):
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}: expected a JSON array")):
        parse_config({"network": raw})


def test_network_list_item_error_names_the_field():
    with pytest.raises(ConfigError, match=re.escape(
            "config.network.egress_xi: ")):
        parse_config({"network": {**NETWORK, "egress_xi": ["20 GB"]}})


@pytest.mark.parametrize("raw", [
    {"traffic": {"params": {"packet_size": 11712.7}},
     "queue": {"mu": "11.33 Mb/s"}},
    {"network": {**NETWORK, "access_mu": "12"}},
], ids=["packet_size", "access_mu"])
def test_not_whole_or_not_array_exits_2(tmp_path, capsys, raw):
    from logiq.cli import main
    command = "dt" if "network" in raw else "validate"
    code = main([command, "--config", str(write_cfg(tmp_path, raw)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: config.")


# the least config that reads every section: the network's required keys
LEAST = {"network": {"access_mu": [1.0], "egress_xi": [1.0],
                     "routing": [[1.0]]}}


def leaves(table, keys=("config",)):
    """(path keys, kind) of each field of ``table`` that is no table."""
    for key, kind, *_ in table.rows:
        inner = kind.kind if isinstance(kind, config._Or) else kind
        if isinstance(inner, config._Table):
            yield from leaves(inner, keys + (key,))
        else:
            yield keys + (key,), kind


def bad_values(kind):
    """Strategies, one for each class of value that ``kind`` refuses: null
    where null means nothing, a string where a number or an array belongs,
    a fraction where a whole number belongs, a number out of the kind's
    bounds (negative among them), NaN, inf and a boolean; and each of
    those as an array's item."""
    words = kind.words if isinstance(kind, config._Or) else ()
    kind = kind.kind if isinstance(kind, config._Or) else kind
    classes = [] if None in words else [st.none()]
    if isinstance(kind, config._Array):
        classes.append(st.text())
        if not isinstance(kind.item, tuple):
            return classes + [s.map(lambda v: [v])
                              for s in bad_values(kind.item)]
        classes.append(st.lists(st.just(1.0)).filter(
            lambda v: len(v) != len(kind.item)))
        for i, item in enumerate(kind.item):
            classes += [s.map(lambda v, i=i: [1.0] * i + [v] + [1.0] * (
                len(kind.item) - i - 1)) for s in bad_values(item)]
        return classes
    # a quantity's parser reads digits: a string of letters is no quantity
    strings = (st.text() if kind.parse is None
               else st.text(string.ascii_letters))
    classes.append(strings.filter(lambda s: s not in words))
    if kind.whole:
        classes.append(st.builds(lambda n, f: n + f,
                                 st.integers(1, 2 ** 40),
                                 st.floats(0.001, 0.999)))
    classes.append(st.integers(max_value=-1) | st.floats(
        max_value=0.0, exclude_max=True, allow_infinity=False))
    in_bound = config._BOUNDS[kind.bound]
    classes.append(st.sampled_from([v for v in (0, 1, 2.5)
                                    if not in_bound(v)] or [-1]))
    return classes + [st.just(math.nan), st.sampled_from([math.inf,
                                                          -math.inf]),
                      st.booleans()]


LEAVES = list(leaves(config._CONFIG))


def test_table_has_every_section():
    parse_config(LEAST)
    assert {keys[1] for keys, _ in LEAVES} == {"traffic", "queue", "sweep",
                                               "network", "workers"}


@pytest.mark.parametrize("keys, kind", LEAVES,
                         ids=[".".join(k[1:]) for k, _ in LEAVES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_bad_value_names_its_field(keys, kind, data):
    for strategy in bad_values(kind):
        raw = copy.deepcopy(LEAST)
        leaf = raw
        for key in keys[1:-1]:
            leaf = leaf.setdefault(key, {})
        leaf[keys[-1]] = value = data.draw(strategy)
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value).startswith(".".join(keys)), value


# each was accepted, and then ran (a boolean read as 1), or failed later
# with exit 1, or never
@pytest.mark.parametrize("raw, path", [
    ({"queue": {"mu": True}}, "config.queue.mu"),
    ({"traffic": {"horizon": True}}, "config.traffic.horizon"),
    ({"traffic": {"params": {"burst_size_mean": True}}},
     "config.traffic.params.burst_size_mean"),
    ({"network": {**NETWORK, "routing": [[True] + [0.0] * 4] * 4}},
     "config.network.routing[0]"),
    ({"queue": {"mu": float("nan")}}, "config.queue.mu"),
    ({"network": {**NETWORK, "egress_xi": ["-20 Gb/s"] * 5}},
     "config.network.egress_xi"),
    ({"traffic": {"dt": 0}}, "config.traffic.dt"),
    ({"network": {**NETWORK, "flows": {**NETWORK["flows"],
                                       "warmup": "-1 h"}}},
     "config.network.flows.warmup"),
], ids=["mu_bool", "horizon_bool", "burst_size_mean_bool", "routing_bool",
        "mu_nan", "egress_xi_negative", "dt_zero", "warmup_negative"])
def test_out_of_domain_exits_2(tmp_path, capsys, raw, path):
    from logiq.cli import main
    command = "dt" if "network" in raw else "validate"
    raw = {"queue": {"mu": "11.33 Mb/s"}, **raw}
    code = main([command, "--config", str(write_cfg(tmp_path, raw)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")
