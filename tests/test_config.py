"""Scenario JSON schema: unit literals, defaults, unknown-key rejection."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from logiq.config import ConfigError, load_config, parse_config


SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios")
                   .glob("*.json"))


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


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
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
