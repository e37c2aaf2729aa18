"""One config shape for every serving process.

``python -m repro serve`` builds one ServiceConfig from its
``SERVE_FLAGS`` table, and ``--shards N`` runs that config as the
template of every shard.  These tests pin, as literal values, the
config of every process the shipped command lines start (the repo
benchmark's two server workloads, CI's serve smokes, ``--db``, and one
single-server and one fabric line that set every flag), so a default or
a flag mapping cannot drift unnoticed.  They also pin the FabricConfig
template rules.
"""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from repro.cli import SERVE_FLAGS, build_parser, serve_config
from repro.fabric.config import FabricConfig
from repro.fabric.proc import FabricSupervisor, shard_service_config
from repro.fabric.router import FabricRouter
from repro.service.config import ServiceConfig

FABRIC_DIR = "/srv/fabric"

#: Every ServiceConfig field of a ``repro serve`` started without flags.
CLI_DEFAULTS = {
    "host": "127.0.0.1",
    "port": 8753,
    "workers": 2,
    "executor": "process",
    "queue_limit": 64,
    "response_cache_size": 1024,
    "request_timeout_s": 120.0,
    "drain_timeout_s": 30.0,
    "db_path": None,
    "max_body_bytes": 1048576,
    "breaker_threshold": 5,
    "breaker_recovery_s": 30.0,
    "degraded_mode": True,
    "shard_id": None,
    "db_dir": None,
    "job_dir": None,
    "lease_ttl_s": 60.0,
    "steal_interval_s": 0.5,
    "adaptive_limits": False,
    "adaptive_target_ms": 500.0,
    "brownout": False,
    "brownout_escalate_s": 2.0,
    "brownout_recover_s": 5.0,
    "slo_enabled": False,
    "slo_config": None,
    "flight_recorder": 256,
}

#: The fields ``repro serve`` has a flag for.
CLI_FIELDS = (
    "host", "port", "workers", "executor", "queue_limit",
    "response_cache_size", "request_timeout_s", "drain_timeout_s",
    "db_path", "breaker_threshold", "breaker_recovery_s", "degraded_mode",
    "lease_ttl_s", "steal_interval_s", "adaptive_limits",
    "adaptive_target_ms", "brownout", "brownout_escalate_s",
    "brownout_recover_s", "slo_enabled", "slo_config", "flight_recorder",
)

#: Flags that take no value: each flips its field's default.
SWITCHES = {
    "--no-degraded": "degraded_mode",
    "--adaptive-limits": "adaptive_limits",
    "--brownout": "brownout",
    "--slo": "slo_enabled",
}

#: Every config flag except ``--db``, each off its default.
EVERY_FLAG = [
    "--host", "127.0.0.2", "--port", "9001", "--workers", "3",
    "--executor", "thread", "--queue-limit", "17", "--cache-size", "33",
    "--timeout", "41.5", "--drain-timeout", "7.5",
    "--breaker-threshold", "4", "--breaker-recovery", "12.5",
    "--no-degraded", "--lease-ttl", "45", "--steal-interval", "0.25",
    "--adaptive-limits", "--adaptive-target-ms", "250", "--brownout",
    "--brownout-escalate", "1.5",
    "--brownout-recover", "4.5", "--slo", "--slo-config", "{}",
    "--flight-recorder", "64",
]

#: What EVERY_FLAG sets, field by field.
EVERY_VALUE = {
    "host": "127.0.0.2",
    "port": 9001,
    "workers": 3,
    "executor": "thread",
    "queue_limit": 17,
    "response_cache_size": 33,
    "request_timeout_s": 41.5,
    "drain_timeout_s": 7.5,
    "breaker_threshold": 4,
    "breaker_recovery_s": 12.5,
    "degraded_mode": False,
    "lease_ttl_s": 45.0,
    "steal_interval_s": 0.25,
    "adaptive_limits": True,
    "adaptive_target_ms": 250.0,
    "brownout": True,
    "brownout_escalate_s": 1.5,
    "brownout_recover_s": 4.5,
    "slo_enabled": True,
    "slo_config": "{}",
    "flight_recorder": 64,
}


def parse(*argv: str):
    return build_parser().parse_args(["serve", *argv])


def processes(*argv: str) -> dict[str, dict]:
    """What every server process ``repro serve argv`` starts runs
    under: the single server's config, or the router's limits plus
    every shard's config."""
    config = serve_config(parse(*argv))
    if isinstance(config, ServiceConfig):
        return {"server": asdict(config)}
    router = FabricRouter(config, {})
    found = {
        "router": {
            "host": config.host,
            "port": config.port,
            "max_body_bytes": router.max_body_bytes,
            "drain_timeout_s": config.shard.drain_timeout_s,
            "forward_timeout_s": router._forward_timeout_s,
        }
    }
    for index in range(config.shards):
        found[f"shard-{index}"] = asdict(shard_service_config(config, index))
    return found


def shard(index: int, **values) -> dict:
    """A CLI-started shard's config: the defaults plus ``values``."""
    return {
        **CLI_DEFAULTS,
        "port": 0,
        "shard_id": index,
        "db_dir": f"{FABRIC_DIR}/db",
        "job_dir": f"{FABRIC_DIR}/jobs",
        **values,
    }


def router(**values) -> dict:
    return {
        "host": "127.0.0.1",
        "port": 0,
        "max_body_bytes": 1048576,
        "drain_timeout_s": 30.0,
        "forward_timeout_s": 125.0,
        **values,
    }


class TestPinnedCommandLines:
    def test_perfbench_cold_predict(self):
        assert processes(
            "--shards", "0", "--port", "0", "--workers", "1",
            "--cache-size", "256",
        ) == {
            "server": {
                **CLI_DEFAULTS, "port": 0, "workers": 1,
                "response_cache_size": 256,
            }
        }

    def test_perfbench_warm_fabric(self):
        assert processes(
            "--shards", "2", "--fabric-dir", FABRIC_DIR, "--port", "0",
            "--workers", "1",
        ) == {
            "router": router(),
            "shard-0": shard(0, workers=1),
            "shard-1": shard(1, workers=1),
        }

    def test_ci_telemetry_smoke(self):
        assert processes("--port", "0", "--executor", "thread", "--slo") == {
            "server": {
                **CLI_DEFAULTS, "port": 0, "executor": "thread",
                "slo_enabled": True,
            }
        }

    def test_ci_fabric_smoke(self):
        assert processes(
            "--shards", "3", "--fabric-dir", FABRIC_DIR, "--port", "0",
            "--workers", "1", "--cache-size", "64",
        ) == {
            "router": router(),
            **{
                f"shard-{i}": shard(i, workers=1, response_cache_size=64)
                for i in range(3)
            },
        }

    def test_db(self):
        assert processes("--port", "0", "--db", "/srv/tuning.json") == {
            "server": {
                **CLI_DEFAULTS, "port": 0, "db_path": "/srv/tuning.json",
            }
        }

    def test_single_server_with_every_flag(self):
        assert processes(*EVERY_FLAG, "--db", "/srv/tuning.json") == {
            "server": {
                **CLI_DEFAULTS, **EVERY_VALUE, "db_path": "/srv/tuning.json",
            }
        }

    def test_fabric_with_every_flag(self):
        assert processes(
            *EVERY_FLAG, "--shards", "2", "--fabric-dir", FABRIC_DIR
        ) == {
            # The forward deadline is the shards' 41.5 s plus 5 s.
            "router": router(
                host="127.0.0.2", port=9001, drain_timeout_s=7.5,
                forward_timeout_s=46.5,
            ),
            "shard-0": shard(0, **{**EVERY_VALUE, "port": 0}),
            "shard-1": shard(1, **{**EVERY_VALUE, "port": 0}),
        }


class TestServeFlags:
    def test_every_row_names_a_field(self):
        names = {f.name for f in fields(ServiceConfig)}
        assert {field for _, field, _, _ in SERVE_FLAGS} <= names

    def test_each_cli_field_has_exactly_one_row(self):
        rows = Counter(field for _, field, _, _ in SERVE_FLAGS)
        assert len(CLI_FIELDS) == 22
        assert rows == Counter(CLI_FIELDS)

    def test_each_switch_flips_its_fields_default(self):
        switches = {
            spec: field for spec, field, kind, _ in SERVE_FLAGS
            if kind is bool
        }
        assert switches == SWITCHES
        for flag, field in SWITCHES.items():
            config = serve_config(parse(flag))
            assert getattr(config, field) == (not CLI_DEFAULTS[field]), flag

    def test_brownout_and_slo_config_imply_slo(self):
        assert serve_config(parse("--brownout")).slo_enabled is True
        config = serve_config(parse("--slo-config", "{}"))
        assert config.slo_enabled is True and config.slo_config == "{}"

    def test_executor_choices_are_enforced(self, capsys):
        with pytest.raises(SystemExit):
            parse("--executor", "fiber")
        assert "invalid choice" in capsys.readouterr().err

    def test_building_the_parser_imports_no_server_code(self):
        probe = (
            "import sys; import repro.cli as cli; cli.build_parser(); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('repro.service', 'repro.fabric'))))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={"PYTHONPATH": src}, check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_fabric_refuses_db_and_needs_a_fabric_dir(self, capsys):
        from repro.cli import cmd_serve

        assert cmd_serve(parse("--shards", "2")) == 2
        assert cmd_serve(
            parse("--shards", "2", "--fabric-dir", FABRIC_DIR, "--db", "x")
        ) == 2
        err = capsys.readouterr().err
        assert "--shards requires --fabric-dir" in err
        assert "--db is single-process only" in err


class TestFabricConfigTemplate:
    def test_topology_plus_one_template(self):
        assert [f.name for f in fields(FabricConfig)] == [
            "fabric_dir", "host", "port", "shards", "vnodes",
            "probe_interval_s", "probe_timeout_s", "restart_shards",
            "max_restarts", "shard_faults", "shard",
        ]

    def test_template_with_db_path_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="db_path"):
            FabricConfig(
                fabric_dir=str(tmp_path),
                shard=ServiceConfig(db_path=str(tmp_path / "db.json")),
            )

    def test_invalid_template_fails_before_any_directory(self, tmp_path):
        root = tmp_path / "fabric"
        with pytest.raises(ValueError, match="workers"):
            FabricConfig(fabric_dir=str(root), shard=ServiceConfig(workers=0))
        with pytest.raises(ValueError, match="workers"):
            serve_config(parse(
                "--shards", "2", "--fabric-dir", str(root), "--workers", "0"
            ))
        assert not root.exists()

    def test_default_template_gives_todays_shards(self):
        config = FabricConfig(fabric_dir=FABRIC_DIR, shards=2)
        supervisor = FabricSupervisor(config)
        for index in range(2):
            made = supervisor._make_shard(index).service_config
            assert asdict(made) == shard(
                index, workers=1, executor="thread", drain_timeout_s=10.0
            )
