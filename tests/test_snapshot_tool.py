"""The report snapshot covers every registered fixture."""

import importlib.util
import json
from pathlib import Path

from soliton_lab import cli, fixtures

TOOL = Path(__file__).resolve().parents[1] / "tools" / "snapshot_reports.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("snapshot_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snapshot_runs_every_registered_fixture():
    # A fixture missing here would escape the byte-identity check of a refactor.
    tool = _load_tool()
    assert tool.PAIRS == tuple(fixtures._PAIRS)
    assert tool.PROFILES == tuple(fixtures._SKRP)
    assert tool.COMPLETENESS == tuple(fixtures._SYNTHETIC_Q) + tuple(fixtures._SKRP)


def test_profile_configs_spell_out_their_fixtures(tmp_path):
    # The inline config named after a profile fixture must parse to that
    # fixture's parameters; otherwise editing one would silently split the
    # fixture runs from the config runs.
    tool = _load_tool()
    for name, params in fixtures._SKRP.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(tool.CONFIGS[name]))
        assert cli._parse_config_file(str(path)) == (None, params), name
