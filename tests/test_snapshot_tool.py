"""The report snapshot covers every registered fixture."""

import importlib.util
from pathlib import Path

from soliton_lab import fixtures

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
