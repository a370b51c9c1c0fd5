"""demos/07_scale.py keeps running: its entry point on the smallest cell of its grid."""

import importlib.util
from pathlib import Path

import pytest

SCALE = Path(__file__).resolve().parents[1] / "demos" / "07_scale.py"


def _scale():
    spec = importlib.util.spec_from_file_location("scale", SCALE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scale_gives_one_row_per_version_stage(capsys):
    rows = _scale().main(["--lines", "5", "--seeds", "7"])
    assert [row["stage"] for row in rows] == ["Linux", "Solaris", "OpenBSD", "FreeBSD", "NetBSD"]
    for row in rows:
        assert (row["per_family"], row["seed"], row["lines"], row["accuracy"]) == (5, 7, 5, 1.0)
        assert row["stop"] in ("target", "plateau", "cap") and 1 <= row["generations"] <= 300
    # the overrides, the one run's summary, the table's header and one line per row
    assert len(capsys.readouterr().out.splitlines()) == 1 + 1 + 1 + len(rows)


def test_scale_refuses_a_bad_config_in_one_line():
    with pytest.raises(SystemExit) as exc:
        _scale().main(["--config", '{"subset_size": 1000}'])
    assert str(exc.value) == "error: --config: unknown config keys ['subset_size']"
