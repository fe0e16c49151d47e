"""Both CLIs take their pipeline choices from ``repro.core.engine.PIPELINES``."""

import pytest

from repro.core.engine import PIPELINES
from repro.faults import __main__ as chaos_cli
from repro.service import __main__ as service_cli


@pytest.mark.parametrize("cli", [service_cli, chaos_cli], ids=["service", "faults"])
@pytest.mark.parametrize("name", ["parallel", "per-report"])
def test_unknown_pipeline_is_rejected_at_argument_parsing(cli, name, capsys):
    flag = "--pipeline" if cli is service_cli else "--pipelines"
    with pytest.raises(SystemExit) as exc:
        cli.main([flag, name])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("cli", [service_cli, chaos_cli], ids=["service", "faults"])
def test_help_lists_every_pipeline(cli, capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    for name in PIPELINES:
        assert name in out

