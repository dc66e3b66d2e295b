"""Planted defects: checks that fail when the theory is wrong.

Each row perturbs one declaration in process, runs a shipped config through
``cli.main`` and requires it to fail its acceptance (exit 1), while the
intact declaration passes the same config (exit 0).  The declaration is
restored after the run.
"""

import json
from pathlib import Path

import pytest

from asymptotica import mspde
from asymptotica.cli import EXIT_ACCEPT, EXIT_OK, main

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def scaled_gamma(factor):
    """``mspde.envelope_coefficients`` with the cubic coefficient gamma times ``factor``."""
    original = mspde.envelope_coefficients

    def perturbed(fld):
        c, beta, gamma = original(fld)
        return c, beta, factor * gamma

    return perturbed


# (defect, module, attribute, perturbed declaration, subcommand, shipped config)
DEFECTS = [
    ("klein_gordon gamma x 0.8", mspde, "envelope_coefficients", scaled_gamma(0.8),
     "pde", "kg_packet_long.json"),
]


def run(tmp_path, subcommand, config):
    out = tmp_path / "out"
    code = main([subcommand, "--config", str(CONFIGS / config), "--out-dir", str(out)])
    summary = json.loads((out / f"{Path(config).stem}_summary.json").read_text())
    return code, summary


@pytest.mark.parametrize("defect, module, attribute, perturbed, subcommand, config",
                         DEFECTS, ids=[row[0] for row in DEFECTS])
def test_planted_defect_fails_its_shipped_config(
    tmp_path, monkeypatch, defect, module, attribute, perturbed, subcommand, config
):
    code, summary = run(tmp_path / "intact", subcommand, config)
    assert code == EXIT_OK and summary["accept_failures"] == [], summary
    original = getattr(module, attribute)
    with monkeypatch.context() as patch:
        patch.setattr(module, attribute, perturbed)
        code, summary = run(tmp_path / "planted", subcommand, config)
    assert getattr(module, attribute) is original
    assert code == EXIT_ACCEPT, summary
    assert summary["accept_failures"], summary
