"""The oracle suite's own false-alarm rate and power."""

from dataclasses import replace

import pytest

import vactrap.validation as validation
from vactrap.cavity import CavityConfig
from vactrap.validation import check_monte_carlo

DEFAULT = CavityConfig(rho=0.98)


@pytest.mark.parametrize("seed", [137, 222, 280])
def test_monte_carlo_check_passes_seeds_beyond_three_sigma(seed):
    # worst z-scores of these seeds are 3.02, 3.09 and 3.27
    check = check_monte_carlo(DEFAULT, 0.0, seed)
    assert 3.0 < check.detail["worst_z_score"] < 5.0
    assert check.passed
    assert check.detail["tolerance"] == 5.0


def test_monte_carlo_check_fails_an_offset_mean(monkeypatch):
    reference = validation.monte_carlo_reference

    def offset(*args, **kwargs):
        mc, (se_g, se_s) = reference(*args, **kwargs)
        return replace(mc, gamma_ratio=mc.gamma_ratio + 10.0 * se_g), \
            (se_g, se_s)

    monkeypatch.setattr(validation, "monte_carlo_reference", offset)
    check = check_monte_carlo(DEFAULT, 0.0, 0)
    assert not check.passed
    assert check.detail["worst_z_score"] > 5.0
