"""Tests for repro.infotheory.kde."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.infotheory.kde import kde_entropy, kde_multi_information


class TestKdeEntropy:
    def test_gaussian_entropy(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(0, 1, size=(3000, 1))
        true = 0.5 * np.log2(2 * np.pi * np.e)
        assert kde_entropy(samples) == pytest.approx(true, abs=0.15)

    def test_scaling_behaviour(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(2000, 1))
        assert kde_entropy(4 * samples) - kde_entropy(samples) == pytest.approx(2.0, abs=0.2)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            kde_entropy(np.zeros((2, 1)))


class TestKdeMultiInformation:
    def test_correlated_gaussians(self):
        rng = np.random.default_rng(2)
        rho = 0.8
        xy = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=2500)
        true = -0.5 * np.log2(1 - rho**2)
        estimate = kde_multi_information([xy[:, :1], xy[:, 1:]])
        assert estimate == pytest.approx(true, abs=0.2)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(3)
        variables = [rng.standard_normal((2500, 1)) for _ in range(2)]
        assert abs(kde_multi_information(variables)) < 0.15


def test_importing_repro_leaves_scipy_stats_unloaded():
    # scipy.stats costs tens of MB and ~0.5 s to import; only the KDE
    # estimator needs it, and it loads it on first use.
    code = (
        "import sys, repro, repro.cli, repro.core.plan, repro.infotheory.kde; "
        "print(any(m == 'scipy.stats' or m.startswith('scipy.stats.') for m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
