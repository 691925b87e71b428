"""Every exported name resolves, in the package and in each of its modules."""

import importlib
import pkgutil

import pytest

import hybridwigner

MODULES = ["hybridwigner"] + [
    f"hybridwigner.{info.name}" for info in pkgutil.iter_modules(hybridwigner.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_the_marginal_cross_check():
    assert "marginal_quadrature" in hybridwigner.__all__
    assert "PairDistribution" not in hybridwigner.__all__


def test_coupling_is_a_plain_float():
    import hybridwigner.oscillator_hybrid as oscillator_hybrid

    assert "CouplingParams" not in hybridwigner.__all__
    assert not hasattr(oscillator_hybrid, "CouplingParams")
