"""Acceptance gate: runs every criterion and prints one line per result.

Criterion 3 is expected to fail: at the stated amplitude the integration
window sits entirely inside the positive part of the quadrature density, so
the quoted negative value cannot come out of the stated formula (see the
criterion's report rows for the measured values and the nearby parameter
readings that do reproduce it).  The test records the failure honestly via
xfail(strict=True) so a change in behaviour is flagged either way.
"""

import pytest

from hybridwigner.acceptance import CRITERIA
from hybridwigner.hybrid_model import SIGMA_MINUS_SCALE

_EXPECTED_FAILURES = {3}


@pytest.mark.parametrize(
    "number,name,fn", CRITERIA, ids=[f"{n:02d}-{name}" for n, name, _ in CRITERIA]
)
def test_criterion(number, name, fn):
    if number in _EXPECTED_FAILURES:
        pytest.xfail("stated window integrates a positive region; see decision notes")
    result = fn()
    print(f"ACCEPTANCE {result.number:2d} {result.name}: "
          f"{'PASS' if result.passed else 'FAIL'}")
    for check in result.checks:
        flag = "ok " if check.passed else "BAD"
        print(f"    {flag} {check.label}: {check.measured:.6g} ({check.bound})")
    assert result.passed, f"criterion {result.number} failed: {result.name}"


def test_criterion_3_measured_values_are_stable():
    """Pin the honest numbers behind the expected failure."""
    result = [fn for n, _, fn in CRITERIA if n == 3][0]()
    assert not result.passed
    rows = {c.label: c.measured for c in result.checks}
    assert rows["r0=10: window integral"] == pytest.approx(0.0970, abs=0.001)
    assert rows["r0=10: full negative-part integral"] == pytest.approx(-0.0758, abs=0.001)
    assert rows["r0=sqrt(10): window integral"] == pytest.approx(-0.0376, abs=0.001)
    assert abs(rows["r0=10: full-line normalization minus 1"]) < 1e-9


def test_criterion_4_scale_is_sigma_minus_scale():
    """The coherence scale criterion 4 reports is the constant the model names."""
    result = [fn for n, _, fn in CRITERIA if n == 4][0]()
    rows = {c.label: c.measured for c in result.checks}
    assert abs(rows["coherence scale constant"] - SIGMA_MINUS_SCALE) < 1e-12


def test_criterion_11_rows_catch_a_scaled_weight(monkeypatch):
    """A sharp-field law off by one part in 1e9 fails the moment rows and the
    rebuilt raising moments."""
    import hybridwigner.acceptance as acceptance
    from hybridwigner.hybrid_model import PhaseDistribution, atomic_pfunction

    def scaled(atom, chi_t):
        p = atomic_pfunction(atom, chi_t)
        return PhaseDistribution(lambda d: (1.0 + 1e-9) * p.evaluate(d), p.support)

    monkeypatch.setattr(acceptance, "atomic_pfunction", scaled)
    result = acceptance.criterion_11()
    rows = [c for c in result.checks if "rebuilt raising moment" in c.label]
    assert len(rows) == 4
    assert not any(c.passed for c in rows)
    assert not any(c.passed for c in result.checks)
