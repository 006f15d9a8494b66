from fractions import Fraction

import pytest

from ansing import asymptotics, extension, invariants, latticesum, oracle


@pytest.fixture
def free_kernels(monkeypatch):
    """The CLI's costly kernels as constants: for tests of which arguments the
    CLI admits, not of what they cost.  invariants.h1 is stubbed whole, as it
    holds its own binding of hsum; omega runs for real, since what its bound
    guards is the printing of its exact rates."""
    for module, name, value in [
        (latticesum, "hsum", 0),
        (oracle, "hsum_oracle", 0),
        (asymptotics, "upper_integral", 0),
        (asymptotics, "pieces", []),
        (extension, "divisor_D", ()),
        (asymptotics, "h0_omega_limit_report", {}),
        (invariants, "h1_omega_limit_report", {}),
        (invariants, "mu", Fraction(0)),
        (invariants, "h1", Fraction(0)),
    ]:
        monkeypatch.setattr(module, name, lambda *args, value=value: value)
