from fractions import Fraction

import pytest

from ansing import asymptotics, extension, invariants, latticesum, oracle, quasifit


@pytest.fixture
def free_kernels(monkeypatch):
    """The CLI's costly kernels as stubs: for tests of which arguments the
    CLI admits, not of what they cost.  invariants.h1 is stubbed whole, as it
    holds its own binding of hsum; integer_pieces is what the polygon verb
    formats.  omega runs for real, since what its bound guards is the
    printing of its exact rates; so do upper_integral, whose closed form
    takes about 1 ms at integral-check's bounds, and hsum, about 1 ms at
    m = 1000000 and cached per process, so a sweep or fit at --m-to 1500
    pays for its 1501 values once per n.  With real counts, the oracle
    stub agrees with the formula, and fit runs on zeros in their place, as
    real counts at degree 0 or period 1 have no fit."""
    fit = quasifit.fit
    stubs = [
        (oracle, "hsum_oracle", lambda n, m: latticesum.hsum(n, m)),
        (quasifit, "fit", lambda values, *bounds: fit(tuple((m, 0) for m, _ in values), *bounds)),
    ]
    for module, name, value in [
        (asymptotics, "integer_pieces", []),
        (extension, "divisor_D", ()),
        (asymptotics, "h0_omega_limit_report", {}),
        (invariants, "h1_omega_limit_report", {}),
        (invariants, "mu", Fraction(0)),
        (invariants, "h1", Fraction(0)),
    ]:
        stubs.append((module, name, lambda *args, value=value: value))
    for module, name, stub in stubs:
        monkeypatch.setattr(module, name, stub)
