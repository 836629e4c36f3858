import math

import pytest
from hypothesis import settings

from fluxmod import BichromaticPulse, PairSpec, fit_spec

# every property test draws the same examples on every run, has no
# per-example deadline and writes no example database
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

# band-edge characterization data for the four study qubits:
# (f01 at zero flux, f01 at half flux, anharmonicity at zero flux), GHz
Q1_DATA = (5.250, 5.250 - 0.824, -0.205)
Q2_DATA = (4.269, 4.269 - 0.401, -0.187)
Q3_DATA = (4.791, 4.791 - 1.074, -0.206)
Q4_DATA = (3.365, 3.365 - 0.170, -0.201)

TURN = 2.0 * math.pi


@pytest.fixture(scope="session")
def q1():
    return fit_spec(*Q1_DATA, label="q1")


@pytest.fixture(scope="session")
def q2():
    return fit_spec(*Q2_DATA, label="q2")


@pytest.fixture(scope="session")
def q3():
    return fit_spec(*Q3_DATA, label="q3")


@pytest.fixture(scope="session")
def q4():
    return fit_spec(*Q4_DATA, label="q4")


@pytest.fixture(scope="session")
def pair12(q1, q2):
    return PairSpec(modulated=q1, neighbor=q2, coupling_mhz=4.0)


@pytest.fixture(scope="session")
def pair34(q3, q4):
    return PairSpec(modulated=q3, neighbor=q4, coupling_mhz=4.0)


@pytest.fixture()
def mono_pulse():
    return BichromaticPulse(
        fm_mhz=100.0, phi_ac_phi0=0.6, alpha_rad=0.0, theta_rad=0.0, p=1
    )


@pytest.fixture()
def bichro_pulse():
    return BichromaticPulse(
        fm_mhz=100.0, phi_ac_phi0=0.45, alpha_rad=0.5, theta_rad=1.1, p=3
    )
