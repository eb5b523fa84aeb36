import pytest

from feberi.core import TlsSpec, kinematics_from_kev
from feberi.coulomb import DipoleCoupling


@pytest.fixture(scope="session")
def kin():
    # 200 keV beam, the reference working point
    return kinematics_from_kev(200.0)


@pytest.fixture(scope="session")
def tls():
    return TlsSpec.from_lab(2.0, 5.0)


@pytest.fixture(scope="session")
def coupling(tls, kin):
    # 2.4 nm impact parameter, transverse dipole
    return DipoleCoupling(tls, 2.4, kin)


@pytest.fixture(scope="session")
def coupling_parallel(tls, kin):
    return DipoleCoupling(tls, 2.4, kin, orientation="parallel")
