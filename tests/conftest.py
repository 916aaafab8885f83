import pytest

from rotvac.constants import NATURAL
from rotvac.kinematics import RotationParams


@pytest.fixture
def params_mid():
    """beta = 0.5 orbit in natural units."""
    return RotationParams(omega=1.0, radius=0.5, constants=NATURAL)


@pytest.fixture
def params_rest():
    """Non-rotating limit."""
    return RotationParams(omega=0.0, radius=0.0, constants=NATURAL)

