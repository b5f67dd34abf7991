import pytest

from qkdattack.optimizer import OptimizerConfig


@pytest.fixture(scope="session")
def light_config() -> OptimizerConfig:
    """Small restart budget for tests that only need a decent optimum."""
    return OptimizerConfig(restarts=8)
