from __future__ import annotations

import hypothesis
import pytest

from gasket_lerw import exact

hypothesis.settings.register_profile("suite", deadline=None, max_examples=80)
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def table():
    return exact.shape_table()


@pytest.fixture(scope="session")
def phi_theta(table):
    return exact.build_phi_theta(table)


@pytest.fixture(scope="session")
def eig():
    return exact.spectral_data()
