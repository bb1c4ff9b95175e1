"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.energy.radio import FirstOrderRadioModel
from repro.sim.kernel import Simulator
from repro.util.geometry import Arena
from repro.util.rng import RngStreams


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def arena() -> Arena:
    return Arena(750.0, 750.0)


@pytest.fixture
def radio() -> FirstOrderRadioModel:
    return FirstOrderRadioModel()


@pytest.fixture
def example_radio() -> FirstOrderRadioModel:
    """The radio used by the worked examples (higher reception cost)."""
    from repro.core.examples import EXAMPLE_RADIO

    return EXAMPLE_RADIO


@pytest.fixture
def streams() -> RngStreams:
    return RngStreams(12345)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)


@pytest.fixture(params=["central", "randomized"])
def test_daemon(request) -> str:
    """Activation daemon for daemon-generic tests: each such test runs
    under both disciplines (any registry name works here)."""
    return request.param


@pytest.fixture(params=["des", "rounds"])
def test_backend(request) -> str:
    """Experiment backend for backend-generic tests: the campaign CLI
    smoke runs end to end on the packet-level DES and on the
    round-model executor."""
    return request.param


@pytest.fixture(params=["json", "sqlite"])
def test_store(request, tmp_path) -> str:
    """A fresh result-store spec for store-generic tests: the campaign /
    backend / scenario-model tests persist through the JSON record dir
    and through the SQLite columnar store.  Both resolve through
    :func:`repro.experiments.store.open_store`."""
    if request.param == "sqlite":
        return f"sqlite:{tmp_path / 'results.sqlite'}"
    return str(tmp_path / "result-cache")


@pytest.fixture(params=["waypoint", "gauss-markov"])
def test_mobility(request) -> str:
    """Mobility model for scenario-generic tests: the paper's
    random-waypoint path and a non-default model run through the full
    runner / backend / campaign stack.  ``trace`` is not a valid value
    here (it needs a scenario file)."""
    return request.param
