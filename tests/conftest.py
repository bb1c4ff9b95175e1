"""Shared fixtures for the test suite."""

from __future__ import annotations

import json

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


@pytest.fixture(params=["sqlite"])
def test_store(request, tmp_path) -> str:
    """A fresh result-store path for store-generic tests (the campaign,
    service, backend and scenario-model tests persist through it).  The
    one parameter keeps the store in every such test's ID."""
    return str(tmp_path / "results.sqlite")


@pytest.fixture
def legacy_json_dir(tmp_path):
    """Writer of legacy ``<config_key>.json`` record dirs, the read-only
    input of ``migrate``: ``write(configs)`` executes each config into
    ``tmp_path/legacy`` and returns that path."""
    from repro.experiments.campaign import _execute
    from repro.experiments.store import config_key

    def write(configs) -> str:
        root = tmp_path / "legacy"
        root.mkdir(exist_ok=True)
        for cfg in configs:
            with open(root / f"{config_key(cfg)}.json", "w") as fh:
                json.dump(_execute(cfg), fh, sort_keys=True)
        return str(root)

    return write


@pytest.fixture(params=["waypoint", "gauss-markov"])
def test_mobility(request) -> str:
    """Mobility model for scenario-generic tests: the paper's
    random-waypoint path and a non-default model run through the full
    runner / backend / campaign stack.  ``trace`` is not a valid value
    here (it needs a scenario file)."""
    return request.param
