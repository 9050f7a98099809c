"""Shared fixtures for the test suite.

Workload construction (clip synthesis, stream doctoring) is the expensive
part of the tests; the session-scoped fixtures here build each artefact
once and share it across test modules. Everything is seeded, so sharing
does not introduce inter-test coupling.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DetectorConfig, FingerprintConfig, ScaleProfile
from repro.evaluation.runner import PreparedWorkload
from repro.features.pipeline import FingerprintExtractor
from repro.minhash.family import MinHashFamily
from repro.video.synth import ClipSynthesizer
from repro.workloads.doctor import StreamDoctor
from repro.workloads.library import ClipLibrary


class _Tripwire:
    """Unpickling one of these is the arbitrary-code path."""

    fired = False

    def __reduce__(self):
        return (_trip, ())


def _trip():
    _Tripwire.fired = True
    return "tripped"


@pytest.fixture()
def tripwire():
    """A class to plant in an object array: ``tripwire.fired`` tells
    whether loading the file unpickled (i.e. executed) it."""
    _Tripwire.fired = False
    return _Tripwire


@pytest.fixture(scope="session")
def smoke_profile() -> ScaleProfile:
    """A tiny profile: four short queries on a four-minute stream."""
    return ScaleProfile.smoke_scale()

@pytest.fixture(scope="session")
def small_profile() -> ScaleProfile:
    """A small but non-trivial profile used by integration tests."""
    return ScaleProfile(
        stream_seconds=1200.0,
        num_queries=6,
        query_min_seconds=25.0,
        query_max_seconds=60.0,
    )


@pytest.fixture(scope="session")
def synthesizer() -> ClipSynthesizer:
    """Shared deterministic content generator."""
    return ClipSynthesizer(seed=1234)


@pytest.fixture(scope="session")
def small_library(small_profile, synthesizer) -> ClipLibrary:
    """Six clips of 15-40 s at key-frame cadence."""
    return ClipLibrary(small_profile, synthesizer, seed=1234)


@pytest.fixture(scope="session")
def vs1_stream(small_profile, small_library):
    """A VS1 stream (originals inserted untouched)."""
    return StreamDoctor(small_profile, seed=99).build_vs1(small_library)


@pytest.fixture(scope="session")
def vs2_stream(small_profile, small_library):
    """A VS2 stream (attacked + reordered inserts)."""
    return StreamDoctor(small_profile, seed=99).build_vs2(
        small_library, noise_sigma=2.0
    )


@pytest.fixture(scope="session")
def vs1_prepared(vs1_stream, small_library) -> PreparedWorkload:
    """Cell-id streams of the VS1 workload under default fingerprints."""
    return PreparedWorkload.prepare(vs1_stream, small_library)


@pytest.fixture(scope="session")
def vs2_prepared(vs2_stream, small_library) -> PreparedWorkload:
    """Cell-id streams of the VS2 workload under default fingerprints."""
    return PreparedWorkload.prepare(vs2_stream, small_library)


@pytest.fixture(scope="session")
def extractor() -> FingerprintExtractor:
    """Default-configuration fingerprint extractor."""
    return FingerprintExtractor(config=FingerprintConfig())


@pytest.fixture()
def family() -> MinHashFamily:
    """A modest hash family for unit tests."""
    return MinHashFamily(num_hashes=64, seed=5)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh seeded RNG per test."""
    return np.random.default_rng(777)


@pytest.fixture()
def fast_config() -> DetectorConfig:
    """A detector configuration small enough for per-test runs."""
    return DetectorConfig(num_hashes=128, threshold=0.7, window_seconds=5.0)
