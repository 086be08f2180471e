import threading

import numpy as np
import pytest

from alaskit import AnalysisParams, Waveform


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail any test that leaves a thread alive which it started."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads left running: {leaked}")


@pytest.fixture(scope="session")
def params():
    return AnalysisParams()


@pytest.fixture(scope="session")
def vowel_corpus(params):
    """20 deterministic synthetic vowel utterances, 1 s each."""
    import vowelgen

    return vowelgen.make_corpus(params)


@pytest.fixture(scope="session")
def sine_1khz(params):
    """1 s sine at 1000 Hz, a bin-center frequency (bin 32) at defaults."""
    t = np.arange(params.sample_rate) / params.sample_rate
    return Waveform(0.8 * np.sin(2.0 * np.pi * 1000.0 * t), params.sample_rate)
