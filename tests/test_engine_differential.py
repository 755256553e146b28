"""Differential harness: every registered engine against the brute oracle.

One parameterized sweep proves all engines agree on the same fixtures:
profile values within 1e-8 of ``brute``, and neighbor indices that agree
up to tie-breaking (the reported neighbor must realize the reported
distance).  Algorithm 3's row-block fan-out — the package's only
multi-process path — additionally runs at several worker counts, where
its profile must be *bitwise* identical to serial STOMP.
"""

import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro import obs
from repro.core.compute_mp import compute_matrix_profile
from repro.core.discords_variable import find_discords_pruned
from repro.distance.znorm import znormalized_distance
from repro.exceptions import InvalidParameterError
from repro.matrixprofile.brute import brute_force_matrix_profile
from repro.matrixprofile.registry import (
    compute_with,
    engine_names,
    get_engine,
)
from repro.matrixprofile.stomp import stomp

ATOL = 1e-8


def _random_walk():
    rng = np.random.default_rng(42)
    return rng.standard_normal(500).cumsum(), 32


def _planted_motif():
    rng = np.random.default_rng(7)
    series = rng.standard_normal(500) * 0.3
    pattern = np.sin(np.linspace(0.0, 4.0 * np.pi, 40))
    series[70:110] += pattern * 3.0
    series[300:340] += pattern * 3.0
    return series, 24


def _constant_segment():
    rng = np.random.default_rng(13)
    series = rng.standard_normal(400).cumsum()
    series[150:210] = series[150]
    return series, 20


def _short_series():
    rng = np.random.default_rng(5)
    return rng.standard_normal(20), 10


FIXTURES = {
    "random-walk": _random_walk,
    "planted-motif": _planted_motif,
    "constant-segment": _constant_segment,
    "short": _short_series,
}


@pytest.fixture(scope="module")
def oracles():
    """Brute-force profiles of every fixture, computed once."""
    cache = {}
    for name, make in FIXTURES.items():
        series, length = make()
        cache[name] = (series, length, brute_force_matrix_profile(series, length))
    return cache


def _check_indices_realize_distances(series, length, mp, reference, atol):
    """Indices may differ from brute only where distances tie.

    The engine's reported neighbor must reproduce the engine's reported
    distance (and hence the oracle's, already checked) when the pair is
    re-measured from scratch.
    """
    for i, j in enumerate(mp.index):
        if j < 0:
            assert not np.isfinite(mp.profile[i])
            continue
        d = znormalized_distance(
            series[i : i + length], series[j : j + length]
        )
        assert d == pytest.approx(float(reference.profile[i]), abs=atol), (
            f"index {j} of position {i} does not realize the oracle distance"
        )


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("engine", sorted(engine_names()))
def test_engine_matches_brute(engine, fixture, oracles):
    series, length, reference = oracles[fixture]
    mp = compute_with(engine, series, length, n_jobs=1)
    finite = np.isfinite(reference.profile)
    assert np.array_equal(np.isfinite(mp.profile), finite)
    np.testing.assert_allclose(
        mp.profile[finite],
        reference.profile[finite],
        atol=ATOL,
        rtol=0.0,
        err_msg=f"{engine} diverges from brute on {fixture}",
    )
    _check_indices_realize_distances(series, length, mp, reference, 1e-6)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("n_jobs", [1, 2, 4])
def test_parallel_engine_bitwise_vs_serial(n_jobs, fixture, oracles):
    series, length, _ = oracles[fixture]
    serial = stomp(series, length)
    mp, _ = compute_matrix_profile(series, length, 5, n_jobs=n_jobs)
    np.testing.assert_array_equal(
        mp.profile, serial.profile,
        err_msg=f"compute_mp n_jobs={n_jobs} not bitwise on {fixture}",
    )
    np.testing.assert_array_equal(mp.index, serial.index)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("engine", sorted(engine_names()))
def test_tracing_does_not_change_results(engine, fixture, oracles):
    """Observability is read-only: traced output is bitwise untraced."""
    series, length, _ = oracles[fixture]
    with obs.tracing(False):
        plain = compute_with(engine, series, length, n_jobs=1)
    with obs.tracing(True):
        obs.reset()
        traced = compute_with(engine, series, length, n_jobs=1)
        recorded = obs.snapshot()["counters"]
    obs.reset()
    np.testing.assert_array_equal(
        traced.profile, plain.profile,
        err_msg=f"{engine} profile changed under tracing on {fixture}",
    )
    np.testing.assert_array_equal(traced.index, plain.index)
    if engine != "brute":  # brute is deliberately uninstrumented
        assert recorded, f"{engine} recorded no counters while traced"


def test_tracing_does_not_change_parallel_workers(oracles):
    series, length, _ = oracles["random-walk"]
    serial = stomp(series, length)
    with obs.tracing(True):
        obs.reset()
        mp, _ = compute_matrix_profile(series, length, 5, n_jobs=2)
        pids = obs.snapshot()["pids"]
    obs.reset()
    obs.disable()
    np.testing.assert_array_equal(mp.profile, serial.profile)
    np.testing.assert_array_equal(mp.index, serial.index)
    assert len(pids) >= 2, "worker snapshots were not merged"


def test_repro_trace_env_does_not_change_results(tmp_path):
    """REPRO_TRACE=1 in a fresh process leaves the profile bitwise equal."""
    script = (
        "import numpy as np\n"
        "from repro.matrixprofile.stomp import stomp\n"
        "rng = np.random.default_rng(11)\n"
        "series = rng.standard_normal(300).cumsum()\n"
        "mp = stomp(series, 20)\n"
        "np.save(r'{out}', np.vstack([mp.profile, mp.index.astype(float)]))\n"
    )
    results = {}
    for label, env_value in (("off", "0"), ("on", "1")):
        out = tmp_path / f"{label}.npy"
        code = subprocess.run(
            [sys.executable, "-c", script.format(out=out)],
            env={
                "PYTHONPATH": str(
                    pathlib.Path(__file__).resolve().parent.parent / "src"
                ),
                "PATH": "/usr/bin:/bin",
                "REPRO_TRACE": env_value,
            },
            capture_output=True,
            text=True,
        )
        assert code.returncode == 0, code.stderr
        results[label] = np.load(out)
    np.testing.assert_array_equal(results["on"], results["off"])


REMAINING_ENGINES = ("stomp", "stamp", "scrimp", "brute", "blocked-stomp")


def test_registry_lists_all_engines():
    assert engine_names() == REMAINING_ENGINES
    for name in REMAINING_ENGINES:
        spec = get_engine(name)
        assert spec.name == name and spec.description


def test_registry_rejects_unknown_engine():
    with pytest.raises(InvalidParameterError, match="blocked-stomp"):
        get_engine("no-such-engine")


@pytest.mark.parametrize("name", ["parallel-stomp", "blocked-stomp-f32"])
def test_removed_engine_names_raise_typed_error(name):
    with pytest.raises(InvalidParameterError) as err:
        get_engine(name)
    message = str(err.value)
    assert repr(name) in message
    choices = message.split("choose one of:")[1].split(",")
    assert sorted(c.strip() for c in choices) == sorted(REMAINING_ENGINES)


class TestNJobsIgnored:
    """Serial engines warn once per engine when n_jobs is passed, and the
    ``engine.n_jobs_ignored`` counter fires on every occurrence."""

    @pytest.fixture(autouse=True)
    def _fresh_warning_state(self):
        from repro.matrixprofile.registry import _N_JOBS_WARNED

        saved = set(_N_JOBS_WARNED)
        _N_JOBS_WARNED.clear()
        yield
        _N_JOBS_WARNED.clear()
        _N_JOBS_WARNED.update(saved)

    def test_warns_once_per_engine_counts_every_time(self, oracles):
        import warnings as warnings_mod

        series, length, _ = oracles["short"]
        with obs.tracing(True):
            obs.reset()
            with warnings_mod.catch_warnings(record=True) as caught:
                warnings_mod.simplefilter("always")
                compute_with("stomp", series, length, n_jobs=4)
                compute_with("stomp", series, length, n_jobs=2)
                compute_with("brute", series, length, n_jobs=4)
            counters = obs.snapshot()["counters"]
        obs.reset()
        obs.disable()
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 2, messages
        assert any("'stomp'" in m and "n_jobs=4" in m for m in messages)
        assert any("'brute'" in m for m in messages)
        assert counters["engine.n_jobs_ignored"] == 3

    @pytest.mark.parametrize("n_jobs", [None, 1])
    def test_serial_values_do_not_warn(self, n_jobs, oracles):
        import warnings as warnings_mod

        series, length, _ = oracles["short"]
        with obs.tracing(True):
            obs.reset()
            with warnings_mod.catch_warnings(record=True) as caught:
                warnings_mod.simplefilter("always")
                compute_with("stomp", series, length, n_jobs=n_jobs)
            counters = obs.snapshot()["counters"]
        obs.reset()
        obs.disable()
        assert [w for w in caught if w.category is RuntimeWarning] == []
        assert counters.get("engine.n_jobs_ignored", 0) == 0

    def test_fan_out_callers_do_not_warn(self):
        """``n_jobs`` drives Algorithm 3's row blocks in the discord and
        streaming drivers; it must not reach the serial engine and
        trigger the ignored-``n_jobs`` warning there."""
        import warnings as warnings_mod

        from repro.matrixprofile.streaming_valmod import StreamingValmod

        series = np.random.default_rng(3).standard_normal(300).cumsum()
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error", RuntimeWarning)
            find_discords_pruned(series, 16, 20, k=2, n_jobs=2)
            stream = StreamingValmod(series[:240], 16, 20, n_jobs=2)
            stream.extend(series[240:])
            stream.motifs()
            stream.discords()
