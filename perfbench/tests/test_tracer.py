import math

import fluxmod
import numpy as np
import pytest

import tracer as tracing
from workloads import STUDY_QUBITS


def test_wrapper_passes_values_and_exceptions():
    tr = tracing.Tracer()
    tr.active = True

    def ok(x, *, y=1):
        return x + y

    def boom():
        raise KeyError("k")

    assert tr.wrap("t.ok", ok)(2, y=3) == 5
    with pytest.raises(KeyError):
        tr.wrap("t.boom", boom)()
    assert [s.name for s in tr.spans] == ["t.ok", "t.boom"]
    assert all(s.end >= s.start for s in tr.spans)


def test_inactive_wrapper_records_nothing():
    tr = tracing.Tracer()
    assert tr.wrap("t.f", lambda: 7)() == 7
    assert tr.spans == []


def test_install_rebinds_every_namespace_and_uninstall_restores():
    original = fluxmod.transmon.transition_frequencies
    tr = tracing.Tracer()
    tr.install()
    try:
        for ns in (fluxmod, fluxmod.transmon, fluxmod.modulation, fluxmod.gates):
            assert ns.transition_frequencies is not original
        spec = fluxmod.fit_spec(*STUDY_QUBITS["q1"], label="q1")
        tr.active = True
        f01, _ = fluxmod.transition_frequencies(spec, np.array([0.0, 0.25]))
        assert np.array_equal(f01, original(spec, np.array([0.0, 0.25]))[0])
        with pytest.raises(fluxmod.NoRoot):
            fluxmod.sweet_spot_solve(spec, 0.0, 1, 0.0, 0.0, window=(0.05, 0.1))
    finally:
        tr.active = False
        tr.uninstall()
    assert fluxmod.transmon.transition_frequencies is original
    assert fluxmod.modulation.transition_frequencies is original
    stats = tracing.layer_stats(tr.spans)
    assert stats["transmon.transition_frequencies"]["points"] >= 2
    assert stats["modulation.sweet_spot_solve"]["no_root"] == 1


def test_self_times_nonnegative_and_within_wall():
    spec = fluxmod.fit_spec(*STUDY_QUBITS["q3"], label="q3")
    nb = fluxmod.fit_spec(*STUDY_QUBITS["q4"], label="q4")
    pair = fluxmod.PairSpec(spec, nb, 4.0)
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.active = True
        t0 = tr.clock()
        [(amp, _)] = fluxmod.sweet_spot_solve(spec, 0.0, 1, 0.0, 0.0)
        point = fluxmod.operating_point(
            spec, fluxmod.BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=amp, p=1))
        fluxmod.plan_gate(pair, point, fluxmod.GateType.ISWAP, -2)
        wall = tr.clock() - t0
    finally:
        tr.active = False
        tr.uninstall()
    assert {"gates.plan_gate", "modulation.sideband_weights",
            "transmon.fourier_coefficients"} <= {s.name for s in tr.spans}
    assert all(s.self_s >= -1e-9 for s in tr.spans)
    assert sum(s.self_s for s in tr.spans) <= wall + 1e-9
    assert math.isclose(sum(s.self_s for s in tr.spans),
                        tracing.covered_time(tr.spans), rel_tol=1e-9)


def test_series_cache_hit_and_miss_from_span_tree():
    spec = fluxmod.fit_spec(5.1, 4.7, -0.2, label="cache-probe")
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.active = True
        fluxmod.fourier_coefficients(spec)
        fluxmod.fourier_coefficients(spec)
    finally:
        tr.active = False
        tr.uninstall()
    assert tracing.layer_stats(tr.spans)["transmon.series_cache"] == {
        "hits": 1.0, "misses": 1.0}
