import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluxmod import (
    FitDivergence,
    TransmonSpec,
    TruncationTooCoarse,
    ValidationError,
    ej_eff,
    fit_spec,
    fourier_coefficients,
    frequency_curve,
    load_device,
    transition_frequencies,
    transmon,
)
from conftest import Q1_DATA, Q2_DATA, Q3_DATA, Q4_DATA


class TestEjEff:
    def test_hand_value(self):
        # sqrt(12^2 + 4^2 + 2*12*4*cos(pi/3)) = sqrt(208)
        spec = TransmonSpec(ej1_ghz=12.0, ej2_ghz=4.0, ec_ghz=0.2)
        assert ej_eff(spec, 1.0 / 6.0) == pytest.approx(
            14.422205101855956, abs=1e-12
        )

    def test_band_edges(self):
        spec = TransmonSpec(ej1_ghz=17.0, ej2_ghz=3.0, ec_ghz=0.19)
        assert ej_eff(spec, 0.0) == pytest.approx(20.0, abs=1e-12)
        assert ej_eff(spec, 0.5) == pytest.approx(14.0, abs=1e-12)

    def test_periodic_and_even(self):
        spec = TransmonSpec(ej1_ghz=17.0, ej2_ghz=3.0, ec_ghz=0.19)
        flux = np.linspace(-0.5, 0.5, 41)
        vals = ej_eff(spec, flux)
        assert np.allclose(vals, ej_eff(spec, flux + 1.0), atol=1e-12)
        assert np.allclose(vals, ej_eff(spec, -flux), atol=1e-12)


class TestTransitionFrequencies:
    def test_negative_anharmonicity(self, q1):
        f01, f12 = transition_frequencies(q1, 0.0)
        assert f12 - f01 < 0.0

    def test_transmon_asymptotics(self, q1):
        # f01 ~ sqrt(8 EJ EC) - EC holds to a few percent in this regime
        f01, _ = transition_frequencies(q1, 0.0)
        ej = q1.ej1_ghz + q1.ej2_ghz
        approx = math.sqrt(8.0 * ej * q1.ec_ghz) - q1.ec_ghz
        assert abs(f01 - approx) / f01 < 0.03

    def test_array_matches_scalars(self, q1):
        flux = np.array([0.0, 0.13, 0.37, 0.5])
        f01, f12 = transition_frequencies(q1, flux)
        for i, x in enumerate(flux):
            a, b = transition_frequencies(q1, float(x))
            assert f01[i] == pytest.approx(a, abs=1e-12)
            assert f12[i] == pytest.approx(b, abs=1e-12)

    def test_cutoff_convergence(self, q1):
        # doubling the basis must not move the levels
        f01_a, _ = transition_frequencies(q1, 0.21, n_charge=20)
        f01_b, _ = transition_frequencies(q1, 0.21, n_charge=40)
        assert abs(f01_a - f01_b) < 1e-10

    def test_too_small_cutoff_rejected(self, q1):
        with pytest.raises(TruncationTooCoarse):
            transition_frequencies(q1, 0.0, n_charge=3)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        ec=st.floats(0.05, 2.0),
        ej1=st.floats(0.2, 80.0),
        ratio=st.floats(1e-6, 1.0),
        flux=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4),
    )
    def test_parity_blocks_match_dense_solve(self, ec, ej1, ratio, flux):
        spec = TransmonSpec(ej1_ghz=ej1, ej2_ghz=ej1 * ratio, ec_ghz=ec)
        try:
            f01, f12 = transition_frequencies(spec, np.array(flux))
        except TruncationTooCoarse:
            assume(False)
        # reference: the full (2 n_charge + 1)^2 charge-basis matrix
        n = np.arange(-20, 21)
        hop = -0.5 * ej_eff(spec, np.array(flux))
        h = np.zeros((len(flux), n.size, n.size))
        h[:, np.arange(n.size), np.arange(n.size)] = 4.0 * ec * n * n
        h[:, np.arange(n.size - 1), np.arange(1, n.size)] = hop[:, None]
        h[:, np.arange(1, n.size), np.arange(n.size - 1)] = hop[:, None]
        levels = np.linalg.eigvalsh(h)
        assert np.max(np.abs(f01 - (levels[:, 1] - levels[:, 0]))) < 1e-10
        assert np.max(np.abs(f12 - (levels[:, 2] - levels[:, 1]))) < 1e-10


class TestFitSpec:
    @pytest.mark.parametrize("data", [Q1_DATA, Q2_DATA, Q3_DATA, Q4_DATA])
    def test_recovers_targets(self, data):
        f_max, f_min, anharm = data
        spec = fit_spec(f_max, f_min, anharm)
        f01_0, f12_0 = transition_frequencies(spec, 0.0)
        f01_h, _ = transition_frequencies(spec, 0.5)
        assert abs(f01_0 - f_max) < 1e-4
        assert abs(f01_h - f_min) < 1e-4
        assert abs((f12_0 - f01_0) - anharm) < 1e-3

    def test_zero_tunability_rejected(self):
        with pytest.raises(FitDivergence):
            fit_spec(5.0, 5.0, -0.2)

    def test_positive_anharmonicity_rejected(self):
        with pytest.raises(FitDivergence):
            fit_spec(5.0, 4.5, 0.2)

    def test_junction_ordering(self, q3):
        assert q3.ej1_ghz >= q3.ej2_ghz > 0.0


class TestFourierSeries:
    def test_reconstructs_curve(self, q1):
        series = fourier_coefficients(q1)
        rng = np.random.default_rng(42)
        flux = rng.uniform(-0.5, 0.5, 25)
        f01, _ = transition_frequencies(q1, flux)
        assert np.max(np.abs(series.evaluate(flux) - f01)) < 1e-9

    def test_mean_is_leading_coefficient(self, q1):
        series = fourier_coefficients(q1)
        flux = np.arange(4096) / 4096
        f01, _ = transition_frequencies(q1, flux)
        assert series.coefficients[0] == pytest.approx(float(np.mean(f01)), abs=1e-12)

    def test_geometric_decay(self, q1):
        c = np.abs(fourier_coefficients(q1).as_array())
        # several-fold decay per harmonic until the projection noise floor
        ratios = c[2:10] / c[1:9]
        assert np.all(ratios < 0.35)
        assert c[-1] < 1e-12

    def test_f12_channel(self, q1):
        series = fourier_coefficients(q1, channel="f12")
        _, f12 = transition_frequencies(q1, 0.3)
        assert series.evaluate(0.3) == pytest.approx(f12, abs=1e-9)

    @pytest.fixture()
    def diagonalizations(self, monkeypatch):
        """Flux-array sizes of every diagonalization made while the test runs."""
        sizes = []
        original = transmon.transition_frequencies

        def counting(spec, flux_phi0, *args, **kwargs):
            sizes.append(np.size(flux_phi0))
            return original(spec, flux_phi0, *args, **kwargs)

        monkeypatch.setattr(transmon, "transition_frequencies", counting)
        return sizes

    def test_one_half_period_diagonalization_serves_both_channels(
        self, diagonalizations
    ):
        spec = TransmonSpec(ej1_ghz=13.37, ej2_ghz=4.21, ec_ghz=0.217)
        fourier_coefficients(spec, samples=2048)
        fourier_coefficients(spec, channel="f12", samples=2048)
        assert diagonalizations == [2048 // 2 + 1]

    def test_label_does_not_split_the_cache(self, diagonalizations):
        a = TransmonSpec(ej1_ghz=14.2, ej2_ghz=3.9, ec_ghz=0.193, label="a")
        first = fourier_coefficients(a, channel="f12")
        second = fourier_coefficients(replace(a, label="b"), channel="f12")
        assert diagonalizations == [4096 // 2 + 1]
        assert second == first

    def test_validation(self, q1):
        with pytest.raises(ValidationError):
            fourier_coefficients(q1, n_terms=3)
        with pytest.raises(ValidationError):
            fourier_coefficients(q1, channel="f02")
        with pytest.raises(ValidationError):
            fourier_coefficients(q1, n_terms=24, samples=128)


def test_frequency_curve_export(q1, tmp_path):
    curve = frequency_curve(q1, points=11)
    out = tmp_path / "curve.csv"
    curve.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "flux_phi0,f01_ghz,f12_ghz"
    assert len(lines) == 12


class TestLoadDevice:
    def test_band_edge_entries(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(
            json.dumps(
                {
                    "qubits": {
                        "a": {
                            "f01_max_ghz": 5.25,
                            "f01_min_ghz": 4.426,
                            "anharm_ghz": -0.205,
                        },
                        "b": {"ej1_ghz": 12.0, "ej2_ghz": 4.0, "ec_ghz": 0.2},
                    },
                    "pairs": [
                        {"modulated": "a", "neighbor": "b", "coupling_mhz": 3.5,
                         "tls_ghz": [4.7]}
                    ],
                }
            )
        )
        dev = load_device(path)
        f01, _ = transition_frequencies(dev.qubits["a"], 0.0)
        assert f01 == pytest.approx(5.25, abs=1e-4)
        assert dev.qubits["b"].ej1_ghz == 12.0
        pair = dev.pair("a", "b")
        assert pair.coupling_mhz == 3.5
        assert pair.tls_ghz == (4.7,)
        with pytest.raises(ValidationError):
            dev.pair("b", "a")

    def test_malformed_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"qubits": {"a": {"f01_max_ghz": 5.0}}}))
        with pytest.raises(ValidationError):
            load_device(path)
        path.write_text(json.dumps({"nothing": []}))
        with pytest.raises(ValidationError):
            load_device(path)
        path.write_text(
            json.dumps(
                {
                    "qubits": {"a": {"ej1_ghz": 12.0, "ej2_ghz": 4.0, "ec_ghz": 0.2}},
                    "pairs": [{"modulated": "a", "neighbor": "ghost",
                               "coupling_mhz": 3.0}],
                }
            )
        )
        with pytest.raises(ValidationError):
            load_device(path)


def test_spec_validation():
    with pytest.raises(ValidationError):
        TransmonSpec(ej1_ghz=-1.0, ej2_ghz=1.0, ec_ghz=0.2)
    with pytest.raises(ValidationError):
        TransmonSpec(ej1_ghz=4.0, ej2_ghz=12.0, ec_ghz=0.2)
    with pytest.raises(ValidationError):
        TransmonSpec(ej1_ghz=12.0, ej2_ghz=4.0, ec_ghz=0.0)
