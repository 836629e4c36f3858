import json

import pytest
from click.testing import CliRunner

from fluxmod import load_device
from fluxmod.cli import main

from conftest import Q1_DATA, Q2_DATA


@pytest.fixture(scope="session")
def device_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("device") / "device.json"
    data = {
        "qubits": {
            "q1": {
                "f01_max_ghz": Q1_DATA[0],
                "f01_min_ghz": Q1_DATA[1],
                "anharm_ghz": Q1_DATA[2],
            },
            "q2": {
                "f01_max_ghz": Q2_DATA[0],
                "f01_min_ghz": Q2_DATA[1],
                "anharm_ghz": Q2_DATA[2],
            },
        },
        "pairs": [
            {"modulated": "q1", "neighbor": "q2", "coupling_mhz": 4.0},
        ],
    }
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, device_file, out, *args, seed=0, jobs=1):
    argv = [
        "--spec", device_file, "--out", str(out), "--seed", str(seed),
        "--jobs", str(jobs), *args,
    ]
    return runner.invoke(main, argv, catch_exceptions=False)


class TestSweep:
    def test_writes_csv_and_manifest(self, runner, device_file, tmp_path):
        res = _invoke(runner, device_file, tmp_path, "sweep", "--qubit", "q1",
                      "--points", "41")
        assert res.exit_code == 0
        csv = (tmp_path / "sweep_q1.csv").read_text()
        lines = csv.splitlines()
        assert lines[0].startswith("# fluxmod v")
        assert "seed=0" in lines[0]
        assert lines[1] == "flux_phi0,f01_ghz,f12_ghz"
        assert lines[-1].startswith("# f01(0)=")
        manifest = json.loads((tmp_path / "sweep_run.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["outputs"] == ["sweep_q1.csv"]
        assert len(manifest["config_hash"]) == 12
        assert "f01(0)=5.2499" in res.output

    def test_kept_result_does_not_keep_the_fitted_device(
        self, runner, device_file, tmp_path, monkeypatch
    ):
        # a kept result holds the command's context through its traceback
        import gc
        import weakref

        import fluxmod.cli

        fitted = []

        def loading(path):
            device = load_device(path)
            fitted.append(weakref.ref(device))
            return device

        monkeypatch.setattr(fluxmod.cli, "load_device", loading)
        res = _invoke(runner, device_file, tmp_path, "sweep", "--qubit", "q1",
                      "--points", "5")
        assert res.exit_code == 0 and len(fitted) == 1
        gc.collect()
        assert fitted[0]() is None

    def test_unknown_qubit_exits_2(self, runner, device_file, tmp_path):
        res = _invoke(runner, device_file, tmp_path, "sweep", "--qubit", "zz")
        assert res.exit_code == 2
        assert "no qubit" in res.stderr

    def test_ambiguous_qubit_exits_2(self, runner, device_file, tmp_path):
        res = _invoke(runner, device_file, tmp_path, "sweep")
        assert res.exit_code == 2

    def test_missing_spec_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "sweep"],
                            catch_exceptions=False)
        assert res.exit_code == 2
        assert "--spec" in res.stderr


class TestAtlas:
    ARGS = ("atlas", "--qubit", "q1", "--alpha-max", "0.1",
            "--alpha-points", "4", "--theta-points", "4")

    def test_reports_span_and_footer(self, runner, device_file, tmp_path):
        res = _invoke(runner, device_file, tmp_path, *self.ARGS)
        assert res.exit_code == 0
        lines = (tmp_path / "atlas_q1.csv").read_text().splitlines()
        assert lines[1] == (
            "alpha_rad,theta_rad,phi_ac_phi0,fbar_ghz,"
            "dfdac_ghz_per_phi0,sweet_flag"
        )
        assert lines[-1].startswith("# sweet_points=")
        assert "span_mhz=" in res.output

    def test_same_seed_is_byte_identical(self, runner, device_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _invoke(runner, device_file, a, *self.ARGS)
        _invoke(runner, device_file, b, *self.ARGS)
        assert (a / "atlas_q1.csv").read_bytes() == (b / "atlas_q1.csv").read_bytes()
        assert (a / "atlas_run.json").read_bytes() == (b / "atlas_run.json").read_bytes()

    def test_seed_changes_the_stamp(self, runner, device_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _invoke(runner, device_file, a, *self.ARGS, seed=0)
        _invoke(runner, device_file, b, *self.ARGS, seed=1)
        head_a = (a / "atlas_q1.csv").read_text().splitlines()[0]
        head_b = (b / "atlas_q1.csv").read_text().splitlines()[0]
        assert head_a != head_b

    def test_jobs_do_not_change_output(self, runner, device_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _invoke(runner, device_file, a, *self.ARGS, jobs=1)
        _invoke(runner, device_file, b, *self.ARGS, jobs=2)
        text_a = (a / "atlas_q1.csv").read_text()
        text_b = (b / "atlas_q1.csv").read_text()
        assert text_a.splitlines()[1:] == text_b.splitlines()[1:]

    def test_bad_jobs_exits_2(self, runner, device_file, tmp_path):
        res = _invoke(runner, device_file, tmp_path, *self.ARGS, jobs=0)
        assert res.exit_code == 2


class TestPlan:
    def test_mono_plan_reports_the_known_collision(self, runner, device_file,
                                                   tmp_path):
        res = _invoke(runner, device_file, tmp_path, "plan", "--pair", "q1:q2",
                      "--gate", "cz02", "--k=-2", "--p", "1")
        assert res.exit_code == 0
        assert "collision:" in res.output
        assert "iswap k=-4" in res.output
        payload = json.loads((tmp_path / "plan_q1-q2_cz02.json").read_text())
        assert payload["gate_type"] == "cz02"
        assert payload["seed"] == 0
        assert len(payload["config_hash"]) == 12
        assert payload["collisions"][0]["gate_type"] == "iswap"
        res_csv = (tmp_path / "resonances_q1-q2.csv").read_text().splitlines()
        assert res_csv[1] == "gate,k,phi_ac_phi0,fm_mhz"

    def test_bichro_plan_is_clean(self, runner, device_file, tmp_path):
        res = _invoke(runner, device_file, tmp_path, "plan", "--pair", "q1:q2",
                      "--gate", "cz02", "--k=-2", "--p", "3",
                      "--alpha", "0.085", "--theta", "-0.06")
        assert res.exit_code == 0
        assert "collision: none within bandwidth" in res.output

    def test_optimize_small_grid(self, runner, device_file, tmp_path):
        res = _invoke(runner, device_file, tmp_path, "plan", "--pair", "q1:q2",
                      "--gate", "iswap", "--k=-4", "--p", "3",
                      "--optimize", "--grid", "8")
        assert res.exit_code == 0
        payload = json.loads((tmp_path / "plan_q1-q2_iswap.json").read_text())
        assert payload["collisions"] == []
        assert payload["g_eff_mhz"] > 0.0

    def test_optimize_jobs_do_not_change_the_plan(self, runner, device_file, tmp_path):
        # the grid atlas runs on two workers; only the manifest's jobs differs
        args = ("plan", "--pair", "q1:q2", "--gate", "cz02", "--k=-8", "--optimize",
                "--grid", "8")
        a, b = tmp_path / "a", tmp_path / "b"
        res_a = _invoke(runner, device_file, a, *args, jobs=1)
        res_b = _invoke(runner, device_file, b, *args, jobs=2)
        assert res_a.exit_code == res_b.exit_code == 0
        assert res_a.output.replace(str(a), "") == res_b.output.replace(str(b), "")
        for name in ("plan_q1-q2_cz02.json", "resonances_q1-q2.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        run_a, run_b = (json.loads((d / "plan_run.json").read_text()) for d in (a, b))
        assert (run_a.pop("jobs"), run_b.pop("jobs")) == (1, 2)
        assert run_a == run_b

    def test_infeasible_cap_exits_3(self, runner, device_file, tmp_path):
        res = _invoke(runner, device_file, tmp_path, "plan", "--pair", "q1:q2",
                      "--k=-2", "--optimize", "--grid", "4",
                      "--max-fm-mhz", "10")
        assert res.exit_code == 3

    def test_vanishing_order_exits_3(self, runner, device_file, tmp_path):
        # the single-tone sweet spot's odd orders cancel
        res = _invoke(runner, device_file, tmp_path, "plan", "--pair", "q1:q2",
                      "--gate", "cz02", "--k=-3", "--p", "1")
        assert res.exit_code == 3
        assert "certified 1e-13 tail" in res.stderr

    def test_bad_root_index_exits_2(self, runner, device_file, tmp_path):
        res = _invoke(runner, device_file, tmp_path, "plan", "--pair", "q1:q2",
                      "--k=-2", "--root-index", "9")
        assert res.exit_code == 2

    def test_bad_pair_exits_2(self, runner, device_file, tmp_path):
        res = _invoke(runner, device_file, tmp_path, "plan", "--pair", "q1")
        assert res.exit_code == 2

    def test_unfittable_device_exits_4(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "qubits": {"qx": {"f01_max_ghz": 5.0, "f01_min_ghz": 5.0,
                              "anharm_ghz": -0.2}},
        }))
        runner2 = CliRunner()
        res = runner2.invoke(
            main,
            ["--spec", str(bad), "--out", str(tmp_path / "out"), "sweep"],
            catch_exceptions=False,
        )
        assert res.exit_code == 4


class TestChevron:
    def test_writes_map_with_footer(self, runner, device_file, tmp_path):
        res = _invoke(runner, device_file, tmp_path, "chevron", "--pair", "q1:q2",
                      "--gate", "cz02", "--k=-2", "--p", "1",
                      "--n-fm", "7", "--n-t", "7", "--halfspan-mhz", "2")
        assert res.exit_code == 0
        lines = (tmp_path / "chevron_q1-q2_cz02.csv").read_text().splitlines()
        assert lines[1] == "fm_mhz,duration_ns,population"
        assert lines[-1].startswith("# resonance_fm_mhz=")
        assert len(lines) == 3 + 49
        manifest = json.loads((tmp_path / "chevron_run.json").read_text())
        assert manifest["command"] == "chevron"


class TestCalibrate:
    def test_synthetic_scenario(self, runner, device_file, tmp_path):
        res = _invoke(runner, device_file, tmp_path, "calibrate", "--qubit", "q1")
        assert res.exit_code == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert payload["theta0_rad"] == pytest.approx(0.25, abs=1e-6)
        assert abs(payload["residual_khz"]) < 1e-3
        tf_lines = (tmp_path / "tf_estimate.csv").read_text().splitlines()
        assert tf_lines[1] == "freq_mhz,transmission"
        assert "theta0=0.250000" in res.output

    def test_scenario_file(self, runner, device_file, tmp_path, q1):
        from fluxmod import VirtualHardware, save_scenario

        scen = tmp_path / "scen.json"
        save_scenario(VirtualHardware(spec=q1, theta0_rad=-0.1), scen)
        res = _invoke(runner, device_file, tmp_path, "calibrate",
                      "--scenario", str(scen),
                      "--probes", "30,60,80,120,160,240,300")
        assert res.exit_code == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert payload["theta0_rad"] == pytest.approx(-0.1, abs=1e-6)


class Scenario(dict):
    """A scenario file body; the test writes it and passes its path for SCENARIO."""


def _scenario_with(**qubit):
    return Scenario({
        "qubit": {"ej1_ghz": 20.0, "ej2_ghz": 10.0, "ec_ghz": 0.2, "label": "q", **qubit},
        "transfer_function": [[10.0, 1.0], [100.0, 0.9], [200.0, 0.8], [500.0, 0.5]],
        "hidden_theta0_rad": 0.1,
        "noise_sigma_khz": 0.0,
        "seed": 0,
        "randomize_theta0": False,
    })


def _device_with(qubit_q1=None, pair=None):
    q1 = {"f01_max_ghz": Q1_DATA[0], "f01_min_ghz": Q1_DATA[1], "anharm_ghz": Q1_DATA[2]}
    q2 = {"f01_max_ghz": Q2_DATA[0], "f01_min_ghz": Q2_DATA[1], "anharm_ghz": Q2_DATA[2]}
    return {
        "qubits": {"q1": qubit_q1 or q1, "q2": q2},
        "pairs": [pair or {"modulated": "q1", "neighbor": "q2", "coupling_mhz": 4.0}],
    }


CHEVRON = ("chevron", "--pair", "q1:q2", "--k=-2", "--p", "1")


@pytest.mark.parametrize(
    "device, args, named",
    [
        (None, ("plan", "--pair", "q1:q2", "--k=-2", "--alpha", "nan"), "alpha"),
        (None, ("calibrate", "--qubit", "q1", "--fm-mhz", "nan"), "fm_mhz"),
        (
            _device_with(pair={"modulated": "q1", "neighbor": "q2"}),
            ("plan", "--pair", "q1:q2", "--k=-2"),
            "coupling_mhz",
        ),
        (
            _device_with(qubit_q1={"ej1_ghz": 17.0, "ec_ghz": 0.19}),
            ("sweep", "--qubit", "q1"),
            "ej2_ghz",
        ),
        (
            _device_with(
                qubit_q1={"f01_max_ghz": "nan", "f01_min_ghz": 4.4, "anharm_ghz": -0.2}
            ),
            ("sweep", "--qubit", "q1"),
            "f01_max_ghz",
        ),
        (
            None,
            ("plan", "--pair", "q1:q2", "--k=-2", "--p", "1", "--bandwidth-mhz", "nan"),
            "bandwidth_mhz",
        ),
        (None, ("plan", "--pair", "q1:q2", "--k=-2", "--p", "1", "--tls", "nan"), "tls_ghz"),
        (
            None,
            ("plan", "--pair", "q1:q2", "--k=-8", "--optimize", "--grid", "4",
             "--max-fm-mhz", "nan"),
            "max_fm_mhz",
        ),
        (None, ("atlas", "--qubit", "q1", "--phi-dc", "nan"), "phi_dc"),
        (None, ("atlas", "--qubit", "q1", "--alpha-min", "nan"), "alpha"),
        ({**_device_with(), "qubits": {"q1": 5}}, ("sweep", "--qubit", "q1"), "'q1'"),
        (
            _device_with(
                qubit_q1={"f01_max_ghz": "abc", "f01_min_ghz": 4.4, "anharm_ghz": -0.2}
            ),
            ("sweep", "--qubit", "q1"),
            "f01_max_ghz",
        ),
        (
            {**_device_with(), "pairs": {"q1:q2": {"coupling_mhz": 4.0}}},
            ("sweep", "--qubit", "q1"),
            "pairs",
        ),
        ('{"qubits": {"q1": ', ("sweep", "--qubit", "q1"), "JSON"),
        (
            _device_with(pair={"modulated": "q1", "neighbor": "q1", "coupling_mhz": 4.0}),
            ("plan", "--pair", "q1:q1", "--k=-2"),
            "itself",
        ),
        (
            {**_device_with(), "pairs": 2 * _device_with()["pairs"]},
            ("sweep", "--qubit", "q1"),
            "listed twice",
        ),
        (
            _device_with(pair={"modulated": "q1", "neighbor": "q2", "coupling_mhz": 4.0,
                               "tls_ghz": "5"}),
            ("sweep", "--qubit", "q1"),
            "tls_ghz",
        ),
        (
            _device_with(pair={"modulated": "q1", "neighbor": "q2", "coupling_mhz": 4.0,
                               "tls_gz": [4.5]}),
            ("plan", "--pair", "q1:q2", "--k=-2", "--p", "1"),
            "tls_gz",
        ),
        (
            _device_with(qubit_q1={"f01_max_ghz": 5.25, "f01_min_ghz": 4.4,
                                   "anharm_ghz": -0.2, "ec_ghz": 0.2}),
            ("sweep", "--qubit", "q1"),
            "ec_ghz",
        ),
        ({**_device_with(), "pair": []}, ("sweep", "--qubit", "q1"), "'pair'"),
        (
            Scenario({**_scenario_with(), "qubit": {"ej1_ghz": 20.0, "ec_ghz": 0.2}}),
            ("calibrate", "--scenario", "SCENARIO"),
            "ej2_ghz",
        ),
        (_scenario_with(ej1_ghz="20"), ("calibrate", "--scenario", "SCENARIO"), "ej1_ghz"),
        (
            Scenario({**_scenario_with(), "seed": "0"}),
            ("calibrate", "--scenario", "SCENARIO"),
            "seed",
        ),
        (
            Scenario({**_scenario_with(), "noise_khz": 2.0}),
            ("calibrate", "--scenario", "SCENARIO"),
            "noise_khz",
        ),
        (None, ("atlas", "--qubit", "q1", "--alpha-points", "-1"), "--alpha-points"),
        (None, ("atlas", "--qubit", "q1", "--theta-points", "0"), "--theta-points"),
        (None, ("calibrate", "--qubit", "q1", "--probes", "abc"), "--probes"),
        (None, ("calibrate", "--qubit", "q1", "--probes", "30,inf,150,250"), "--probes"),
        (None, ("sweep", "--qubit", "q1", "--flux-min", "nan"), "flux_min"),
        (None, ("sweep", "--qubit", "q1", "--flux-max", "inf"), "flux_max"),
        (None, (*CHEVRON, "--halfspan-mhz", "nan"), "fm_halfspan_mhz"),
        (None, (*CHEVRON, "--halfspan-mhz", "1e308"), "fm_halfspan_mhz"),
        (None, (*CHEVRON, "--t-max-ns", "-1"), "t_max_ns"),
        (None, (*CHEVRON, "--t-max-ns", "inf"), "t_max_ns"),
        (
            Scenario({**_scenario_with(), "transfer_function": [
                [10.0, 1.0], [20.0, 0.9], [30.0, 0.8], [1e300, 0.5],
            ]}),
            ("calibrate", "--scenario", "SCENARIO"),
            "transfer function table",
        ),
    ],
    ids=[
        "alpha-nan", "fm-nan", "pair-no-coupling", "qubit-no-ej2", "f01-max-nan",
        "bandwidth-nan", "tls-nan", "max-fm-nan", "atlas-phi-dc-nan", "atlas-alpha-nan",
        "qubit-not-mapping", "value-not-number", "pairs-not-list", "invalid-json",
        "self-pair", "duplicate-pair", "tls-not-list", "pair-unknown-key",
        "qubit-unknown-key", "top-level-unknown-key", "scenario-no-ej2",
        "scenario-string-number", "scenario-seed-string", "scenario-unknown-key",
        "atlas-alpha-points-negative", "atlas-theta-points-zero", "probes-not-numbers",
        "probes-not-finite", "sweep-flux-min-nan", "sweep-flux-max-inf",
        "chevron-halfspan-nan", "chevron-halfspan-huge", "chevron-t-max-negative",
        "chevron-t-max-inf", "scenario-transfer-overflow",
    ],
)
def test_bad_input_exits_2_naming_it(runner, device_file, tmp_path, device, args, named):
    spec = device_file
    if isinstance(device, Scenario):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(device))
        args = tuple(str(scenario) if a == "SCENARIO" else a for a in args)
    elif device is not None:
        spec = tmp_path / "device.json"
        spec.write_text(device if isinstance(device, str) else json.dumps(device))
    res = runner.invoke(
        main, ["--spec", str(spec), "--out", str(tmp_path / "out"), *args]
    )
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert named in res.stderr
    assert "Traceback" not in res.output


def test_version_flag(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
