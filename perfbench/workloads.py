"""Seeded workloads: input generators, timed requests and output checks.

Each workload draws its requests from ``numpy.random.default_rng(seed)``;
the program only ever sees the generated inputs.  ``run`` is the timed
part of a request and calls into fluxmod through its package and module
namespaces at call time, so wrappers installed by the tracer are seen.
``verdict`` runs outside the timed region and sorts a finished request into
ok, refused (``NoRoot`` or CLI exit 2/3) or failed (anything else that
went wrong, including a failed output check).

Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import json
import math
import re
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator

import numpy as np

TURN = 2.0 * math.pi

# band-edge data of the four study qubits (f01 at zero flux, f01 at half
# flux, anharmonicity; GHz), the same numbers as tests/conftest.py
STUDY_QUBITS = {
    "q1": (5.250, 5.250 - 0.824, -0.205),
    "q2": (4.269, 4.269 - 0.401, -0.187),
    "q3": (4.791, 4.791 - 1.074, -0.206),
    "q4": (3.365, 3.365 - 0.170, -0.201),
}
STUDY_PAIRS = (("q1", "q2"), ("q3", "q4"))
COUPLING_MHZ = 4.0

# acceptance-01 tolerance of the series route against the diagonalization
# oracle, and the calibration residual limit of acceptance-09
ORACLE_TOL_GHZ = 1e-6
RESONANCE_TOL_GHZ = 1e-9
RESIDUAL_LIMIT_KHZ = 2.0
BESSEL_M_MAX = 64

PROVENANCE = re.compile(r"^# fluxmod v\S+ seed=-?\d+ config=[0-9a-f]{12}$")


@dataclass
class Record:
    """One finished request: inputs, answer or exception, latency."""

    request: dict
    answer: Any
    error: BaseException | None
    latency_s: float


def _fit_study(fm) -> dict:
    return {name: fm.fit_spec(*data, label=name) for name, data in STUDY_QUBITS.items()}


class Workload:
    name = ""
    # requests per traced pass per second of --seconds; fixed, so traced
    # totals compare across commits
    trace_rate = 1.0
    # output checks per run, evenly spaced over the requests; 0 checks all
    max_checks = 0
    # untimed requests of a traced run drawn from ``probe_requests``
    probes = 0

    def __init__(self, fm, workdir: Path):
        self.fm = fm
        self.workdir = workdir

    def setup(self, warm_seed: int) -> None:
        """Fit the device, warm caches, and run one warm-up request."""
        self.prepare()
        self.run(next(self.requests(np.random.default_rng(warm_seed))))

    def prepare(self) -> None:
        raise NotImplementedError

    def requests(self, rng: np.random.Generator) -> Iterator[dict]:
        raise NotImplementedError

    def probe_requests(self, rng: np.random.Generator) -> Iterator[dict]:
        raise NotImplementedError

    def run(self, req: dict) -> Any:
        raise NotImplementedError

    def refused(self, rec: Record) -> str | None:
        if isinstance(rec.error, self.fm.NoRoot):
            return f"NoRoot: {rec.error}"
        return None

    def exit_codes(self, rec: Record) -> list[int]:
        """CLI exit codes of a request; empty for library workloads."""
        return []

    def errors(self, rec: Record) -> list[str]:
        """Failures visible without checking the answer's content."""
        return [] if rec.error is None else [f"{type(rec.error).__name__}: {rec.error}"]

    def check(self, req: dict, answer: Any) -> list[str]:
        """Problems found in a returned answer; empty when it is correct."""
        raise NotImplementedError

    def verdict(self, rec: Record, checked: bool) -> tuple[str, str]:
        """('ok' | 'refused' | 'failed', reason) for a finished request."""
        reason = self.refused(rec)
        if reason is not None:
            return "refused", reason
        problems = self.errors(rec)
        if not problems and checked:
            problems = self.check(rec.request, rec.answer)
        return ("failed", "; ".join(problems)) if problems else ("ok", "")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Atlas(Workload):
    """One sweet_spot_atlas call: a seeded alpha row times a short theta line."""

    name = "atlas"
    trace_rate = 5.5
    max_checks = 12
    theta_points = 6

    def prepare(self) -> None:
        self.specs = _fit_study(self.fm)
        for spec in self.specs.values():
            self.fm.fourier_coefficients(spec)

    def requests(self, rng):
        names = sorted(self.specs)
        while True:
            offset = rng.uniform(0.0, 1.0 / self.theta_points)
            yield {
                "qubit": names[int(rng.integers(len(names)))],
                "p": int(rng.choice([3, 5])),
                "phi_dc": float(rng.uniform(-0.02, 0.02)),
                "alpha": float(rng.uniform(0.0, 0.25)) * TURN,
                "thetas": [
                    (offset + i / self.theta_points - 0.5) * TURN
                    for i in range(self.theta_points)
                ],
                "pick": int(rng.integers(1 << 30)),
            }

    def run(self, req):
        return self.fm.sweet_spot_atlas(
            self.specs[req["qubit"]], req["phi_dc"], req["p"], [req["alpha"]],
            req["thetas"], jobs=1,
        )

    def check(self, req, result):
        fm = self.fm
        nodes = len(req["thetas"])
        if result.n_grid_nodes != nodes:
            return [f"atlas reports {result.n_grid_nodes} nodes for {nodes}"]
        if not result.points:
            return [] if result.n_no_root == nodes else ["no points and no NoRoot count"]
        spec = self.specs[req["qubit"]]
        pt = result.points[req["pick"] % len(result.points)]
        problems = []
        oracle = fm.avg_frequency_timedomain(spec, pt.pulse)
        if abs(pt.f_bar_ghz - oracle) > ORACLE_TOL_GHZ:
            problems.append(
                f"fbar {pt.f_bar_ghz:.9f} GHz vs time-domain {oracle:.9f} GHz"
            )
        # the solver bisects to xtol=1e-6, so a true stationary point lies
        # inside amp +- 2 xtol and the Bessel-route slope changes sign there
        series = fm.fourier_coefficients(spec)
        amp, xtol, h = pt.pulse.phi_ac_phi0, 1e-6, 2.5e-7

        def slope(a: float) -> float:
            hi = fm.avg_frequency_bessel(
                series, replace(pt.pulse, phi_ac_phi0=a + h), m_max=BESSEL_M_MAX)
            lo = fm.avg_frequency_bessel(
                series, replace(pt.pulse, phi_ac_phi0=a - h), m_max=BESSEL_M_MAX)
            return (hi - lo) / (2.0 * h)

        left, right = slope(amp - 2.0 * xtol), slope(amp + 2.0 * xtol)
        if left * right >= 0.0:
            problems.append(
                f"dfbar/dphi_ac does not change sign around {amp:.7f} "
                f"({left:.3e}, {right:.3e})"
            )
        return problems


KS = (-2, -4, -6, -8)


class Plan(Workload):
    """Solve one seeded operating point, then plan every gate type x k."""

    name = "plan"
    trace_rate = 8.0

    def prepare(self) -> None:
        fm = self.fm
        self.specs = _fit_study(fm)
        self.pairs = {
            f"{a}:{b}": fm.PairSpec(self.specs[a], self.specs[b], COUPLING_MHZ)
            for a, b in STUDY_PAIRS
        }
        for pair in self.pairs.values():
            for channel in ("f01", "f12"):
                fm.fourier_coefficients(pair.modulated, channel=channel)

    def requests(self, rng):
        names = sorted(self.pairs)
        while True:
            p = int(rng.choice([1, 3]))
            # single-tone drives lose their stationary point once the two
            # components cancel (alpha >= 0.05 turn near theta = 1/2 turn)
            alpha_max = 0.03 if p == 1 else 0.1
            yield {
                "pair": names[int(rng.integers(len(names)))],
                "p": p,
                "alpha": float(rng.uniform(0.0, alpha_max)) * TURN,
                "theta": float(rng.uniform(-0.5, 0.5)) * TURN,
            }

    def run(self, req):
        fm = self.fm
        pair = self.pairs[req["pair"]]
        roots = fm.sweet_spot_solve(
            pair.modulated, 0.0, req["p"], req["alpha"], req["theta"])
        pulse = fm.BichromaticPulse(
            fm_mhz=100.0, phi_ac_phi0=roots[0][0], alpha_rad=req["alpha"],
            theta_rad=req["theta"], p=req["p"],
        )
        point = fm.operating_point(pair.modulated, pulse)
        plans = {}
        for gate in fm.GateType:
            for k in KS:
                try:
                    plans[(gate, k)] = fm.plan_gate(pair, point, gate, k)
                except fm.WrongSideband:
                    plans[(gate, k)] = None
        return point, plans

    def check(self, req, answer):
        fm = self.fm
        point, plans = answer
        pair = self.pairs[req["pair"]]
        f01n, f12n = fm.transition_frequencies(pair.neighbor, pair.neighbor_phi_dc_phi0)
        problems = []
        fbars: dict = {}  # f-bar does not depend on fm, so one per ladder and pulse
        for (gate, k), plan in plans.items():
            target = f12n if gate.neighbor_channel == "f12" else f01n
            pulse = point.pulse if plan is None else plan.pulse
            key = (gate.ladder_channel, replace(pulse, fm_mhz=1.0))
            if key not in fbars:
                series = fm.fourier_coefficients(pair.modulated, channel=key[0])
                fbars[key] = fm.avg_frequency_bessel(series, pulse, m_max=BESSEL_M_MAX)
            fbar = fbars[key]
            tag = f"{gate.value} k={k}"
            if plan is None:
                if (target - fbar) / k > RESONANCE_TOL_GHZ:
                    problems.append(f"{tag}: refused as WrongSideband but reachable")
                continue
            miss = fbar + k * plan.fm_mhz * 1e-3 - target
            if abs(miss) > RESONANCE_TOL_GHZ:
                problems.append(f"{tag}: sideband misses target by {miss:.3e} GHz")
            if plan.duration_ns != fm.gate_duration(gate, plan.g_eff_mhz):
                problems.append(f"{tag}: duration_ns != gate_duration(g_eff)")
        return problems


# Tunability (f01_max - f01_min) that splits the bringup range. Above it
# the 24-harmonic series misses the time-domain oracle and calibrate can
# recover the phase offset on the wrong branch, so some requests fail their
# checks; every request below it passes.
WIDE_TUNING_GHZ = 2.0


class Bringup(Workload):
    """Fresh two-qubit device file, then CLI sweep, plan and calibrate.

    The timed loop draws tunability from the study device's narrowest qubit
    (0.17 GHz) up to WIDE_TUNING_GHZ. The rest of the range, up to
    f01_min = f01_max / 3, is run as untimed probes in a traced run, and
    their failures are reported as a count of their own.
    """

    name = "bringup"
    trace_rate = 0.9
    probes = 8

    def prepare(self) -> None:
        from click.testing import CliRunner

        import fluxmod.cli

        self.cli = fluxmod.cli
        self.runner = CliRunner()
        self.count = 0

    def requests(self, rng):
        return self._devices(rng, lambda f_max: (0.17, WIDE_TUNING_GHZ))

    def probe_requests(self, rng):
        return self._devices(rng, lambda f_max: (WIDE_TUNING_GHZ, f_max * 2.0 / 3.0))

    def _devices(self, rng, tuning):
        while True:
            f_max = float(rng.uniform(5.0, 6.0))
            f_min = f_max - float(rng.uniform(*tuning(f_max)))
            # a neighbor below the whole band keeps every k < 0 iSWAP reachable
            n_max = f_min - float(rng.uniform(0.15, 0.45))
            n_min = n_max - float(rng.uniform(0.1, 0.4))
            device = {
                "qubits": {
                    "qm": {"f01_max_ghz": f_max, "f01_min_ghz": f_min,
                           "anharm_ghz": float(rng.uniform(-0.22, -0.18))},
                    "qn": {"f01_max_ghz": n_max, "f01_min_ghz": n_min,
                           "anharm_ghz": float(rng.uniform(-0.22, -0.18))},
                },
                "pairs": [{"modulated": "qm", "neighbor": "qn",
                           "coupling_mhz": float(rng.uniform(2.0, 6.0)),
                           "tls_ghz": []}],
            }
            yield {
                "device": device,
                "seed": int(rng.integers(1 << 20)),
                "k": int(rng.choice([-2, -4])),
                "fm_mhz": float(rng.uniform(60.0, 110.0)),
                "amp": float(rng.uniform(0.3, 0.45)),
                "alpha": float(rng.uniform(0.05, 0.15)),
                "theta": float(rng.uniform(-0.1, 0.1)),
                "theta0": float(rng.uniform(-0.5, 0.5)),
            }

    def _commands(self, req: dict, spec: Path, out: Path) -> list[list[str]]:
        base = ["--spec", str(spec), "--out", str(out), "--seed", str(req["seed"])]
        return [
            base + ["sweep", "--qubit", "qm"],
            base + ["plan", "--pair", "qm:qn", "--gate", "iswap", f"--k={req['k']}",
                    "--p", "1"],
            base + ["calibrate", "--qubit", "qm", "--fm-mhz", repr(req["fm_mhz"]),
                    "--amp", repr(req["amp"]), "--alpha", repr(req["alpha"]),
                    "--theta", repr(req["theta"]), "--p", "3",
                    "--hidden-theta0-rad", repr(req["theta0"])],
        ]

    def run(self, req):
        self.count += 1
        out = self.workdir / f"req{self.count:05d}"
        out.mkdir(parents=True, exist_ok=True)
        spec = out / "device.json"
        spec.write_text(json.dumps(req["device"]), encoding="utf-8")
        results = [
            self.runner.invoke(self.cli.main, argv, catch_exceptions=True)
            for argv in self._commands(req, spec, out / "run")
        ]
        return out / "run", results

    def refused(self, rec):
        if rec.error is None:
            codes = [r.exit_code for r in rec.answer[1]]
            if any(c in (2, 3) for c in codes) and all(c in (0, 2, 3) for c in codes):
                return f"CLI exit codes {codes}"
        return None

    def exit_codes(self, rec):
        return [] if rec.error is not None else [r.exit_code for r in rec.answer[1]]

    def errors(self, rec):
        problems = super().errors(rec)
        for name, res in zip(("sweep", "plan", "calibrate"), () if rec.error else rec.answer[1]):
            if res.exit_code != 0:
                problems.append(f"{name} exited {res.exit_code}: {res.output.strip()}")
            if res.exception is not None and not isinstance(res.exception, SystemExit):
                problems.append(f"{name} raised {type(res.exception).__name__}")
            if "Traceback (most recent call last)" in res.output:
                problems.append(f"{name} printed a traceback")
        return problems

    def check(self, req, answer):
        fm = self.fm
        out, _ = answer
        problems = []
        for csv in ("sweep_qm.csv", "resonances_qm-qn.csv", "tf_estimate.csv"):
            path = out / csv
            first = path.read_text(encoding="utf-8").split("\n", 1)[0] if path.exists() else ""
            if not PROVENANCE.match(first):
                problems.append(f"{csv} lacks the provenance line")
        calib = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
        plan = json.loads((out / "plan_qm-qn_iswap.json").read_text(encoding="utf-8"))
        for label, data in (("calibration.json", calib), ("plan json", plan)):
            if data.get("seed") != req["seed"] or not re.fullmatch(
                    "[0-9a-f]{12}", str(data.get("config_hash"))):
                problems.append(f"{label} lacks seed/config_hash provenance")
        if not abs(calib["residual_khz"]) < RESIDUAL_LIMIT_KHZ:
            problems.append(f"calibration residual {calib['residual_khz']:.3f} kHz")
        q = req["device"]["qubits"]["qm"]
        spec = fm.fit_spec(q["f01_max_ghz"], q["f01_min_ghz"], q["anharm_ghz"], label="qm")
        desired = fm.BichromaticPulse(
            fm_mhz=req["fm_mhz"], phi_ac_phi0=req["amp"], alpha_rad=req["alpha"] * TURN,
            theta_rad=req["theta"] * TURN, p=3,
        )
        oracle = fm.avg_frequency_timedomain(spec, desired)
        gap = calib["target_fbar_ghz"] - oracle
        if abs(gap) > ORACLE_TOL_GHZ:
            problems.append(
                f"series fbar at the desired pulse is {gap:.2e} GHz off the "
                f"time-domain oracle (f01 {q['f01_max_ghz']:.3f}..{q['f01_min_ghz']:.3f})"
            )
        return problems


WORKLOADS = {cls.name: cls for cls in (Atlas, Plan, Bringup)}
