"""Command line front end.

Five subcommands cover the standard workflow: ``sweep`` tabulates the
static frequency curves, ``atlas`` maps dynamical sweet spots over the
mixing plane, ``plan`` resolves a parametric gate (optionally searching
the plane for the fastest one), ``chevron`` simulates the tune-up pattern
for a plan, and ``calibrate`` runs the closed calibration loop against a
virtual hardware scenario.

All angle options are given as fractions of a full turn; flux in flux
quanta; frequencies in MHz.  Outputs land in the --out directory, every
file carries the seed and a configuration hash, and reruns with the same
inputs are byte-identical.  Exit codes: 0 success, 2 invalid request,
3 no feasible solution, 4 numerical failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .calibration import (
    VirtualHardware,
    calibrate_and_verify,
    load_scenario,
    reference_transfer_function,
)
from .errors import InfeasibleError, NumericalError, ValidationError, require_finite
from .gates import (
    DEFAULT_BANDWIDTH_MHZ,
    GateType,
    PairSpec,
    chevron_simulate,
    optimize_weight,
    plan_gate,
    resonance_fm_mhz,
)
from .modulation import (
    avg_frequency_slopes,
    operating_point,
    sweet_spot_atlas,
    sweet_spot_solve,
)
from .pulses import BichromaticPulse
from .transmon import (
    Device,
    frequency_curve,
    ladder_curve,
    load_device,
    transition_frequencies,
)

TURN = 2.0 * math.pi


def _fail(exc: Exception, code: int) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Map package errors onto the documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            _fail(exc, 2)
        except InfeasibleError as exc:
            _fail(exc, 3)
        except NumericalError as exc:
            _fail(exc, 4)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


class RunContext:
    def __init__(self, spec_path: str | None, out: str, seed: int, jobs: int):
        self.spec_path = spec_path
        self.out_dir = Path(out)
        self.seed = seed
        self.jobs = jobs
        self._device: Device | None = None

    @property
    def device(self) -> Device:
        if self.spec_path is None:
            raise ValidationError("this command needs a device file; pass --spec")
        if self._device is None:
            self._device = load_device(self.spec_path)
        return self._device

    def close(self) -> None:
        """Drop the fitted device when the command ends: a caller that keeps
        a command's result can keep this object through its traceback."""
        self._device = None

    def config_hash(self, command: str, params: dict) -> str:
        payload = {"command": command, "seed": self.seed, "params": params}
        if self.spec_path is not None:
            payload["device_sha"] = hashlib.sha256(
                Path(self.spec_path).read_bytes()
            ).hexdigest()
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def stamp(self, path: Path, cfg_hash: str, footer: str | None = None) -> None:
        """Prepend the provenance comment (and optional footer) to a CSV."""
        body = path.read_text(encoding="utf-8")
        head = f"# fluxmod v{__version__} seed={self.seed} config={cfg_hash}\n"
        tail = f"# {footer}\n" if footer else ""
        path.write_text(head + body + tail, encoding="utf-8")

    def manifest(self, command: str, params: dict, outputs: list[str]) -> str:
        cfg = self.config_hash(command, params)
        data = {
            "command": command,
            "config_hash": cfg,
            "jobs": self.jobs,
            "outputs": sorted(outputs),
            "params": params,
            "seed": self.seed,
            "version": __version__,
        }
        path = self.out_dir / f"{command}_run.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", "utf-8")
        return cfg


def _resolve_qubit(device: Device, name: str | None) -> str:
    if name is not None:
        if name not in device.qubits:
            raise ValidationError(f"device file has no qubit {name!r}")
        return name
    if len(device.qubits) == 1:
        return next(iter(device.qubits))
    raise ValidationError(
        f"device file lists {sorted(device.qubits)}; pick one with --qubit"
    )


def _resolve_pair(device: Device, pair_arg: str, tls: tuple[float, ...]) -> PairSpec:
    """The named pair, its TLS lines extended by ``tls`` (GHz)."""
    try:
        mod_name, nb_name = pair_arg.split(":")
    except ValueError:
        raise ValidationError("pair must be given as modulated:neighbor") from None
    entry = device.pair(mod_name, nb_name)
    return PairSpec(
        modulated=device.qubits[mod_name],
        neighbor=device.qubits[nb_name],
        coupling_mhz=entry.coupling_mhz,
        tls_ghz=entry.tls_ghz + tuple(tls),
    )


@click.group()
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Device description JSON.")
@click.option("--out", default="fluxmod-out", show_default=True,
              help="Output directory (created if missing).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed recorded in all outputs and used for any sampling.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes for grid commands.")
@click.version_option(__version__)
@click.pass_context
def main(ctx, spec_path, out, seed, jobs):
    """Flux-modulated transmon toolkit."""
    if jobs < 1:
        _fail(ValidationError("--jobs must be at least 1"), 2)
    run = RunContext(spec_path, out, seed, jobs)
    run.out_dir.mkdir(parents=True, exist_ok=True)
    ctx.obj = run
    ctx.call_on_close(run.close)


@main.command()
@click.option("--qubit", default=None, help="Qubit name from the device file.")
@click.option("--flux-min", type=float, default=-0.5, show_default=True)
@click.option("--flux-max", type=float, default=0.5, show_default=True)
@click.option("--points", type=int, default=201, show_default=True)
@click.pass_obj
@_guarded
def sweep(run: RunContext, qubit, flux_min, flux_max, points):
    """Tabulate f01 and f12 versus dc flux for one qubit."""
    name = _resolve_qubit(run.device, qubit)
    spec = run.device.qubits[name]
    curve = frequency_curve(spec, flux_min, flux_max, points)
    params = {
        "qubit": name, "flux_min": flux_min, "flux_max": flux_max, "points": points,
    }
    out = run.out_dir / f"sweep_{name}.csv"
    curve.to_csv(out)
    cfg = run.manifest("sweep", params, [out.name])
    f01_0, f12_0 = transition_frequencies(spec, 0.0)
    run.stamp(out, cfg, footer=f"f01(0)={f01_0:.6f}GHz anharm(0)={f12_0 - f01_0:.6f}GHz")
    click.echo(
        f"sweep {name}: f01(0)={f01_0:.6f} GHz, anharmonicity={f12_0 - f01_0:.6f} GHz "
        f"-> {out}"
    )


@main.command()
@click.option("--qubit", default=None)
@click.option("--phi-dc", type=float, default=0.0, show_default=True)
@click.option("--p", type=int, default=3, show_default=True)
@click.option("--alpha-min", type=float, default=0.0, show_default=True,
              help="Mixing angle window start, fraction of a turn.")
@click.option("--alpha-max", type=float, default=0.25, show_default=True)
@click.option("--alpha-points", type=click.IntRange(min=1), default=16, show_default=True)
@click.option("--theta-min", type=float, default=-0.5, show_default=True,
              help="Relative phase window start, fraction of a turn.")
@click.option("--theta-max", type=float, default=0.5, show_default=True)
@click.option("--theta-points", type=click.IntRange(min=1), default=16, show_default=True)
@click.option("--fm-mhz", type=float, default=100.0, show_default=True,
              help="Modulation frequency recorded with each point.")
@click.pass_obj
@_guarded
def atlas(run: RunContext, qubit, phi_dc, p, alpha_min, alpha_max, alpha_points,
          theta_min, theta_max, theta_points, fm_mhz):
    """Map stationary amplitudes over the (alpha, theta) plane."""
    name = _resolve_qubit(run.device, qubit)
    spec = run.device.qubits[name]
    require_finite(
        alpha_min=alpha_min, alpha_max=alpha_max, theta_min=theta_min, theta_max=theta_max
    )
    alphas = np.linspace(alpha_min * TURN, alpha_max * TURN, alpha_points)
    thetas = np.linspace(theta_min * TURN, theta_max * TURN, theta_points,
                         endpoint=False)
    result = sweet_spot_atlas(
        spec, phi_dc, p, alphas, thetas, jobs=run.jobs, fm_mhz=fm_mhz
    )
    params = {
        "qubit": name, "phi_dc": phi_dc, "p": p,
        "alpha": [alpha_min, alpha_max, alpha_points],
        "theta": [theta_min, theta_max, theta_points],
        "fm_mhz": fm_mhz,
    }
    out = run.out_dir / f"atlas_{name}.csv"
    result.to_csv(out)
    cfg = run.manifest("atlas", params, [out.name])
    lo, hi = result.fbar_span_ghz
    span = (
        f"sweet_points={sum(pt.is_sweet_spot for pt in result.points)} "
        f"fbar_min_ghz={lo:.6f} fbar_max_ghz={hi:.6f} "
        f"span_mhz={(hi - lo) * 1e3:.3f}"
    )
    run.stamp(out, cfg, footer=span)
    click.echo(f"atlas {name}: {span}")
    click.echo(f"-> {out}")


def _build_plan(run: RunContext, pair_arg, gate, k, p, alpha, theta, phi_dc,
                root_index, bandwidth_mhz, tls, optimize, grid, max_fm_mhz):
    pair = _resolve_pair(run.device, pair_arg, tls)
    gate_type = GateType(gate)
    if optimize:
        return pair, optimize_weight(
            pair, p, k,
            gate_type=gate_type,
            phi_dc=phi_dc,
            grid_shape=(grid, grid),
            max_fm_mhz=max_fm_mhz,
            bandwidth_mhz=bandwidth_mhz,
            jobs=run.jobs,
        )
    alpha_rad, theta_rad = alpha * TURN, theta * TURN
    roots = sweet_spot_solve(pair.modulated, phi_dc, p, alpha_rad, theta_rad)
    if root_index >= len(roots):
        raise ValidationError(
            f"root index {root_index} out of range; {len(roots)} stationary "
            "amplitudes found"
        )
    amp, _ = roots[root_index]
    pulse = BichromaticPulse(
        fm_mhz=100.0, phi_ac_phi0=amp, alpha_rad=alpha_rad,
        theta_rad=theta_rad, p=p, phi_dc_phi0=phi_dc,
    )
    point = operating_point(pair.modulated, pulse)
    plan = plan_gate(pair, point, gate_type, k, bandwidth_mhz=bandwidth_mhz)
    return pair, plan


_plan_options = [
    click.option("--pair", "pair_arg", required=True,
                 help="modulated:neighbor, names from the device file."),
    click.option("--gate", type=click.Choice([g.value for g in GateType]),
                 default="cz02", show_default=True),
    click.option("--k", type=int, default=-2, show_default=True,
                 help="Sideband order carrying the gate."),
    click.option("--p", type=int, default=3, show_default=True),
    click.option("--alpha", type=float, default=0.0, show_default=True,
                 help="Mixing angle, fraction of a turn."),
    click.option("--theta", type=float, default=0.0, show_default=True,
                 help="Relative phase, fraction of a turn."),
    click.option("--phi-dc", type=float, default=0.0, show_default=True),
    click.option("--root-index", type=click.IntRange(min=0), default=0, show_default=True,
                 help="Which stationary amplitude to use, by increasing value."),
    click.option("--bandwidth-mhz", type=float, default=DEFAULT_BANDWIDTH_MHZ,
                 show_default=True, help="TLS collision window."),
    click.option("--tls", type=float, multiple=True,
                 help="Extra TLS frequency in GHz (repeatable)."),
    click.option("--optimize", is_flag=True,
                 help="Search the mixing plane for the fastest clean plan."),
    click.option("--grid", type=int, default=64, show_default=True,
                 help="Grid size per axis for --optimize."),
    click.option("--max-fm-mhz", type=float, default=400.0, show_default=True,
                 help="Drive band cap for --optimize."),
]


def _with_plan_options(fn):
    for opt in reversed(_plan_options):
        fn = opt(fn)
    return fn


@main.command()
@_with_plan_options
@click.pass_obj
@_guarded
def plan(run: RunContext, pair_arg, gate, k, p, alpha, theta, phi_dc, root_index,
         bandwidth_mhz, tls, optimize, grid, max_fm_mhz):
    """Resolve a parametric gate into drive settings and a collision scan."""
    pair, result = _build_plan(
        run, pair_arg, gate, k, p, alpha, theta, phi_dc, root_index,
        bandwidth_mhz, tls, optimize, grid, max_fm_mhz,
    )
    params = {
        "pair": pair_arg, "gate": gate, "k": k, "p": p, "alpha": alpha,
        "theta": theta, "phi_dc": phi_dc, "root_index": root_index,
        "bandwidth_mhz": bandwidth_mhz, "tls": list(tls),
        "optimize": optimize, "grid": grid, "max_fm_mhz": max_fm_mhz,
    }
    tag = pair_arg.replace(":", "-")
    out_json = run.out_dir / f"plan_{tag}_{gate}.json"
    cfg = run.manifest("plan", params, [out_json.name, f"resonances_{tag}.csv"])
    payload = result.to_dict()
    payload["seed"] = run.seed
    payload["config_hash"] = cfg
    out_json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")

    out_csv = run.out_dir / f"resonances_{tag}.csv"
    _write_resonance_curves(pair, result.pulse, out_csv)
    run.stamp(out_csv, cfg)

    click.echo(
        f"plan {gate} k={result.k}: fm={result.fm_mhz:.3f} MHz, "
        f"g_eff={result.g_eff_mhz:.4f} MHz, duration={result.duration_ns:.1f} ns, "
        f"alpha={result.pulse.alpha_rad / TURN:.4f} turn, "
        f"theta={result.pulse.theta_rad / TURN:.4f} turn, "
        f"phi_ac={result.pulse.phi_ac_phi0:.4f}"
    )
    if result.collisions:
        for c in result.collisions:
            click.echo(f"collision: {c.description}")
    else:
        click.echo("collision: none within bandwidth")
    click.echo(f"-> {out_json}")


def _write_resonance_curves(pair: PairSpec, pulse: BichromaticPulse, path: Path):
    """Reachable gate resonances versus amplitude at fixed mixing settings."""
    amps = np.linspace(0.05, 0.9, 64)
    fbars = {
        ch: avg_frequency_slopes(
            ladder_curve(pair.modulated, channel=ch),
            pulse.phi_dc_phi0, pulse.p, pulse.alpha_rad, pulse.theta_rad, amps,
        )[0]
        for ch in ("f01", "f12")
    }
    targets = dict(
        zip(("f01", "f12"), transition_frequencies(pair.neighbor, pair.neighbor_phi_dc_phi0))
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("gate,k,phi_ac_phi0,fm_mhz\n")
        for gt in GateType:
            ladder = fbars[gt.ladder_channel]
            for kk in (-8, -6, -4, -2):
                fm = resonance_fm_mhz(targets[gt.neighbor_channel], ladder, kk)
                for a, f in zip(amps, fm):
                    if f <= 500.0:
                        fh.write(f"{gt.value},{kk},{a:.12g},{f:.12g}\n")


@main.command()
@_with_plan_options
@click.option("--halfspan-mhz", type=float, default=None,
              help="Frequency half-span around resonance [default: auto].")
@click.option("--n-fm", type=int, default=41, show_default=True)
@click.option("--t-max-ns", type=float, default=None,
              help="Hold-time extent [default: twice the gate duration].")
@click.option("--n-t", type=int, default=61, show_default=True)
@click.pass_obj
@_guarded
def chevron(run: RunContext, pair_arg, gate, k, p, alpha, theta, phi_dc, root_index,
            bandwidth_mhz, tls, optimize, grid, max_fm_mhz, halfspan_mhz, n_fm,
            t_max_ns, n_t):
    """Simulate the population chevron around a plan's resonance."""
    pair, result = _build_plan(
        run, pair_arg, gate, k, p, alpha, theta, phi_dc, root_index,
        bandwidth_mhz, tls, optimize, grid, max_fm_mhz,
    )
    cmap = chevron_simulate(
        result, fm_halfspan_mhz=halfspan_mhz, n_fm=n_fm, t_max_ns=t_max_ns, n_t=n_t
    )
    params = {
        "pair": pair_arg, "gate": gate, "k": k, "p": p, "alpha": alpha,
        "theta": theta, "phi_dc": phi_dc, "root_index": root_index,
        "halfspan_mhz": halfspan_mhz, "n_fm": n_fm, "t_max_ns": t_max_ns,
        "n_t": n_t, "optimize": optimize,
    }
    tag = pair_arg.replace(":", "-")
    out = run.out_dir / f"chevron_{tag}_{gate}.csv"
    cmap.to_csv(out)
    cfg = run.manifest("chevron", params, [out.name])
    run.stamp(
        out, cfg,
        footer=(
            f"resonance_fm_mhz={result.fm_mhz:.6f} "
            f"duration_ns={result.duration_ns:.3f}"
        ),
    )
    click.echo(
        f"chevron {gate} k={result.k}: peak at fm={cmap.fm_at_peak():.3f} MHz, "
        f"first max at {cmap.t_first_max_on_resonance():.1f} ns "
        f"(planned {result.fm_mhz:.3f} MHz / {result.duration_ns:.1f} ns)"
    )
    click.echo(f"-> {out}")


def _probe_freqs(probes: str) -> tuple[float, ...]:
    """Probe frequencies (MHz) from the comma-separated --probes value."""
    try:
        freqs = tuple(float(x) for x in probes.split(","))
    except ValueError:
        raise ValidationError(
            f"--probes must be comma-separated numbers in MHz, got {probes!r}"
        ) from None
    if not all(math.isfinite(f) for f in freqs):
        raise ValidationError(f"--probes must be finite frequencies in MHz, got {probes!r}")
    return freqs


@main.command()
@click.option("--scenario", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Virtual hardware scenario JSON; overrides the synthetic one.")
@click.option("--qubit", default=None, help="Qubit for the synthetic scenario.")
@click.option("--hidden-theta0-rad", type=float, default=0.25, show_default=True,
              help="Phase offset of the synthetic scenario (radians).")
@click.option("--noise-khz", type=float, default=0.0, show_default=True)
@click.option("--fm-mhz", type=float, default=80.0, show_default=True,
              help="Fundamental of the pulse being calibrated.")
@click.option("--amp", type=float, default=0.4, show_default=True,
              help="Total ac amplitude of the pulse being calibrated.")
@click.option("--alpha", type=float, default=0.1, show_default=True,
              help="Mixing angle, fraction of a turn.")
@click.option("--theta", type=float, default=0.05, show_default=True,
              help="Relative phase, fraction of a turn.")
@click.option("--p", type=int, default=3, show_default=True)
@click.option("--n-theta", type=int, default=32, show_default=True)
@click.option("--probes", default=None,
              help="Comma-separated probe frequencies in MHz "
                   "[default: 12 points covering both tones].")
@click.pass_obj
@_guarded
def calibrate(run: RunContext, scenario, qubit, hidden_theta0_rad, noise_khz,
              fm_mhz, amp, alpha, theta, p, n_theta, probes):
    """Recover phase offset and line response, compensate, verify."""
    if scenario is not None:
        hw = load_scenario(scenario)
    else:
        name = _resolve_qubit(run.device, qubit)
        hw = VirtualHardware(
            spec=run.device.qubits[name],
            theta0_rad=hidden_theta0_rad,
            transfer=reference_transfer_function(),
            noise_sigma_khz=noise_khz,
            seed=run.seed,
        )
    desired = BichromaticPulse(
        fm_mhz=fm_mhz, phi_ac_phi0=amp, alpha_rad=alpha * TURN,
        theta_rad=theta * TURN, p=p,
    )
    if probes is not None:
        probe_freqs = _probe_freqs(probes)
    else:
        lo, hi = hw.transfer.band_mhz
        base = np.linspace(max(lo, 0.5 * fm_mhz), min(hi, 1.5 * p * fm_mhz), 12)
        probe_freqs = tuple(sorted(set(base) | {fm_mhz, p * fm_mhz}))
    outcome = calibrate_and_verify(hw, desired, probe_freqs, n_theta=n_theta)

    params = {
        "scenario": scenario, "qubit": qubit,
        "hidden_theta0_rad": hidden_theta0_rad, "noise_khz": noise_khz,
        "fm_mhz": fm_mhz, "amp": amp, "alpha": alpha, "theta": theta, "p": p,
        "n_theta": n_theta, "probes": probes,
    }
    cfg = run.manifest(
        "calibrate", params, ["calibration.json", "tf_estimate.csv"]
    )
    out_json = run.out_dir / "calibration.json"
    payload = {
        "theta0_rad": outcome.theta0.theta0_rad,
        "theta0_ambiguity_rad": outcome.theta0.ambiguity_rad,
        "fit_residual_ghz": outcome.theta0.fit_residual_ghz,
        "compensated": {
            "fm_mhz": outcome.compensated.fm_mhz,
            "phi_ac_phi0": outcome.compensated.phi_ac_phi0,
            "alpha_rad": outcome.compensated.alpha_rad,
            "theta_rad": outcome.compensated.theta_rad,
            "p": outcome.compensated.p,
        },
        "target_fbar_ghz": outcome.target_fbar_ghz,
        "measured_fbar_ghz": outcome.measured_fbar_ghz,
        "residual_khz": outcome.residual_khz,
        "seed": run.seed,
        "config_hash": cfg,
    }
    out_json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")
    out_csv = run.out_dir / "tf_estimate.csv"
    outcome.transfer.to_csv(out_csv)
    run.stamp(out_csv, cfg)
    click.echo(
        f"calibrate: theta0={outcome.theta0.theta0_rad:.6f} rad "
        f"(mod {outcome.theta0.ambiguity_rad:.6f}), "
        f"residual={outcome.residual_khz:.3f} kHz"
    )
    click.echo(f"-> {out_json}")


if __name__ == "__main__":
    main()
