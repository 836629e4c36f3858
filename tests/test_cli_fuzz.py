"""Exit-code contract under malformed input: a derandomized fuzz of the CLI.

Numeric options of ``sweep``, ``atlas``, ``plan``, ``chevron`` and
``calibrate`` and values in the device and scenario files are replaced by
awkward values.  Whatever the input, the command must exit with a
documented code (0 success, 2 invalid request, 3 no feasible solution,
4 numerical failure) and print no traceback.
"""

import copy
import json
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxmod.cli import main

from conftest import Q1_DATA, Q2_DATA

DEVICE = {
    "qubits": {
        "q1": dict(zip(("f01_max_ghz", "f01_min_ghz", "anharm_ghz"), Q1_DATA)),
        "q2": dict(zip(("f01_max_ghz", "f01_min_ghz", "anharm_ghz"), Q2_DATA)),
    },
    "pairs": [{"modulated": "q1", "neighbor": "q2", "coupling_mhz": 4.0, "tls_ghz": [4.7]}],
}
SCENARIO = {
    "qubit": {"ej1_ghz": 17.3, "ej2_ghz": 2.8, "ec_ghz": 0.19, "label": "q1"},
    "hidden_theta0_rad": 0.25,
    "transfer_function": [[10.0, 0.95], [100.0, 0.9], [300.0, 0.7], [500.0, 0.35]],
    "noise_sigma_khz": 0.0,
    "seed": 0,
    "randomize_theta0": False,
}

# the fast base request of each command, and its numeric options
PLAN_OPTIONS = ("--k", "--p", "--alpha", "--theta", "--phi-dc", "--root-index",
                "--bandwidth-mhz", "--tls")
COMMANDS = {
    "sweep": (
        ("sweep", "--qubit", "q1", "--points", "3"),
        ("--flux-min", "--flux-max", "--points"),
    ),
    "atlas": (
        ("atlas", "--qubit", "q1", "--alpha-points", "2", "--theta-points", "2"),
        ("--phi-dc", "--p", "--alpha-min", "--alpha-max", "--alpha-points",
         "--theta-min", "--theta-max", "--theta-points", "--fm-mhz"),
    ),
    "plan": (("plan", "--pair", "q1:q2", "--k=-2", "--p", "1"), PLAN_OPTIONS),
    "chevron": (
        ("chevron", "--pair", "q1:q2", "--k=-2", "--p", "1", "--n-fm", "5", "--n-t", "5"),
        (*PLAN_OPTIONS, "--halfspan-mhz", "--n-fm", "--t-max-ns", "--n-t"),
    ),
    "calibrate": (
        ("calibrate", "--qubit", "q1"),
        ("--hidden-theta0-rad", "--noise-khz", "--fm-mhz", "--amp", "--alpha",
         "--theta", "--p", "--n-theta", "--probes"),
    ),
}
N_OPTIONS = max(len(options) for _, options in COMMANDS.values())
TEXT = st.sampled_from(
    ["-1", "0", "1", "2", "3", "0.5", "-0.3", "1e300", "nan", "inf", "-inf", "abc",
     "", "50,100,nan,300"]
)
VALUES = st.sampled_from(
    [-1, 0, 0.5, 3, 1e300, float("nan"), float("inf"), "5", None, True, [], {}]
)


def _run(spec: dict | None, argv: tuple[str, ...], scenario: dict | None = None):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "device.json"
        spec_path.write_text(json.dumps(spec if spec is not None else DEVICE))
        if scenario is not None:
            (Path(tmp) / "scenario.json").write_text(json.dumps(scenario))
            argv = (*argv, "--scenario", str(Path(tmp) / "scenario.json"))
        res = CliRunner().invoke(
            main, ["--spec", str(spec_path), "--out", str(Path(tmp) / "out"), *argv]
        )
    assert res.exit_code in (0, 2, 3, 4), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(
        res.exception
    )
    assert "Traceback" not in res.output


@settings(max_examples=300)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    picks=st.lists(st.tuples(st.integers(0, N_OPTIONS - 1), TEXT), min_size=1, max_size=2),
)
@example(command="atlas", picks=[(4, "-1")])
@example(command="calibrate", picks=[(8, "abc")])
def test_mutated_options_exit_with_a_documented_code(command, picks):
    base, options = COMMANDS[command]
    argv = list(base)
    for i, text in picks:
        argv += [options[i % len(options)], text]
    _run(None, tuple(argv))


def _paths(tree, prefix=()):
    """Every leaf of a JSON tree, as a key path."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _paths(value, (*prefix, key))
        else:
            yield (*prefix, key)


def _mutated(tree, index, value):
    out = copy.deepcopy(tree)
    *head, last = sorted(_paths(tree), key=str)[index % len(list(_paths(tree)))]
    node = out
    for key in head:
        node = node[key]
    node[last] = value
    return out


@settings(max_examples=150)
@given(index=st.integers(0, 50), value=VALUES)
def test_mutated_device_file_exits_with_a_documented_code(index, value):
    _run(_mutated(DEVICE, index, value), COMMANDS["plan"][0])


@settings(max_examples=150)
@given(index=st.integers(0, 50), value=VALUES)
def test_mutated_scenario_file_exits_with_a_documented_code(index, value):
    _run(None, ("calibrate",), scenario=_mutated(SCENARIO, index, value))
