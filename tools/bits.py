"""SHA-256 digests of a fixed set of outputs, to tell whether a change keeps
them bit for bit.

The set has three kinds of artifact:

* expansions (``ddehopf.expand``): the digest covers, order by order, the 8
  bytes of lambda_hat_j and of T_hat_j and the shape and bytes of the
  constant, cosine and sine arrays of Z_j, so two runs have the same digest
  only if every coefficient is the same float, bit for bit (0.0 and -0.0
  differ);
* the stdout of CLI commands (``python -m ddehopf.cli ...``, each in its own
  interpreter, with ``COLUMNS=80``), with the exit status: the outputs of
  the benchmark workloads at seed 0 and of other runs, and the ``--help``
  of every subcommand, so that a change of the interface shows beside the
  outputs;
* the seeded reference integrations of ``cross_validate`` (ndde, order 8,
  msq, delay 1.4; sir, order 8, paper, delay 120): the shape and bytes of
  their ``ts``, ``ys`` and ``coeffs``.

Beside the digests it prints, for each rounding-envelope record of
``tests/data``, the largest ratio of a change to K * envelope + floor, by
the rule of ``tests/envelope.py`` (at most 1 is within the envelope; 0 is
the recorded reference itself).

Usage::

    python tools/bits.py [ROOT] [--against REV] [--json]

ROOT is the repository whose package ``src/ddehopf`` is digested (default:
the one holding this script); the benchmark workloads and the subcommands
are ROOT's too.  ``--against REV`` audits the git revision REV of this
repository with this script in a fresh interpreter
(``bench_pairs.audit_at``), and prints both digests of each artifact of
either side with ``same`` or ``DIFFERENT`` (``compare``), and both
envelope ratios of each record (judged by the records and rule of this
tree); the exit status is 1 if any digest differs.  ``--json`` prints
{"digests": {artifact: digest}, "envelope": {record: ratio}}.  Only the
standard library and numpy are used; the whole set takes about 15 s per
tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from bench_pairs import audit_at, load  # tools/ is on the path of a script

ROOT = Path(__file__).resolve().parents[1]


def _update(h, part):
    """Feed the shape and bytes of one float array to the hash ``h``."""
    part = np.asarray(part, dtype=float)
    h.update(repr(part.shape).encode() + part.tobytes())


def digest(result) -> str:
    """SHA-256 over every lambda_hat_j, T_hat_j and Z_j of an expansion
    result (anything with ``lambda_hats``, ``T_hats`` and a list ``Z`` of
    polynomials with ``const``, ``cos`` and ``sin`` arrays)."""
    h = hashlib.sha256()
    for lam, T, Z in zip(result.lambda_hats, result.T_hats, result.Z,
                         strict=True):
        h.update(np.float64(lam).tobytes() + np.float64(T).tobytes())
        for part in (Z.const, Z.cos, Z.sin):
            _update(h, part)
    return h.hexdigest()


def trajectory_digest(traj) -> str:
    """SHA-256 over the shape and bytes of a trajectory's ``ts``, ``ys`` and
    ``coeffs``, in that order."""
    h = hashlib.sha256()
    for part in (traj.ts, traj.ys, traj.coeffs):
        _update(h, part)
    return h.hexdigest()


# {artifact: argv of ``python -m ddehopf.cli``}, beside those of ``cli_runs``
CLI_RUNS = {
    "cli-hopf-ndde": "hopf --model ndde",
    "cli-hopf-sir": "hopf --model sir",
    "cli-solve-ndde-l1.4": "solve --model ndde --lambda 1.4",
    "cli-solve-sir-l120": "solve --model sir --lambda 120",
    "cli-residual-ndde-n20-l1.8":
        "residual --model ndde --order 20 --lambda 1.8",
    "cli-validate-ndde-l1.4": "validate --model ndde --lambda 1.4",
}


def cli_runs(root: Path) -> dict:
    """{artifact: argv} of the CLI runs on the repository ``root``, whose
    package is on the import path: each workload of its
    ``perfbench/run.py`` at seed 0, ``CLI_RUNS``, and the ``--help`` of each
    subcommand of its parser."""
    from ddehopf import cli
    workloads = load(root / "perfbench" / "run.py").WORKLOADS
    runs = {f"cli-{name}": args(0) for name, (args, *_) in workloads.items()}
    runs.update((name, argv.split()) for name, argv in CLI_RUNS.items())
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    runs.update((f"cli-help-{name}", [name, "--help"])
                for name in subparsers.choices)
    return runs


def cli_digest(src: Path, argv: list[str]) -> str:
    """SHA-256 over the exit status and stdout of one CLI command, run in a
    fresh interpreter on the package in ``src``, with the help text laid out
    for 80 columns."""
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    run = subprocess.run([sys.executable, "-m", "ddehopf.cli", *argv],
                         capture_output=True, env=env)
    return hashlib.sha256(f"exit {run.returncode}\n".encode()
                          + run.stdout).hexdigest()


# {artifact: (model, order, z0_scale, delay)} of the seeded integrations
INTEGRATIONS = {
    "integrator-ndde-msq8-l1.4": ("ndde", 8, "msq", 1.4),
    "integrator-sir-paper8-l120": ("sir", 8, "paper", 120.0),
}

# the rounding-envelope records ``tests/data/envelope-<name>.json``
ENVELOPE_RECORDS = sorted(
    path.stem.removeprefix("envelope-")
    for path in (ROOT / "tests" / "data").glob("envelope-*.json"))


def _envelope():
    """The module ``tests/envelope.py`` of this repository."""
    if str(ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(ROOT / "tests"))
    import envelope
    return envelope


def largest_ratio(record, got) -> float:
    """Largest |change| / (K * envelope + floor) of ``got`` against an
    envelope record, by the rule of ``tests/envelope.py``: ``got`` is the
    diagram rows for a diagram record and an expansion result otherwise."""
    envelope = _envelope()
    ratios = (envelope.diagram_ratios(got, record) if "rows" in record
              else envelope.envelope_ratios(got, record))
    return max(ratio for _, _, ratio in ratios)


def envelope_summary() -> dict:
    """{record: largest ratio} of the package on the import path, each
    record's case run afresh."""
    import ddehopf
    envelope = _envelope()
    out = {}
    for name in ENVELOPE_RECORDS:
        record = envelope.load_envelope(name)
        model = ddehopf.BUILTIN_MODELS[record["model"]](record["params"])
        got = ddehopf.expand(model, record["order"], record["z0_scale"])
        if "rows" in record:
            got = ddehopf.bifurcation_diagram(got, np.linspace(*record["grid"]))
        out[name] = largest_ratio(record, got)
    return out


def _artifacts():
    """{name: (model, order, z0_scale)}, built from the package on the
    import path."""
    import ddehopf
    from ddehopf.epsseries import cos, log, powf, sin

    def scalar(name, rhs, hint):
        return ddehopf.DdeModel(name, dim=1, params={}, rhs=rhs,
                                equilibrium_hint=[0.0], hopf_hint=hint)

    ndde, sir = ddehopf.make_ndde(), ddehopf.make_sir()
    mackey_glass = ddehopf.DdeModel(
        "mackey-glass", dim=1, params={},
        rhs=lambda lam, x, y: [2 * y[0] / (1 + powf(y[0], 10)) - x[0]],
        equilibrium_hint=[1.0], hopf_hint=(3.9, 0.47))
    hutchinson = ddehopf.DdeModel(
        "hutchinson", dim=1, params={},
        rhs=lambda lam, x, y: [x[0] * (1 - y[0])],
        equilibrium_hint=[1.0], hopf_hint=(1.1, 1.4))
    runs = {
        "ndde-msq-8": (ndde, 8, "msq"),
        "ndde-msq-20": (ndde, 20, "msq"),
        "ndde-msq-40": (ndde, 40, "msq"),
        "ndde-paper-12": (ndde, 12, "paper"),
        "ndde-orthonormal-12": (ndde, 12, "orthonormal"),
        "sir-paper-14": (sir, 14, "paper"),
        "sir-paper-20": (sir, 20, "paper"),
        "sir-msq-8": (sir, 8, "msq"),
        "mackey-glass-msq-12": (mackey_glass, 12, "msq"),
    }
    for hint in ((1.0, 1.5), (0.9, 1.6), (1.1, 1.4)):
        runs[f"minus-sin-{hint[0]}-{hint[1]}-msq-12"] = (
            scalar("minus-sin", lambda lam, x, y: [-sin(y[0])], hint),
            12, "msq")
    runs["cos-msq-12"] = (scalar(
        "cos", lambda lam, x, y: [cos(y[0] + 1.0) - math.cos(1.0)],
        (0.85, 1.85)), 12, "msq")
    runs["log-msq-12"] = (scalar(
        "log", lambda lam, x, y: [-log(1 + y[0]) - 0.1 * x[0]],
        (1.0, 1.7)), 12, "msq")
    runs["hutchinson-msq-20"] = (hutchinson, 20, "msq")
    # a characteristic matrix of dim 2 with a row that holds one nonzero
    # entry, which the Hopf search scales apart
    runs["hutchinson-decoupled-msq-12"] = (ddehopf.DdeModel(
        "hutchinson-decoupled", dim=2, params={},
        rhs=lambda lam, x, y: [x[0] * (1 - y[0]), -x[1]],
        equilibrium_hint=[1.0, 0.0], hopf_hint=(1.1, 1.4)), 12, "msq")
    return runs


def digests(root: Path) -> dict:
    """{artifact: digest} of the package of the repository ``root``."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import ddehopf
    from ddehopf.ddeint import cross_validate
    out = {name: digest(ddehopf.expand(model, order, z0_scale=scale))
           for name, (model, order, scale) in _artifacts().items()}
    out.update((name, cli_digest(src, argv))
               for name, argv in cli_runs(root).items())
    for name, (model, order, scale, lam) in INTEGRATIONS.items():
        orbit = ddehopf.ReconstructedOrbit(
            ddehopf.expand(ddehopf.BUILTIN_MODELS[model](), order, scale), lam)
        out[name] = trajectory_digest(cross_validate(orbit)[2])
    return out


def compare(ours: dict, theirs: dict) -> list[str]:
    """One line for each artifact of either digest map: its name, both
    digests (``None`` on a side that lacks it) and ``same`` or
    ``DIFFERENT``."""
    return [f"{name:<28} {str(ours.get(name))[:16]} "
            f"{str(theirs.get(name))[:16]} "
            f"{'same' if ours.get(name) == theirs.get(name) else 'DIFFERENT'}"
            for name in {**ours, **theirs}]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=ROOT)
    parser.add_argument("--against", metavar="REV")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    ours = {"digests": digests(args.root.resolve()),
            "envelope": envelope_summary()}
    if args.json:
        print(json.dumps(ours))
        return 0
    if args.against is None:
        for name, value in ours["digests"].items():
            print(f"{name:<28} {value}")
        for name, ratio in ours["envelope"].items():
            print(f"{'envelope-' + name:<28} {ratio:.3g}")
        return 0
    theirs = json.loads(audit_at(args.against, __file__, "--json"))
    lines = compare(ours["digests"], theirs["digests"])
    print("\n".join(lines))
    for name, ratio in ours["envelope"].items():
        print(f"{'envelope-' + name:<28} {ratio:<16.3g} "
              f"{theirs['envelope'][name]:.3g}")
    return 1 if any(line.endswith("DIFFERENT") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
