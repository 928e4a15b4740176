"""ddehopf benchmark: three CLI workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each CLI call runs
``ddehopf.cli.main`` in a fresh interpreter (``child.py``), one at a time,
with BLAS limited to one thread.  Calls repeat until ``--seconds`` have
passed (at least one call).  Every output is checked against reference
values recorded from the baseline build; a mismatch counts as a failed
operation.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(``wall_ref_s``, ``setup_s``, ``peak_rss_mb``); the two times are scaled to
the reference speed of ``probe.py``.  With ``--trace 1`` it reports the
per-layer metrics of ``tracer.py``: the run spends half its time on untraced
calls and half on traced ones, and ``trace_overhead`` is the ratio of their
median wall times.  A run record with the raw samples is written to
``.bench_build/perfbench/records/``.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
WORK = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
from tracer import layer_metrics, metric_specs  # noqa: E402

# Seed of the run whose diagram rows are stored in reference/.
REFERENCE_SEED = 0
SETUP_REPEATS = 5
CALL_TIMEOUT_S = 160
BLAS_THREADS = "1"
# Relative tolerance on series coefficients; see check_expand.
COEF_RTOL = 1e-12
COEF_FLOOR = 1e-15
# C6 bound on the phase-aligned relative error of validate.
VALIDATE_E_R_MAX = 0.007
MAX_REASONS = 20
# Time of one probe.kernel() the reported times are scaled to: a measured
# time t with probe samples of mean p is reported as t * PROBE_REF_S / p.
# About what the kernel takes in the fast phases of the build machine.
PROBE_REF_S = 1.0e-3

DIAGRAM_START, DIAGRAM_STOP, DIAGRAM_POINTS = 95.0, 150.0, 200
GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0
# Largest seed shift of the diagram grid, in grid steps.  The bifurcation
# delay of sir at order 14 is 102.0308, 0.561 steps below the first point of
# the unshifted grid above it; shifts up to 0.35 steps keep that distance in
# [0.56, 0.91].  Below about 0.33 steps the sweep fails at every later point
# (NoRealRootError, see README.md "Known defect").
DIAGRAM_MAX_SHIFT = 0.35


def diagram_grid(seed: int):
    """Grid start, stop and count: the ROADMAP grid shifted by a
    seed-dependent fraction of one grid step, at most DIAGRAM_MAX_SHIFT
    (no shift at seed 0)."""
    step = (DIAGRAM_STOP - DIAGRAM_START) / (DIAGRAM_POINTS - 1)
    shift = ((seed * GOLDEN_FRACTION) % 1.0) * DIAGRAM_MAX_SHIFT * step
    return DIAGRAM_START + shift, DIAGRAM_STOP + shift, DIAGRAM_POINTS


# -- output checks ----------------------------------------------------------------
# Each check reads the output of one successful call (exit code 0) and
# returns (operations failed, reasons).


def _close(a, b, scale) -> bool:
    return abs(a - b) <= COEF_RTOL * abs(b) + COEF_FLOOR * scale


def _coef_mismatches(name, got, ref):
    """Entries of ``got`` off ``ref`` by more than 1e-12 relative.  A floor
    of 1e-15 times the largest reference entry covers coefficients that are
    zero by structure and come out as rounding dust."""
    if len(got) != len(ref):
        return [f"{name}: {len(got)} entries, expected {len(ref)}"]
    scale = max((abs(x) for x in ref), default=0.0)
    return [f"{name}[{i}] = {a!r}, expected {b!r}"
            for i, (a, b) in enumerate(zip(got, ref)) if not _close(a, b, scale)]


def _flat(poly: dict):
    vals = list(poly["const"])
    for block in ("cos", "sin"):
        for row in poly[block]:
            vals.extend(row)
    return vals


def check_expand(out_path: Path, seed: int):
    got = json.loads(out_path.read_text(encoding="utf-8"))
    ref = json.loads((REFERENCE / "expand-ndde-n20.json").read_text(encoding="utf-8"))
    reasons = (_coef_mismatches("lambda_hats", got["lambda_hats"], ref["lambda_hats"])
               + _coef_mismatches("T_hats", got["T_hats"], ref["T_hats"]))
    if len(got["coefficients"]) != len(ref["coefficients"]):
        reasons.append("number of Z orders differs")
    for j, (zg, zr) in enumerate(zip(got["coefficients"], ref["coefficients"])):
        if (zg["dim"], zg["degree"]) != (zr["dim"], zr["degree"]):
            reasons.append(f"Z[{j}] shape {zg['dim']}x{zg['degree']}, "
                           f"expected {zr['dim']}x{zr['degree']}")
            continue
        reasons += _coef_mismatches(f"Z[{j}]", _flat(zg), _flat(zr))
    return int(bool(reasons)), reasons


def _diagram_points(path: Path):
    """Header and the rows of a diagram CSV grouped by grid point."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    points = {}
    for row in rows:
        points.setdefault(row[0], []).append(row)
    return header, points


def _rows_match(rows, expected) -> bool:
    return expected is not None and len(rows) == len(expected) and all(
        r[1] == e[1] and all(_close(float(a), float(b), 0.0)
                             for a, b in zip(r[2:5], e[2:5]))
        for r, e in zip(rows, expected))


def check_diagram(out_path: Path, seed: int):
    n = DIAGRAM_POINTS
    header, points = _diagram_points(out_path)
    ref_header, ref_points = _diagram_points(
        REFERENCE / "diagram-sir-n14.seed0.csv")
    if header != ref_header:
        return n, [f"header {header}"]
    dim = len(next(iter(ref_points.values())))
    failed = max(0, n - len(points))
    reasons = [] if len(points) == n else [f"{len(points)} grid points, expected {n}"]
    for lam, rows in points.items():
        if len(rows) != dim or any(r[5] != "ok" for r in rows):
            reasons.append(f"lambda {lam}: {[r[5] for r in rows]}")
        elif seed == REFERENCE_SEED and not _rows_match(rows, ref_points.get(lam)):
            reasons.append(f"lambda {lam}: {rows}, expected {ref_points.get(lam)}")
        else:
            continue
        failed += 1
    return failed, reasons


def check_validate(out_path: Path, seed: int):
    e_r = json.loads(out_path.read_text(encoding="utf-8"))["e_r"]
    if not (math.isfinite(e_r) and 0.0 <= e_r <= VALIDATE_E_R_MAX):
        return 1, [f"e_r {e_r!r} outside [0, {VALIDATE_E_R_MAX}]"]
    return 0, []


# -- workloads ----------------------------------------------------------------------


def _expand_args(seed):
    return ["expand", "--model", "ndde", "--order", "20", "--z0-scale", "msq",
            "--format", "json"]


def _diagram_args(seed):
    start, stop, n = diagram_grid(seed)
    return ["diagram", "--model", "sir", "--order", "14",
            "--lambda-grid", f"{start!r}:{stop!r}:{n}"]


def _validate_args(seed):
    return ["validate", "--model", "sir", "--order", "8", "--lambda", "120",
            "--format", "json"]


# name -> (CLI arguments for a seed, output check, output file suffix,
#          checked operations per call)
WORKLOADS = {
    "expand-ndde-n20": (_expand_args, check_expand, ".json", 1),
    "diagram-sir-n14": (_diagram_args, check_diagram, ".csv", DIAGRAM_POINTS),
    "validate-sir-l120": (_validate_args, check_validate, ".json", 1),
}


# -- child processes ------------------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(tmp: Path, extra_args):
    """Run child.py; returns its result dict, or None if it produced none."""
    result = tmp / "child.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result),
           *extra_args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CALL_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CALL_TIMEOUT_S} s"
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return None, f"child exit {proc.returncode}: {' | '.join(tail)}"
    return json.loads(result.read_text(encoding="utf-8")), None


def at_reference_speed(seconds: float, probe_mean_s: float) -> float:
    return seconds * PROBE_REF_S / probe_mean_s


def measure_setup(tmp: Path, record):
    """Append SETUP_REPEATS timed imports to the run record's samples."""
    samples = record.setdefault("import_s_samples", [])
    for _ in range(SETUP_REPEATS):
        res, err = run_child(tmp, ["--setup"])
        if res is None:
            raise SystemExit(f"setup failed: {err}")
        samples.append(res["import_s"])
        record["numpy"] = res["numpy"]


def timed_calls(tmp: Path, workload: str, seed: int, seconds: float,
                trace: bool, tally):
    """Repeat the workload's CLI call for ``seconds`` (at least once)."""
    make_args, check, suffix, ops = WORKLOADS[workload]
    out_path = tmp / f"out{suffix}"
    cli_args = make_args(seed) + ["--out", str(out_path)]
    calls = []
    t_start = time.perf_counter()
    while not calls or time.perf_counter() - t_start < seconds:
        out_path.unlink(missing_ok=True)
        flags = ["--trace"] if trace else []
        t0 = time.perf_counter()
        res, err = run_child(tmp, [*flags, "--", *cli_args])
        call = {"process_s": time.perf_counter() - t0, "traced": trace}
        failed, reasons = ops, [err]
        if res is None:
            call["wall_s"] = call["process_s"]
        else:
            call.update({k: res[k] for k in ("wall_s", "peak_rss_mb",
                                             "returncode")})
            if trace:
                call["trace"] = res["trace"]
            else:
                # The probe's own time inside the call is not the program's.
                call.update({k: res[k] for k in ("probe_mean_s", "probe_n",
                                                 "probe_in_call_s")})
                call["wall_s"] -= res["probe_in_call_s"]
                call["wall_ref_s"] = at_reference_speed(call["wall_s"],
                                                        res["probe_mean_s"])
            if res["returncode"] != 0:
                reasons = [f"exit code {res['returncode']}"]
            else:
                try:
                    failed, reasons = check(out_path, seed)
                except (OSError, ValueError, KeyError, IndexError,
                        TypeError) as exc:
                    reasons = [f"unreadable output: {exc!r}"]
        call.update(attempted=ops, failed=failed, reasons=reasons[:MAX_REASONS])
        tally["attempted"] += ops
        tally["failed"] += failed
        calls.append(call)
    return cli_args, calls


# -- run record -------------------------------------------------------------------------


def git_revision():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ddehopf").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def summary(values):
    """Median, quartiles and count of raw samples."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ddehopf" / "cli.py").is_file():
        print(f"error: no ddehopf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "source_sha256": source_digest(), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "machine": platform.machine(),
        "blas_threads": BLAS_THREADS,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    tally = {"attempted": 0, "failed": 0}
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        # Set-up is timed before and after the calls, so that its samples
        # span the run rather than one moment of it.
        run_child(tmp, ["--setup"])  # warm-up: byte-compiles the package
        measure_setup(tmp, record)
        # A traced run splits its time between untraced and traced calls.
        seconds = args.seconds / 2 if args.trace else args.seconds
        cli_args, calls = timed_calls(tmp, args.workload, args.seed, seconds,
                                      False, tally)
        if args.trace:
            calls += timed_calls(tmp, args.workload, args.seed, seconds,
                                 True, tally)[1]
        measure_setup(tmp, record)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [c for c in calls if not c["traced"]]
    # An import is too short for the probe to time it well, so set-up is
    # scaled by the probe of the run's calls: over 11 runs of two workloads
    # that halved the spread of setup_s, from 0.25 to 0.12.
    probes = [c["probe_mean_s"] for c in plain if "probe_mean_s" in c]
    record["probe_mean_s"] = statistics.median(probes) if probes else None
    setup_s = at_reference_speed(statistics.median(record["import_s_samples"]),
                                 record["probe_mean_s"] or PROBE_REF_S)
    walls = [c["wall_s"] for c in plain]
    walls_ref = [c["wall_ref_s"] for c in plain if "wall_ref_s" in c]
    record["cli_args"] = cli_args
    record["calls"] = calls
    record["wall_s"] = summary(walls)
    record["wall_ref_s"] = summary(walls_ref) if walls_ref else None
    rss = [c["peak_rss_mb"] for c in plain if "peak_rss_mb" in c]
    if args.trace:
        traced = [c for c in calls if c["traced"] and "trace" in c]
        per_call = [layer_metrics(c["trace"]) for c in traced]
        metrics = {}
        for name, unit, _ in metric_specs():
            if name == "trace_overhead":
                value = (statistics.median(c["wall_s"] for c in traced)
                         / statistics.median(walls)) if traced else 0.0
            else:
                value = statistics.median(m[name] for m in per_call) if per_call else 0.0
            metrics[name] = _metric(value, unit)
    else:
        metrics = {
            "wall_ref_s": _metric(statistics.median(walls_ref)
                                  if walls_ref else 0.0, "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(statistics.median(rss) if rss else 0.0, "MB"),
        }
    result = {"correct": tally["failed"] == 0, **tally, "metrics": metrics}
    record["result"] = result

    records = WORK / "records"
    records.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = records / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    w, ref = record["wall_s"], record["wall_ref_s"] or {"median": 0.0}
    print(f"{args.workload} seed {args.seed}: wall_s median {w['median']:.4f} "
          f"[q1 {w['q1']:.4f}, q3 {w['q3']:.4f}, n={w['n']}] as measured, "
          f"wall_ref_s {ref['median']:.4f}, setup_s {setup_s:.4f}, "
          f"{tally['failed']}/{tally['attempted']} failed; "
          f"record {path.relative_to(ROOT)}", file=sys.stderr)
    for call in calls:
        for reason in call["reasons"]:
            print(f"  check: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
