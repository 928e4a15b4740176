"""Alternated benchmark runs of a git revision and of this tree, paired.

Each pair runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``,
for the run length it declares, with ``--trace 0``) once on the revision
and once on this tree, one after the other; which side runs first switches
from pair to pair, so that a drift of the machine's speed falls on both.
Pair i runs seed ``seeds[(i // 2) % len(seeds)]`` on both sides, so each
seed runs two pairs in turn, one with each side first.  After the pairs,
``TRACED_PAIRS`` more pairs, alternated the same way, run with ``--trace 1``
and give the per-layer metrics.

The results go to a JSON file (``BENCH_<n>.json``): per workload, the
summary of each end-to-end metric (each side's median and quartiles, the
ratio of the medians, and in how many pairs the change was better; ties
count for neither side), the number of failed operations and every pair's
runs; and the same summary of each per-layer metric over the traced
pairs, with their runs.  An existing file of the same two trees is
extended: its other workloads are kept, and this workload's entry is
replaced.  The summary is
printed too, with whether the pairs show a gain by the rule of the
benchmark: the change better in at least nine tenths of the pairs, and the
medians apart by more than the distance between the parent's quartiles.

Usage::

    python tools/bench_pairs.py --against REV --workload W --pairs N
        --out BENCH_<n>.json [--seeds S ...]

REV is extracted with ``git archive`` into a temporary directory, where its
own ``perfbench/run.py`` runs; this tree's runs in this tree (its records
land in ``.bench_build/``).  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# the share of pairs the change must win to show a gain
WIN_SHARE = 0.9
# alternated --trace 1 pairs per workload; one traced run a side is too few
# to read per-layer changes of a few ms
TRACED_PAIRS = 3

# this tree's benchmark, for its rules of summary and source digest
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", ROOT / "perfbench" / "run.py")
perfbench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_run)


def summarize(pairs, metrics) -> dict:
    """Summary of ``pairs`` (each {"parent": run, "change": run}, a run
    holding metric values and its ``failed`` count) for the end-to-end or
    per-layer ``metrics`` of BENCHMARK.json; a metric that some run lacks
    is left out, and the ratio of the medians is None over a parent median
    of 0."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [pair[side].get(name) for pair in pairs]
                  for side in SIDES}
        if None in values["parent"] + values["change"]:
            continue
        parent, change = (perfbench_run.summary(values[side])
                          for side in SIDES)
        wins = sum(sign * (c - p) < 0
                   for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": parent, "change": change,
            "change_over_parent": (change["median"] / parent["median"]
                                   if parent["median"] else None),
            "change_better_pairs": wins, "pairs": len(pairs),
            "gain_shown": (wins >= WIN_SHARE * len(pairs)
                           and sign * (parent["median"] - change["median"])
                           > parent["q3"] - parent["q1"]),
        }
    out["failed_operations"] = {side: sum(pair[side]["failed"] for pair in pairs)
                                for side in SIDES}
    return out


def report(workload, summary) -> str:
    """The summary as lines of text."""
    lines = [workload]
    for name, s in summary.items():
        if name == "failed_operations":
            continue
        p, c = s["parent"], s["change"]
        lines.append(
            f"  {name}: parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f", change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
            f"{s['unit']}; change/parent {s['change_over_parent']:.3f}; "
            f"change better in {s['change_better_pairs']} of {s['pairs']} "
            f"pairs; gain {'shown' if s['gain_shown'] else 'not shown'}")
    failed = summary["failed_operations"]
    lines.append(f"  failed operations: parent {failed['parent']}, "
                 f"change {failed['change']}")
    return "\n".join(lines)


def run_once(tree: Path, command, workload, seed, seconds, trace):
    """One benchmark run in ``tree``: (its metric values, counts and the
    figures of its run record; the record's machine and source digest)."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = re.search(r"record (\S+\.json)", proc.stderr).group(1)
    record = json.loads((tree / path).read_text(encoding="utf-8"))
    run = {"seed": seed, "started_utc": record["started_utc"],
           "record": Path(path).name,
           **{k: v["value"] for k, v in result["metrics"].items()}}
    if not trace:
        run.update(wall_ref_s_calls=record["wall_ref_s"],
                   wall_s_calls=record["wall_s"])
    run.update((k, result[k]) for k in ("attempted", "failed", "correct"))
    machine = {k: record[k] for k in ("nproc", "cpu_affinity", "python",
                                      "machine", "blas_threads", "numpy")}
    return run, (machine, record["source_sha256"])


def run_pairs(trees, command, workload, seeds, seconds, count, trace, meta):
    """``count`` alternated pairs of runs, with ``--trace trace``: pair i
    runs seed ``seeds[(i // 2) % len(seeds)]``, the parent first when i is
    even.  ``meta`` gets each side's machine and source digest."""
    shown = "trace.wall_s" if trace else "wall_ref_s"
    pairs = []
    for i in range(count):
        seed = seeds[(i // 2) % len(seeds)]
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side], meta[side] = run_once(
                trees[side], command, workload, seed, seconds, trace)
            print(f"{'traced ' if trace else ''}pair {i + 1} {side}: "
                  f"{shown} {pair[side][shown]:.4f}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command, seconds = bench["command"], bench["run_seconds"]
    rev = _git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    doc = {}
    if args.out.exists():
        doc = json.loads(args.out.read_text(encoding="utf-8"))
        if (doc["parent"]["git_revision"] != rev or doc["change"]["source_sha256"]
                != perfbench_run.source_digest()):
            print(f"error: {args.out} holds runs of other trees",
                  file=sys.stderr)
            return 2
    clean = not _git("status", "--porcelain", "--", "src")

    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    meta = {}  # side -> (machine, source digest)
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"parent": Path(tmp), "change": ROOT}
        pairs = run_pairs(trees, command, args.workload, args.seeds,
                          seconds, args.pairs, 0, meta)
        traced = run_pairs(trees, command, args.workload, args.seeds,
                           seconds, TRACED_PAIRS, 1, meta)

    summary = summarize(pairs, bench["end_to_end"])
    doc.update({
        "what": "Alternated parent/change runs of the benchmark command "
                "(--trace 0), paired in run order; the first side of each "
                "pair alternates, and pair i runs seed "
                "seeds[(i // 2) % len(seeds)] "
                "on both sides. 'workloads' holds each workload's pairs and "
                "their summary; 'traced' each workload's "
                f"{TRACED_PAIRS} pairs of --trace 1 runs, alternated the "
                "same way, and the summary of every per-layer metric.",
        "command": " ".join(command) + " --workload W --seed S --seconds "
                   f"{seconds} --trace 0",
        "environment": meta["change"][0],
        "parent": {"git_revision": rev, "source_sha256": meta["parent"][1]},
        "change": {"git_revision": _git("rev-parse", "HEAD") if clean else None,
                   "source_sha256": meta["change"][1]},
    })
    if not clean:
        doc["change"]["note"] = ("the working tree on top of "
                                 f"{_git('rev-parse', 'HEAD')}, with changes "
                                 "under src/ not yet committed")
    doc.setdefault("workloads", {})[args.workload] = {
        "seeds": args.seeds, "summary": summary, "pairs": pairs}
    doc.setdefault("traced", {})[args.workload] = {
        "seeds": args.seeds,
        "summary": summarize(traced, bench["per_layer"]), "pairs": traced}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(report(args.workload, summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
