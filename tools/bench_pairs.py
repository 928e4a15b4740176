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

REV is extracted by ``checkout`` into a temporary directory, where its
own ``perfbench/run.py`` runs; this tree's runs in this tree (its records
land in ``.bench_build/``).  Stopped by Ctrl-C or SIGTERM, the tool kills
the running benchmark together with its child and removes the extracted
revision.  Only the standard library is used.

The other tools of ``tools/`` take from here what they share, since this
tool must run with no other file of ``tools/`` beside it: the child runner
``run_child``, the self-removing directory ``scratch``, the extraction of a
revision ``checkout``, the audit of one ``audit_at``, the module loader
``load`` and the Tier-1 paths ``TIER1``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import re
import signal
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
# the test directories of Tier-1, relative to a tree's root
TIER1 = ("tests", "perfbench/tests")


def load(path: Path):
    """The Python file ``path`` run as a fresh module named after it."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# this tree's benchmark, for its rules of summary and source digest
perfbench_run = load(ROOT / "perfbench" / "run.py")


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


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def scratch():
    """A temporary directory, removed on any exit: while it is open a
    SIGTERM unwinds like Ctrl-C, as a SystemExit."""
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            yield Path(tmp)
    finally:
        signal.signal(signal.SIGTERM, previous)


@contextlib.contextmanager
def checkout(rev, *paths):
    """A ``scratch`` directory holding ``paths`` (the whole tree when none
    is named) of git revision ``rev`` of this repository, extracted with
    ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, *paths],
                             check=True, capture_output=True).stdout
    with scratch() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        yield tmp


def run_child(args, cwd, env=None, timeout=None, stderr=subprocess.PIPE):
    """The ``subprocess.CompletedProcess`` of ``args`` run in ``cwd`` with
    the environment ``env``, its stdout and (unless ``stderr`` is None,
    which passes it on) its stderr read as text.  The child runs in a
    process group of its own, and the whole group is killed if it outlives
    ``timeout`` seconds (``subprocess.TimeoutExpired`` is raised) or if
    this process is stopped meanwhile (Ctrl-C, or SIGTERM, which
    ``scratch`` turns into an exit), so the child's own children go too."""
    with subprocess.Popen(args, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=stderr, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


def audit_at(rev, tool, *args) -> str:
    """The stdout of the script ``tool`` of this tree run in a fresh
    interpreter on the tree of git revision ``rev`` (extracted by
    ``checkout``), given as its first argument, with ``args``; the run
    must succeed, and its stderr goes straight to this process's."""
    with checkout(rev) as tree:
        done = run_child([sys.executable, str(tool), str(tree), *args], tree,
                         stderr=None)
    done.check_returncode()
    return done.stdout


def run_once(tree: Path, command, workload, seed, seconds, trace):
    """One benchmark run in ``tree``: (its metric values, counts and the
    figures of its run record; the record's machine and source digest)."""
    done = run_child([*command, "--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)], tree)
    done.check_returncode()
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = re.search(r"record (\S+\.json)", done.stderr).group(1)
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

    meta = {}  # side -> (machine, source digest)
    with checkout(rev) as parent:
        trees = {"parent": parent, "change": ROOT}
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
