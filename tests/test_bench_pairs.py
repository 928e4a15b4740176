"""The summary of ``tools/bench_pairs.py`` on fabricated run results; no
benchmark runs."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import TOOLS, load

TOOL = TOOLS / "bench_pairs.py"
bench_pairs = load(TOOL)

METRICS = [{"name": "wall_ref_s", "unit": "s", "better": "lower"},
           {"name": "rate", "unit": "1/s", "better": "higher"}]


def pairs(parent, change, failed=(0, 0)):
    return [{"first": "parent",
             "parent": {"wall_ref_s": p, "rate": 1.0 / p, "failed": failed[0]},
             "change": {"wall_ref_s": c, "rate": 1.0 / c, "failed": failed[1]}}
            for p, c in zip(parent, change)]


def test_medians_quartiles_and_wins():
    parent = [1.0, 1.1, 0.9, 1.2, 1.0, 1.05, 0.95, 1.0, 1.1, 1.0]
    change = [0.8, 0.85, 0.8, 1.3, 0.8, 0.8, 0.75, 1.0, 0.9, 0.8]
    s = bench_pairs.summarize(pairs(parent, change, (0, 2)), METRICS)
    wall = s["wall_ref_s"]
    assert wall["parent"] == {"median": 1.0, "q1": 0.9875, "q3": 1.1, "n": 10}
    assert wall["change"]["median"] == 0.8 and wall["change"]["n"] == 10
    assert wall["change_over_parent"] == 0.8
    # pair 4 is worse and pair 8 a tie, which counts for neither side
    assert wall["change_better_pairs"] == 8 and wall["pairs"] == 10
    assert not wall["gain_shown"]
    assert s["rate"]["change_better_pairs"] == 8  # higher is better there
    assert s["failed_operations"] == {"parent": 0, "change": 20}  # 2 a run
    assert "change better in 8 of 10 pairs; gain not shown" in \
        bench_pairs.report("w", s)


@pytest.mark.parametrize("change,shown", [
    ([0.85] * 10, True),                        # 10 of 10, beyond the IQR
    ([0.85] * 9 + [1.5], True),                 # 9 of 10 still wins
    ([0.99] * 10, False),                       # within the parent's IQR
])
def test_the_gain_rule(change, shown):
    parent = [0.95, 1.0, 1.05] * 3 + [1.0]
    s = bench_pairs.summarize(pairs(parent, change), METRICS)
    assert s["wall_ref_s"]["gain_shown"] is shown
    assert s["rate"]["gain_shown"] is shown


def test_per_layer_metrics_a_run_lacks_or_at_zero():
    runs = pairs([1.0, 1.1, 0.9], [0.8, 0.8, 0.9])
    for i, pair in enumerate(runs):
        pair["parent"]["count"] = pair["change"]["count"] = 0.0
        pair["parent"]["rarely"] = pair["change"]["rarely"] = float(i)
    del runs[1]["change"]["rarely"]
    s = bench_pairs.summarize(runs, METRICS + [
        {"name": "count", "unit": "count", "better": "lower"},
        {"name": "rarely", "unit": "s", "better": "lower"},
        {"name": "absent", "unit": "s", "better": "lower"}])
    assert set(s) == {"wall_ref_s", "rate", "count", "failed_operations"}
    assert s["count"]["change_over_parent"] is None
    assert s["count"]["change_better_pairs"] == 0
    assert s["wall_ref_s"]["change_better_pairs"] == 2


def test_traced_pairs_alternate_like_the_untraced(monkeypatch):
    calls = []

    def run_once(tree, command, workload, seed, seconds, trace):
        calls.append((tree, seed, trace))
        return {"trace.wall_s": 1.0, "failed": 0}, ({}, tree)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    meta = {}
    traced = bench_pairs.run_pairs({"parent": "P", "change": "C"}, ["run"],
                                   "w", [0, 5], 25, bench_pairs.TRACED_PAIRS,
                                   1, meta)
    assert bench_pairs.TRACED_PAIRS == 3 and len(traced) == 3
    assert [pair["first"] for pair in traced] == ["parent", "change", "parent"]
    assert calls == [("P", 0, 1), ("C", 0, 1), ("C", 0, 1), ("P", 0, 1),
                     ("P", 5, 1), ("C", 5, 1)]
    assert meta == {"parent": ({}, "P"), "change": ({}, "C")}


# a benchmark command that starts one sleeping child, writes both pids and
# waits for the child
STUB_RUN = '''
import os, subprocess, sys
if __name__ == "__main__":
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(120)"])
    with open({pids!r} + ".part", "w") as f:
        f.write(f"{{os.getpid()}} {{child.pid}}")
    os.replace({pids!r} + ".part", {pids!r})
    child.wait()
'''


def _running(pid) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _stub_repo(tmp_path, files):
    """A git repository under tmp_path committing this tool and ``files``
    (relative path -> text), and an empty directory to serve as TMPDIR."""
    repo, tmp = tmp_path / "repo", tmp_path / "tmp"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "tools").mkdir()
    tmp.mkdir()
    (repo / "tools" / "bench_pairs.py").write_text(TOOL.read_text())
    for name, text in files.items():
        (repo / name).write_text(text)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-qm", "stub"], check=True)
    return repo, tmp


@pytest.mark.parametrize("stop", [signal.SIGTERM, signal.SIGINT],
                         ids=["SIGTERM", "Ctrl-C"])
def test_a_stopped_run_leaves_nothing_behind(tmp_path, stop):
    # the tool is stopped while the parent's benchmark run (in the
    # extracted revision) sleeps: the run, its child and the extracted
    # tree must all be gone once the tool has exited
    pids = tmp_path / "pids"
    repo, tmp = _stub_repo(tmp_path, {
        "perfbench/run.py": STUB_RUN.format(pids=str(pids)),
        "BENCHMARK.json": json.dumps({
            "command": [sys.executable, "perfbench/run.py"],
            "run_seconds": 1})})
    tool = subprocess.Popen(
        [sys.executable, str(repo / "tools" / "bench_pairs.py"), "--against",
         "HEAD", "--workload", "w", "--pairs", "1", "--out",
         str(tmp_path / "out.json")],
        env={**os.environ, "TMPDIR": str(tmp)}, stderr=subprocess.DEVNULL)
    started = []
    try:
        deadline = time.monotonic() + 30
        while not pids.exists():
            assert time.monotonic() < deadline and tool.poll() is None
            time.sleep(0.05)
        started += [int(pid) for pid in pids.read_text().split()]
        assert len(started) == 2 and all(map(_running, started))
        assert any(tmp.iterdir())  # the extracted revision
        tool.send_signal(stop)
        assert tool.wait(timeout=30) != 0
        deadline = time.monotonic() + 10
        while any(map(_running, started)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, started))
    finally:  # what a failed stop left running
        if tool.poll() is None:
            tool.kill()
            tool.wait()
        for pid in filter(_running, started):
            os.kill(pid, signal.SIGKILL)
    assert not any(tmp.iterdir())
    assert not (tmp_path / "out.json").exists()


def test_a_child_past_its_timeout_is_killed_with_its_own_child(tmp_path):
    # the shared runner raises TimeoutExpired, and by then the child and
    # the child it started are both killed.  The stub records both pids in
    # about 0.05 s; a machine too slow to do so within the timeout gets a
    # longer one
    pids = tmp_path / "pids"
    started = []
    try:
        for timeout in (0.5, 2.0, 8.0):
            with pytest.raises(subprocess.TimeoutExpired):
                bench_pairs.run_child(
                    [sys.executable, "-c", STUB_RUN.format(pids=str(pids))],
                    tmp_path, timeout=timeout)
            if pids.exists():
                break
        started += [int(pid) for pid in pids.read_text().split()]
        assert len(started) == 2
        deadline = time.monotonic() + 10
        while any(map(_running, started)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, started))
    finally:  # what a failed kill left running
        for pid in filter(_running, started):
            os.kill(pid, signal.SIGKILL)


# holds a checkout of HEAD open until it is stopped, with its path in a file
HOLD_CHECKOUT = '''
import os, sys, time
sys.path.insert(0, {tools!r})
from bench_pairs import checkout
with checkout("HEAD", "data.txt") as tree:
    with open({where!r} + ".part", "w") as f:
        f.write(str(tree))
    os.replace({where!r} + ".part", {where!r})
    time.sleep(120)
'''


@pytest.mark.parametrize("stop", [signal.SIGTERM, signal.SIGINT],
                         ids=["SIGTERM", "Ctrl-C"])
def test_a_stopped_checkout_leaves_nothing_behind(tmp_path, stop):
    # the one way the tools extract a revision for --against: stopped while
    # it is open, it must remove the extracted tree
    where = tmp_path / "where"
    repo, tmp = _stub_repo(tmp_path, {"perfbench/run.py": "",
                                      "data.txt": "revision data\n"})
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLD_CHECKOUT.format(
            tools=str(repo / "tools"), where=str(where))],
        env={**os.environ, "TMPDIR": str(tmp)}, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not where.exists():
            assert time.monotonic() < deadline and holder.poll() is None
            time.sleep(0.05)
        tree = Path(where.read_text())
        assert tree.parent == tmp
        assert (tree / "data.txt").read_text() == "revision data\n"
        holder.send_signal(stop)
        assert holder.wait(timeout=30) != 0
    finally:  # what a failed stop left running
        if holder.poll() is None:
            holder.kill()
            holder.wait()
    assert not any(tmp.iterdir())
