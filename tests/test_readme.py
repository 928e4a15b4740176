"""README.md runs: its Python examples execute, its command lines parse,
its parameter file loads, and its performance table quotes the benchmark
record it names."""

import json
import re
import shlex
from pathlib import Path

from ddehopf import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(language):
    """The fenced code blocks of README.md tagged ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def section(title):
    """The text of README.md's ``## title`` section."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_the_python_examples_run():
    examples = blocks("python")
    assert len(examples) >= 2  # the quick start and the custom model
    for i, code in enumerate(examples):
        exec(compile(code, f"README.md python block {i}", "exec"),
             {"__name__": "readme"})


def test_the_command_lines_parse():
    (commands,) = re.findall(r"^```\n(.*?)^```$", section("Command line"),
                             re.M | re.S)
    lines = commands.strip().splitlines()
    assert lines and all(line.startswith("ddehopf ") for line in lines)
    parser = cli._build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert parser.parse_args(argv).command == argv[0]


def test_the_parameter_file_example_loads(tmp_path, capsys):
    (example,) = blocks("json")
    path = tmp_path / "params.json"
    path.write_text(example, encoding="utf-8")
    assert cli.main(["hopf", "--params", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["omega0"] > 0.0


def test_the_performance_table_quotes_its_record():
    text = section("Performance")
    (name,) = set(re.findall(r"BENCH_\d+\.json", text))
    record = json.loads((ROOT / name).read_text(encoding="utf-8"))
    rows = re.findall(r"^\| `([\w.-]+)` \|.*\| (\d+\.\d+) s \|$", text, re.M)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w for w, _ in rows) == sorted(
        w["name"] for w in bench["workloads"])
    for workload, figure in rows:
        median = record["workloads"][workload]["summary"]["wall_ref_s"][
            "change"]["median"]
        assert f"{median:.{len(figure.split('.')[1])}f}" == figure, workload
