"""One measured call in a fresh interpreter.

    python3 perfbench/child.py --result OUT.json --setup
    python3 perfbench/child.py --result OUT.json [--trace] -- CLI ARGS...

``--setup`` times ``import ddehopf.cli``.  Otherwise the CLI arguments are
passed to ``ddehopf.cli.main``; the import is not timed, the call is, and
the peak resident set size of the process is read after it.  With
``--trace`` the call runs under :class:`tracer.Tracer` and its raw report
is added to the result; without it the call runs under
:class:`probe.Probe`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def timed_call(cli, argv, trace: bool) -> dict:
    """Run and time ``cli.main(argv)``, under the tracer or the probe."""
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
        t0 = perf_counter()
        returncode = cli.main(argv)
        wall_s = perf_counter() - t0
        tracer.uninstall()
        return {"returncode": returncode, "wall_s": wall_s,
                "trace": tracer.report()}
    from probe import Probe
    with Probe() as probe:
        t0 = perf_counter()
        returncode = cli.main(argv)
        wall_s = perf_counter() - t0
    return {"returncode": returncode, "wall_s": wall_s, **probe.report()}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args()

    t0 = perf_counter()
    import numpy
    from ddehopf import cli
    out = {"import_s": perf_counter() - t0, "numpy": numpy.__version__}
    if not args.setup:
        out.update(timed_call(cli, args.cli_args, args.trace))
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()
