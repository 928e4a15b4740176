"""Per-layer tracing of ddehopf from outside the package.

The tracer replaces the public functions of each ddehopf module with timing
wrappers, at every module attribute that refers to them, so a call is seen
wherever its caller looks the name up (``cli.expand`` as well as
``expansion.expand``, ``expansion.delayed_state`` as well as
``epsseries.delayed_state``).  A few constructors are wrapped on their
class: ``TrigPoly`` and ``EpsSeries`` are counted, ``ReconstructedOrbit``
is timed as ``orbit.reconstruct``, and ``DdeModel`` wraps each new model's
rhs so that series (jet) and numeric evaluations are timed apart.
``uninstall`` puts every original back.

Nothing inside ``src/ddehopf`` changes.  A span's self time is its duration
minus the time of the wrapped calls made inside it, so the self times of all
spans under ``cli.main`` add up to the traced wall time of the CLI call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import Counter
from time import perf_counter

# Layers are the package modules; the CLI module is the outermost one.
LAYERS = ("trigpoly", "epsseries", "models", "bifurcation", "expansion",
          "orbit", "ddeint", "cli")

# Functions and constructor spans reported with .calls and .self_s.
SPAN_METRICS = (
    "expansion.assemble_rhs", "expansion.order_coefficient",
    "expansion.solve_order", "expansion.solve_particular",
    "expansion.fix_homogeneous", "expansion.closed_form_RS",
    "epsseries.delayed_state", "epsseries.analytic", "epsseries.div",
    "trigpoly.mul",
    "models.rhs_jet", "models.rhs_num", "models.equilibrium_series",
    "models.equilibrium", "bifurcation.find_hopf",
    "orbit.solve_epsilon", "orbit.residual", "orbit.orbit_extrema",
    "orbit.reconstruct",
    "ddeint.integrate", "ddeint.detect_steady_state", "ddeint.relative_error",
)

# Orders at which the cumulative expansion time is reported.
ORDER_LADDER = (4, 8, 12, 16, 20)

# Dormand-Prince with first-same-as-last: integrate() evaluates the rhs once
# before the first step and six times per attempted step.
RHS_PER_ATTEMPT = 6

_RATIO, _COUNT = "ratio", "count"


def metric_specs():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    specs = []
    for name in SPAN_METRICS:
        specs.append((f"{name}.calls", _COUNT, "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    specs.append(("expansion.assemble_rhs.total_s", "s", "lower"))
    specs += [("trigpoly.TrigPoly.created", _COUNT, "lower"),
              ("epsseries.EpsSeries.created", _COUNT, "lower"),
              ("orbit.points_failed", _COUNT, "lower"),
              ("orbit.points_extrapolated", _COUNT, "lower")]
    specs += [(f"expansion.order_time_s.j{j}", "s", "lower")
              for j in ORDER_LADDER]
    specs.append(("expansion.growth_exponent", "exponent", "lower"))
    specs += [("ddeint.steps_accepted", _COUNT, "lower"),
              ("ddeint.rhs_evals", _COUNT, "lower"),
              ("ddeint.step_acceptance", _RATIO, "higher"),
              ("ddeint.steps_per_s", "1/s", "higher"),
              ("ddeint.useful_fraction", _RATIO, "higher")]
    specs.append(("cli.main.self_s", "s", "lower"))
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [("trace.wall_s", "s", "lower"),
              ("trace_overhead", _RATIO, "lower")]
    return specs


class Tracer:
    """Install timing wrappers on ddehopf, collect spans, restore on exit.

    Use as a context manager, or call ``install`` and ``uninstall``.
    """

    def __init__(self):
        self.spans = {}          # name -> [calls, total_s, self_s]
        self.counts = Counter()  # constructor counts
        self.edges = Counter()   # (parent span, child span) -> calls
        self.order_times = []    # seconds from expand() start to each order
        self.integrated_t = 0.0  # time span covered by integrate() calls
        self.settled_t = 0.0     # ... of those whose steady state was found
        self.steps_accepted = 0
        self.diagram_failed = 0
        self.diagram_extrapolated = 0
        self.active = False
        self._stack = []         # [span name, time spent in wrapped children]
        self._patches = []       # (owner, attribute, original)
        self._expand_t0 = None

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, edges = self._stack, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            edges[(stack[-1][0] if stack else "", name)] += 1
            if before is not None:
                before()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted_init(self, key, init):
        counts = self.counts

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            counts[key] += 1
            init(obj, *args, **kwargs)

        return __init__

    def _model_init(self, init):
        from ddehopf.epsseries import EpsSeries
        tracer = self

        def classify(rhs):
            jet = self._span("models.rhs_jet", rhs)
            num = self._span("models.rhs_num", rhs)

            def traced_rhs(lam, x, y):
                if not tracer.active:
                    return rhs(lam, x, y)
                if (isinstance(lam, EpsSeries)
                        or any(isinstance(v, EpsSeries) for v in x)
                        or any(isinstance(v, EpsSeries) for v in y)):
                    return jet(lam, x, y)
                return num(lam, x, y)

            return traced_rhs

        @functools.wraps(init)
        def __init__(model, *args, **kwargs):
            init(model, *args, **kwargs)
            model.rhs = classify(model.rhs)

        return __init__

    # -- hooks deriving per-layer counts from call results -----------------------

    def _expand_started(self):
        self._expand_t0 = perf_counter()
        self.order_times = []

    def _order_done(self, args, result):
        self.order_times.append(perf_counter() - self._expand_t0)

    def _integrated(self, args, traj):
        self.integrated_t += traj.t_end - traj.t_start
        self.steps_accepted += len(traj.ts) - 1

    def _settled(self, args, alignment):
        traj = args[0]
        self.settled_t += traj.t_end - traj.t_start

    def _diagram_done(self, args, rows):
        self.diagram_failed += sum(1 for r in rows if r["error"])
        self.diagram_extrapolated += sum(1 for r in rows if r["extrapolated"])

    # -- install / uninstall -------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self.active:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("ddehopf")
        mods = {layer: importlib.import_module(f"ddehopf.{layer}")
                for layer in LAYERS}
        hooks = {
            "expansion.expand": (self._expand_started, None),
            "expansion.fix_homogeneous": (None, self._order_done),
            "ddeint.integrate": (None, self._integrated),
            "ddeint.detect_steady_state": (None, self._settled),
            "orbit.bifurcation_diagram": (None, self._diagram_done),
        }
        wrappers = {}  # id(original function) -> wrapper
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name == "orbit.reconstruct":
                    continue  # its work is solve_epsilon + the constructor
                wrappers[id(fn)] = self._span(name, fn, *hooks.get(name, (None, None)))
        for mod in (pkg, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])

        TrigPoly = mods["trigpoly"].TrigPoly
        EpsSeries = mods["epsseries"].EpsSeries
        Orbit = mods["orbit"].ReconstructedOrbit
        DdeModel = mods["models"].DdeModel
        self._patch(TrigPoly, "__init__", self._counted_init(
            "trigpoly.TrigPoly.created", TrigPoly.__init__))
        self._patch(EpsSeries, "__init__", self._counted_init(
            "epsseries.EpsSeries.created", EpsSeries.__init__))
        self._patch(Orbit, "__init__",
                    self._span("orbit.reconstruct", Orbit.__init__))
        self._patch(DdeModel, "__init__", self._model_init(DdeModel.__init__))
        self.active = True
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- report ------------------------------------------------------------------

    def report(self) -> dict:
        """Raw trace data, JSON-ready."""
        return {
            "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.spans.items())},
            "counts": dict(self.counts),
            "edges": {f"{p}>{c}": n for (p, c), n in sorted(self.edges.items())},
            "order_times": list(self.order_times),
            "integrated_t": self.integrated_t,
            "settled_t": self.settled_t,
            "steps_accepted": self.steps_accepted,
            "diagram_failed": self.diagram_failed,
            "diagram_extrapolated": self.diagram_extrapolated,
        }


def layer_metrics(report: dict) -> dict:
    """Per-layer metric values {name: value} from one traced call's report.

    Layers a workload never reaches report 0.
    """
    spans = report["spans"]

    def span(name, field):
        s = spans.get(name)
        return s[field] if s else 0

    out = {}
    for name in SPAN_METRICS:
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.self_s"] = span(name, "self_s")
    out["expansion.assemble_rhs.total_s"] = span("expansion.assemble_rhs",
                                                 "total_s")
    counts = report["counts"]
    out["trigpoly.TrigPoly.created"] = counts.get("trigpoly.TrigPoly.created", 0)
    out["epsseries.EpsSeries.created"] = counts.get(
        "epsseries.EpsSeries.created", 0)
    out["orbit.points_failed"] = report["diagram_failed"]
    out["orbit.points_extrapolated"] = report["diagram_extrapolated"]

    times = report["order_times"]  # times[j-1] is the cumulative time at order j
    for j in ORDER_LADDER:
        out[f"expansion.order_time_s.j{j}"] = times[j - 1] if j <= len(times) else 0.0
    reached = [j for j in ORDER_LADDER if j <= len(times)]
    exponent = 0.0
    if len(reached) >= 2:
        # Local slope of log(time) over log(order) between the two highest
        # ladder orders reached, as for the N = 16 -> 20 growth.
        j0, j1 = reached[-2], reached[-1]
        exponent = (math.log(times[j1 - 1] / times[j0 - 1])
                    / math.log(j1 / j0))
    out["expansion.growth_exponent"] = exponent

    rhs_evals = report["edges"].get("ddeint.integrate>models.rhs_num", 0)
    integrations = span("ddeint.integrate", "calls")
    attempted = (rhs_evals - integrations) / RHS_PER_ATTEMPT
    accepted = report["steps_accepted"]
    integrate_s = span("ddeint.integrate", "total_s")
    out["ddeint.steps_accepted"] = accepted
    out["ddeint.rhs_evals"] = rhs_evals
    out["ddeint.step_acceptance"] = accepted / attempted if attempted else 0.0
    out["ddeint.steps_per_s"] = accepted / integrate_s if integrate_s else 0.0
    out["ddeint.useful_fraction"] = (report["settled_t"] / report["integrated_t"]
                                     if report["integrated_t"] else 0.0)

    out["cli.main.self_s"] = span("cli.main", "self_s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s["self_s"] for k, s in spans.items()
                                     if k.split(".", 1)[0] == layer)
    out["trace.wall_s"] = span("cli.main", "total_s")
    return out
