"""One fresh interpreter runs one command list through ``siegel_weights.cli``.

run.py starts this file as ``python3 bench/child.py SRC_DIR TRACE`` and sends
the command list, a JSON list of argv lists, on stdin.  The first thing the
child does is import ``siegel_weights.cli`` from SRC_DIR, so the time from
spawn to the end of that import is the set-up time a user pays.  It then
passes each argv to ``cli.main`` back to back (a closed loop with one caller)
and writes one JSON line per command to stdout:

    {"rc": exit code, "ns": elapsed nanoseconds, "out": captured stdout}

followed by one summary line:

    {"imported_ns": monotonic clock after the import, "peak_rss_kb": ...,
     "trace": per-layer aggregates, or null when TRACE is 0}

With TRACE = 1 every public function of the six layer modules is wrapped in
a span before the first command (see Tracer).  Spans stay in memory and are
reduced to per-layer and per-function figures after the last command.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import siegel_weights.cli as cli  # noqa: E402

IMPORTED_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

# Modules whose public functions are timed, in pipeline order.  root_data
# helpers (require_dominant, pairing, ...) are too fine-grained to wrap; their
# time lands in the self time of whichever layer called them.  The same holds
# for dataclass constructors and WeylElement methods.
LAYERS = ("weyl", "kostant", "laurent", "boundary", "intersection", "cli")

# The laurent layer's public interface is the LaurentPolynomial class.
LAURENT_METHODS = frozenset(
    ("__init__", "__eq__", "__add__", "__neg__", "__sub__", "__mul__")
)

# Character oracles of kostant (as opposed to the Kostant tables).
KOSTANT_ORACLES = frozenset(
    f"kostant.{name}"
    for name in (
        "character",
        "euler_check",
        "freudenthal_character",
        "freudenthal_mass",
        "freudenthal_multiplicities",
        "levi_character",
        "weyl_dimension",
    )
)


# Argument keys for the reuse ratios: distinct keys over calls.  Each takes
# the wrapped function's own parameters.
REUSE_KEYS = {
    "weyl.minimal_representatives": lambda m: m,
    "kostant.nilpotent_cohomology": lambda lam, m: (lam, m),
    "intersection.intermediate_profile": lambda lam, m, strata: (lam, m, tuple(strata)),
}


def _terms_passed(self, terms=None):
    """Terms handed to LaurentPolynomial.__init__, which normalises each."""
    return len(terms) if terms else 0


class Tracer:
    """Spans around calls into the layers, plus argument-keyed counts.

    A span is (name, parent span index, start ns, end ns, command id); its
    slot is reserved on entry so children can point at it.  ``observers``
    map a span name to a function of (args, kwargs, result) that feeds the
    counters.
    """

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.command = -1
        self.layer_of = {}
        self.patched_sites = 0
        self.counts = {"laurent.terms_in": 0, "boundary.entries": 0}
        self.distinct = {name: set() for name in REUSE_KEYS}
        counts = self.counts

        def terms_in(args, kwargs, result):
            counts["laurent.terms_in"] += _terms_passed(*args, **kwargs)

        def entries(args, kwargs, result):
            counts["boundary.entries"] += len(result)

        def reuse(name):
            key, seen = REUSE_KEYS[name], self.distinct[name]
            return lambda args, kwargs, result: seen.add(key(*args, **kwargs))

        self.observers = {
            "laurent.LaurentPolynomial.__init__": terms_in,
            "boundary.siegel_profile": entries,
            "boundary.klingen_profile": entries,
            **{name: reuse(name) for name in REUSE_KEYS},
        }

    def wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = self.observers.get(name)
        self.layer_of[name] = layer
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end, tracer.command)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the layers' public functions and patch every module holding them.

        ``cli`` and ``intersection`` import functions by name, so replacing
        the attribute of the defining module alone would miss their calls:
        every loaded module of the package is searched for references.
        """
        replace = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                # routines only: classes and callable constants such as
                # weyl.LONGEST are not entry points of the layer
                if attr.startswith("_") or not inspect.isroutine(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                replace[id(obj)] = (obj, self.wrap(layer, f"{layer}.{attr}", obj))
        poly = sys.modules[f"{package}.laurent"].LaurentPolynomial
        for attr, obj in list(vars(poly).items()):
            if attr.startswith("_") and attr not in LAURENT_METHODS:
                continue
            name = f"laurent.LaurentPolynomial.{attr}"
            if isinstance(obj, classmethod):
                setattr(poly, attr, classmethod(self.wrap("laurent", name, obj.__func__)))
            elif callable(obj):
                setattr(poly, attr, self.wrap("laurent", name, obj))
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self.patched_sites += 1

    def summary(self):
        """Per-layer and per-function self time and calls, from the spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        functions = {}
        for (name, parent, start, end, _), inner in zip(spans, child_ns):
            row = functions.setdefault(name, {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += end - start - inner
        layers = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        for name, row in functions.items():
            layer = layers[self.layer_of[name]]
            layer["calls"] += row["calls"]
            layer["self_ns"] += row["self_ns"]
        return {
            "layers": layers,
            "functions": functions,
            "counts": dict(self.counts),
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
            "oracle_self_ns": sum(
                row["self_ns"] for name, row in functions.items() if name in KOSTANT_ORACLES
            ),
            "spans": len(spans),
            "commands": self.command + 1,
            "patched_sites": self.patched_sites,
        }


def peak_rss_kb():
    """VmHWM, the peak resident set of this process image.

    ru_maxrss is not used: across fork and exec Linux carries the parent's
    resident set into it, so it would measure the benchmark's own memory.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main():
    trace = sys.argv[2] == "1"
    commands = json.load(sys.stdin)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install("siegel_weights")
    main_fn = cli.main  # read after install: main is itself wrapped
    stdout = sys.stdout
    clock = time.perf_counter_ns
    for number, argv in enumerate(commands):
        if tracer is not None:
            tracer.command = number
        buffer = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(buffer):
                rc = main_fn(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed command, not a dead run
            rc = -1
            buffer.write(f"\n{type(exc).__name__}: {exc}\n")
        elapsed = clock() - start
        stdout.write(json.dumps({"rc": rc, "ns": elapsed, "out": buffer.getvalue()}) + "\n")
    summary = {
        "imported_ns": IMPORTED_NS,
        "peak_rss_kb": peak_rss_kb(),
        "module": os.path.abspath(cli.__file__),
        "trace": tracer.summary() if tracer is not None else None,
    }
    stdout.write(json.dumps(summary) + "\n")
    stdout.flush()


if __name__ == "__main__":
    main()
