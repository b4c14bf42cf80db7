"""Per-layer timing spans, installed from outside the package.

Each layer is one module of ``superstft``.  ``install`` wraps every public
function defined in a layer module (plain, or wrapped by a decorator such as
``functools.lru_cache``), plus ``Window.__call__`` and
``Signal.__call__``, and rebinds the wrapper in every ``superstft.*``
namespace that binds the same function object, so calls made through a
``from .x import f`` name are caught too.  A span records name, layer,
start, end, parent span and request id; spans stay in memory until the run
ends.  Counters are recorded at the same boundaries by small per-function
hooks.
"""

import functools
import gzip
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "kernels", "superosc", "special", "signals", "quadrature",
          "transforms", "evolution", "zak", "verify", "approx")

# span tuple fields
NAME, LAYER, START, END, PARENT, REQUEST = range(6)

# evolution entry points that produce one evolved value per call
_EVOLUTION_POINT_FUNCS = frozenset({
    "evolve_numeric", "evolve_gaussian_closed", "evolve_hermite",
    "evolve_superosc", "evolve_superosc_signal",
})

# functions the counters hook into; ``install`` fails if one is not wrapped
HOOKED = {
    "kernels": ("stft_superosc_closed_grid", "stft_superosc_limit_grid"),
    "quadrature": ("nodes_weights",),
    "transforms": ("stft_grid",),
    "evolution": ("oscillation_hazard", *sorted(_EVOLUTION_POINT_FUNCS)),
    "zak": ("zak_grid", "frame_check"),
    "verify": ("run_suite",),
}


class Tracer:
    """Span recorder.  ``spans`` holds one list per span, indexed by span id,
    with the fields NAME, LAYER, START, END, PARENT, REQUEST."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._stack = []
        self._info = {}
        self._request_specs = set()

    def begin_request(self, request_id):
        self.request = request_id
        self._request_specs = set()

    def begin(self, name, layer):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self.request])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def open_span(self, name):
        """Innermost open span with this name, or None."""
        for idx in reversed(self._stack):
            if self.spans[idx][NAME] == name:
                return idx
        return None

    def info(self, idx):
        return self._info.setdefault(idx, Counter())

    def parent_layer(self, idx):
        parent = self.spans[idx][PARENT]
        return None if parent is None else self.spans[parent][LAYER]


def self_times(spans):
    """Self time per layer: each span's duration minus the part of its
    interval covered by its child spans (the union of the children,
    clipped to the parent)."""
    children = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = Counter()
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, cursor = 0.0, lo
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, cursor), min(e, hi)
            if e > s:
                covered += e - s
                cursor = e
        out[span[LAYER]] += (hi - lo) - covered
    return out


def top_level_time(spans):
    """Summed duration of the spans that have no parent."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] is None)


# ---------------------------------------------------------------------------
# counters, recorded when a wrapped call returns
# ---------------------------------------------------------------------------

def _points(args):
    sizes = [np.size(a) for a in args if isinstance(a, (np.ndarray, list, tuple))]
    return max(sizes) if sizes else 1


def _hook(layer, name):
    """Counter hook for one wrapped function: (tracer, idx, args, result)."""

    def count(tracer, idx, args, result):
        tracer.counts[f"{layer}.calls"] += 1

    if layer == "kernels" and name == "stft_superosc_closed_grid":
        def hook(tracer, idx, args, result):
            count(tracer, idx, args, result)
            p, u, eta = args[2], args[3], args[4]
            tracer.counts["kernels.term_cells"] += (p.n + 1) * np.size(u) * np.size(eta)
        return hook
    if layer == "kernels" and name == "stft_superosc_limit_grid":
        def hook(tracer, idx, args, result):
            count(tracer, idx, args, result)
            tracer.counts["kernels.term_cells"] += np.size(args[3]) * np.size(args[4])
        return hook
    if layer == "special":
        def hook(tracer, idx, args, result):
            count(tracer, idx, args, result)
            tracer.counts["special.points"] += _points(args)
        return hook
    if layer == "quadrature" and name == "nodes_weights":
        def hook(tracer, idx, args, result):
            count(tracer, idx, args, result)
            nodes = len(result[0])
            tracer.counts["quadrature.rules_built"] += 1
            tracer.counts["quadrature.nodes"] += nodes
            spec = args[0]
            if spec not in tracer._request_specs:
                tracer._request_specs.add(spec)
                tracer.counts["quadrature.distinct_specs"] += 1
            grid = tracer.open_span("stft_grid")
            if grid is not None:
                tracer.info(grid)["nodes"] += nodes
        return hook
    if layer == "transforms" and name == "stft_grid":
        def hook(tracer, idx, args, result):
            count(tracer, idx, args, result)
            nodes = tracer.info(idx)["nodes"]
            tracer.counts["transforms.stft_flops"] += (
                8 * np.size(args[2]) * nodes * np.size(args[3]))
        return hook
    if layer == "evolution" and name in _EVOLUTION_POINT_FUNCS:
        def hook(tracer, idx, args, result):
            count(tracer, idx, args, result)
            if tracer.parent_layer(idx) != "evolution":
                tracer.counts["evolution.points"] += 1
        return hook
    if layer == "evolution" and name == "oscillation_hazard":
        def hook(tracer, idx, args, result):
            count(tracer, idx, args, result)
            tracer.counts["evolution.hazard_points"] += int(bool(result))
        return hook
    if layer == "zak" and name == "zak_grid":
        def hook(tracer, idx, args, result):
            count(tracer, idx, args, result)
            tracer.counts["zak.grid_points"] += np.size(args[1]) * np.size(args[2])
            check = tracer.open_span("frame_check")
            if check is not None:
                tracer.info(check)["scans"] += 1
        return hook
    if layer == "zak" and name == "frame_check":
        def hook(tracer, idx, args, result):
            count(tracer, idx, args, result)
            tracer.counts["zak.refinements"] += max(0, tracer.info(idx)["scans"] - 1)
        return hook
    if layer == "verify" and name == "run_suite":
        def hook(tracer, idx, args, result):
            count(tracer, idx, args, result)
            tracer.counts["verify.cases"] += len(result)
            tracer.counts["verify.cases_failed"] += sum(not r.passed for r in result)
        return hook
    return count


def _wrap(tracer, fn, layer, name):
    hook = _hook(layer, name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        hook(tracer, idx, args, result)
        return result

    for attr in ("cache_info", "cache_clear"):  # keep an lru_cache usable
        if hasattr(fn, attr):
            setattr(traced, attr, getattr(fn, attr))
    return traced


def _traceable(obj, module):
    """A function defined in ``module``, possibly behind decorators."""
    return (callable(obj) and not inspect.isclass(obj)
            and getattr(obj, "__module__", None) == module
            and inspect.isfunction(inspect.unwrap(obj)))


def install(tracer, package="superstft"):
    """Wrap the public functions of every layer module; returns the list of
    patches for ``uninstall``."""
    modules = [m for key, m in sorted(sys.modules.items())
               if key == package or key.startswith(package + ".")]
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for name, obj in vars(mod).items():
            if not name.startswith("_") and _traceable(obj, mod.__name__):
                wrappers[id(obj)] = (obj, _wrap(tracer, obj, layer, name))
        missing = [name for name in HOOKED.get(layer, ())
                   if id(getattr(mod, name, None)) not in wrappers]
        if missing:
            raise RuntimeError(f"{mod.__name__}: cannot trace {missing}, "
                               f"which the layer counters need")
    patches = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
                patches.append((mod, name, obj))
    signals = sys.modules[f"{package}.signals"]
    for cls in (signals.Window, signals.Signal):
        orig = cls.__dict__["__call__"]
        cls.__call__ = _wrap(tracer, orig, "signals", f"{cls.__name__}.__call__")
        patches.append((cls, "__call__", orig))
    return patches


def uninstall(patches):
    for owner, name, orig in reversed(patches):
        setattr(owner, name, orig)


def dump(spans, path):
    """Write spans as gzipped CSV: id, parent, request, layer, name, start,
    end."""
    with gzip.open(path, "wt") as out:
        out.write("id,parent,request,layer,name,start,end\n")
        for idx, s in enumerate(spans):
            parent = "" if s[PARENT] is None else s[PARENT]
            out.write(f"{idx},{parent},{s[REQUEST]},{s[LAYER]},{s[NAME]},"
                      f"{s[START]!r},{s[END]!r}\n")
