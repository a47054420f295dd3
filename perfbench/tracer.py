"""Outside-in tracing of sparsekit's public API.

The tracer replaces, at run time, every public function of each sparsekit
module, and every public method and property of the public classes those
modules define, with a wrapper that records a span.  Nothing under ``src/``
changes.  Replacement goes by identity through every module namespace of
the package (``codes`` imports ``conjugate_gradient`` from ``sampling``;
``spectral`` and ``arrays`` import ``hermitian_eig`` from ``core``), and
through the experiment registry's runner references, so a call is charged
to the layer that defines the function whichever module it was called from.

A layer's self time is the duration of its spans minus the time their child
spans cover.  Work done inside a constructor (``RandomSource(...)``,
``CovarianceEstimate(...)``) or a private helper is charged to the span
that called it.
"""

import dataclasses
import importlib
import inspect
import os
import sys
import time
import weakref

LAYERS = ("core", "sampling", "codes", "spectral", "arrays", "sca", "ofdm", "experiments")
PACKAGE = "sparsekit"
_MODULES = LAYERS + ("cli",)

_clock = time.perf_counter


def _arg(args, kwargs, name, position):
    return kwargs[name] if name in kwargs else args[position]


# Split keys read plain attributes only: a wrapped property read here would
# record a span outside the one being opened.
def _problem_size(args, kwargs):
    return f"n{_arg(args, kwargs, 'problem', 0).mixing.shape[1]}"


def _lp_size(args, kwargs):
    # basis pursuit hands the simplex 2n variables: [A, -A]
    return f"n{_arg(args, kwargs, 'eq_matrix', 1).shape[1] // 2}"


def _geometry(args, kwargs):
    cfg = _arg(args, kwargs, "cfg", 1)
    return "comb" if cfg.guard_left == 0 and cfg.guard_right == 0 else "guarded"


# Functions whose calls are split by a property of their input.
SPLITS = {
    ("ofdm", "estimate_mimat"): _geometry,
    ("sca", "matching_pursuit"): _problem_size,
    ("sca", "focuss"): _problem_size,
    ("sca", "ide"): _problem_size,
    ("sca", "sl0"): _problem_size,
    ("sca", "simplex_solve"): _lp_size,
}


@dataclasses.dataclass
class _Target:
    layer: str
    name: str  # "func" or "Class.method"
    owner: object  # module or class that holds the attribute
    attr: str
    original: object  # the attribute as found (function, property, ...)
    function: object  # the plain function inside it


def _public_targets(module, layer):
    targets = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            targets.append(_Target(layer, attr, module, attr, value, value))
        elif inspect.isclass(value):
            for member, raw in vars(value).items():
                if member.startswith("_"):
                    continue
                if isinstance(raw, property):
                    func = raw.fget
                elif isinstance(raw, (staticmethod, classmethod)):
                    func = raw.__func__
                elif inspect.isfunction(raw):
                    func = raw
                else:
                    continue
                if func is not None:
                    targets.append(
                        _Target(layer, f"{attr}.{member}", value, member, raw, func)
                    )
    return targets


class Tracer:
    """Span recorder over the public sparsekit API.

    ``install`` swaps the wrappers in and ``uninstall`` restores the
    originals, so untraced and traced passes can alternate in one process.
    Statistics accumulate over the passes opened with ``begin_pass``.
    """

    def __init__(self):
        self.modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in _MODULES}
        self._report_type = self.modules["core"].SolverReport
        self.targets = []
        for layer in LAYERS:
            self.targets.extend(_public_targets(self.modules[layer], layer))
        self._undo = []
        self._stack = []
        self._reports = {}
        self.passes = []  # per traced pass: {"calls"|"self_s"|"errors"|"flags": {layer: n}}
        self.durations = {}  # (layer, name, key) -> [seconds per call]
        self.report_stats = {}  # (layer, name, key) -> [reports, iterations, converged]
        self.spans = []  # (id, parent, layer, name, key, start, end) of one pass
        self._span_log = None
        self._next_span = 0
        self._wrappers = {id(t.function): self._wrap(t) for t in self.targets}

    # -- installation -----------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        by_id = {id(t.function): t for t in self.targets}
        for target in self.targets:
            if isinstance(target.owner, type):
                self._set(target.owner, target.attr, self._descriptor(target))
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in by_id:
                    self._set(module, attr, self._wrappers[id(value)])
        registry = self.modules["experiments"].REGISTRY
        for key, definition in list(registry.items()):
            wrapper = self._wrappers.get(id(definition.runner))
            if wrapper is not None:
                self._undo.append((registry, key, definition, True))
                registry[key] = dataclasses.replace(definition, runner=wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value, is_item = self._undo.pop()
            if is_item:
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr], False))
        setattr(owner, attr, value)

    def _descriptor(self, target):
        wrapper = self._wrappers[id(target.function)]
        raw = target.original
        if isinstance(raw, property):
            return property(wrapper, raw.fset, raw.fdel, raw.__doc__)
        if isinstance(raw, staticmethod):
            return staticmethod(wrapper)
        if isinstance(raw, classmethod):
            return classmethod(wrapper)
        return wrapper

    # -- recording --------------------------------------------------------

    def begin_pass(self, keep_spans=False):
        self.passes.append({"calls": {}, "self_s": {}, "errors": {}, "flags": {}})
        self._reports.clear()
        if keep_spans:
            self.spans = self._span_log = []

    def end_pass(self):
        self._reports.clear()
        self._span_log = None

    def _wrap(self, target):
        func = target.function
        layer, name = target.layer, target.name
        split = SPLITS.get((layer, name))
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            key = split(args, kwargs) if split else ""
            span_id = tracer._next_span = tracer._next_span + 1
            frame = [0.0, span_id]
            stack.append(frame)
            failed = False
            start = _clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += duration
                tracer._record(layer, name, key, duration, duration - frame[0], failed)
                if tracer._span_log is not None:
                    tracer._span_log.append(
                        (span_id, parent[1] if parent else 0, layer, name, key, start, end)
                    )
            tracer._read_reports(layer, name, key, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        traced.__doc__ = func.__doc__
        return traced

    def _record(self, layer, name, key, duration, self_time, failed):
        current = self.passes[-1]
        current["calls"][layer] = current["calls"].get(layer, 0) + 1
        current["self_s"][layer] = current["self_s"].get(layer, 0.0) + self_time
        if failed:
            current["errors"][layer] = current["errors"].get(layer, 0) + 1
        self.durations.setdefault((layer, name, key), []).append(duration)

    def _read_reports(self, layer, name, key, result):
        items = result if isinstance(result, tuple) else (result,)
        for item in items:
            if not isinstance(item, self._report_type):
                continue
            # A report can pass through several spans (cg_accelerate returns
            # conjugate_gradient's): each layer is charged the flags added
            # while its span ran, and every function returning the report
            # counts its iterations.
            seen = self._reports.get(id(item))
            if seen is None or seen[0]() is not item:
                seen = [weakref.ref(item), 0]
                self._reports[id(item)] = seen
            added = len(item.flags) - seen[1]
            seen[1] = len(item.flags)
            flags = self.passes[-1]["flags"]
            flags[layer] = flags.get(layer, 0) + added
            stats = self.report_stats.setdefault((layer, name, key), [0, 0, 0])
            stats[0] += 1
            stats[1] += item.iterations
            stats[2] += bool(item.converged)

    # -- reach check ------------------------------------------------------

    def unintercepted(self, call):
        """Run ``call()`` traced and under a profiler; return the public
        sparsekit functions it reached without passing a wrapper.  The
        statistics of the call are discarded."""
        package_dir = os.path.dirname(self.modules["core"].__file__) + os.sep
        wrapped = {t.function.__code__ for t in self.targets}
        wrapper_code = next(iter(self._wrappers.values())).__code__
        missed = set()

        def profile(frame, event, _arg):
            if event != "call":
                return
            code = frame.f_code
            if not code.co_filename.startswith(package_dir):
                return
            qualname = getattr(code, "co_qualname", code.co_name)
            if any(part.startswith(("_", "<")) for part in qualname.split(".")):
                return
            caller = frame.f_back.f_code if frame.f_back else None
            if code not in wrapped or caller is not wrapper_code:
                module = code.co_filename[len(package_dir):].removesuffix(".py")
                missed.add(f"{module}.{qualname}")

        self.install()
        self.begin_pass()
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
            self.end_pass()
            self.uninstall()
        self.passes.clear()
        self.durations.clear()
        self.report_stats.clear()
        return sorted(missed)
