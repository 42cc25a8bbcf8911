"""Span tracing of trilap's layers from outside the package.

`Tracer.install()` replaces the public callables of each layer with a
timing wrapper wherever the package's modules look them up: every
``trilap.*`` module global bound to the callable, the class attribute for
methods, and the ``numpy.fft`` (and, once the package imports it,
``scipy.fft``) functions the spectral code calls.  `uninstall()` puts the
originals back.  Nothing under ``src/`` is modified.

Each span records (name, start, end, parent index); a layer's self time is
its span's duration minus the durations of its direct children.  Counts
that repeat exactly (FFT bytes, propagator keys, audit samples, ...) are
taken at the same boundaries by per-callable hooks.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)

# span names, keyed by (module, attribute path) of the callable
TARGETS = {
    ("trilap.cli", "main"): "cli.main",
    ("trilap.core", "load_system"): "core.load_system",
    ("trilap.stepper", "run"): "stepper.run",
    ("trilap.spectral", "build_propagator"): "spectral.build_propagator",
    ("trilap.spectral", "matrix_exp_batch"): "spectral.matrix_exp_batch",
    ("trilap.spectral", "ModePropagator.apply"): "spectral.apply",
    ("trilap.probes", "run_violation_experiment"): "probes.run_violation_experiment",
    ("trilap.probes", "build_diffusion_probe"): "probes.build_probe",
    ("trilap.probes", "build_transport_probe"): "probes.build_probe",
    ("trilap.probes", "initial_rate_field"): "probes.initial_rate_field",
    ("trilap.criterion", "audit"): "criterion.audit",
    ("trilap.criterion", "check_reaction_boundary_sign"): "criterion.reaction_sign",
}


def fingerprint(obj) -> str:
    """Content digest of a call argument: arrays by bytes, dataclasses by field."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(f"nd{o.shape}{o.dtype.str}".encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            h.update(type(o).__qualname__.encode())
            for f in dataclasses.fields(o):
                h.update(f.name.encode())
                feed(getattr(o, f.name))
        elif isinstance(o, (tuple, list)):
            h.update(b"(")
            for item in o:
                feed(item)
            h.update(b")")
        elif isinstance(o, dict):
            for k in sorted(o):
                h.update(repr(k).encode())
                feed(o[k])
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


def array_bytes(obj) -> int:
    """Bytes held by the ndarray fields of a dataclass (or plain object)."""
    if dataclasses.is_dataclass(obj):
        values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        values = list(vars(obj).values())
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    """Collects spans and counts for the units of work run while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.build_keys: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, perf_counter(), None, parent]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = perf_counter()
            if hook is not None:
                hook(args, kwargs, result, parent)
            return result

        return wrapper

    def _hook_fft(self, args, kwargs, result, parent):
        self.counts["spectral.fft_bytes"] += np.asarray(args[0]).nbytes + result.nbytes

    def _hook_build(self, args, kwargs, result, parent):
        self.build_keys.add(fingerprint((args, kwargs)))
        self.counts["spectral.propagator_table_bytes"] += array_bytes(result)

    def _hook_run(self, args, kwargs, result, parent):
        rc = next(a for a in list(args) + list(kwargs.values()) if hasattr(a, "n_steps"))
        self.counts["stepper.steps"] += rc.n_steps

    def _hook_evaluate(self, args, kwargs, result, parent):
        if parent is not None and self.spans[parent][0] == "criterion.reaction_sign":
            self.counts["criterion.samples"] += int(np.prod(np.shape(args[1])[1:]))

    def _hook_audit(self, args, kwargs, result, parent):
        self.counts["criterion.violations"] += len(result.violations)

    def _hook_experiment(self, args, kwargs, result, parent):
        self.counts["probes.eps_points"] += len(result.eps)
        self.counts["probes.eps_dropped"] += len(result.dropped)

    # -- patching --------------------------------------------------------

    def _replace(self, original, wrapper, extra_owners=()):
        """Rebind `original` to `wrapper` in every trilap module and given owner."""
        owners = [m for n, m in list(sys.modules.items()) if n == "trilap" or n.startswith("trilap.")]
        for owner in owners + list(extra_owners):
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def install(self) -> None:
        hooks = {
            "spectral.build_propagator": self._hook_build,
            "stepper.run": self._hook_run,
            "criterion.audit": self._hook_audit,
            "probes.run_violation_experiment": self._hook_experiment,
        }
        for (modname, path), name in TARGETS.items():
            owner_path, _, attr = path.rpartition(".")
            owner = sys.modules.get(modname)
            if owner is not None and owner_path:
                owner = getattr(owner, owner_path, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # the layer no longer offers this callable; its metrics read 0
            wrapper = self._wrap(name, original, hooks.get(name))
            if owner_path:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace(original, wrapper)

        core = sys.modules["trilap.core"]
        reaction_types = [c for c in vars(core).values()
                          if isinstance(c, type) and issubclass(c, core.Reaction)]
        for cls in reaction_types:
            if "evaluate" in vars(cls):
                original = vars(cls)["evaluate"]
                self._patches.append((cls, "evaluate", original))
                setattr(cls, "evaluate", self._wrap("core.reaction_evaluate", original,
                                                    self._hook_evaluate))

        fft_modules = [sys.modules[m] for m in ("numpy.fft", "scipy.fft") if m in sys.modules]
        for fmod in fft_modules:
            for fname in FFT_NAMES:
                original = getattr(fmod, fname, None)
                if original is not None:
                    wrapper = self._wrap("spectral.fft", original, self._hook_fft)
                    self._replace(original, wrapper, extra_owners=[fmod])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction -------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer times (inclusive or self) and counts over all recorded spans."""
        total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
        for name, start, end, parent in self.spans:
            dur = end - start
            total[name] += dur
            self_time[name] += dur
            calls[name] += 1
            if parent is not None:
                self_time[self.spans[parent][0]] -= dur
        builds = calls["spectral.build_propagator"]
        return {
            "spectral.fft_s": total["spectral.fft"],
            "spectral.fft_calls": calls["spectral.fft"],
            "spectral.fft_bytes": self.counts["spectral.fft_bytes"],
            "spectral.apply_s": total["spectral.apply"],
            "spectral.apply_calls": calls["spectral.apply"],
            "core.reaction_evaluate_s": total["core.reaction_evaluate"],
            "core.reaction_evaluate_calls": calls["core.reaction_evaluate"],
            "stepper.run_self_s": self_time["stepper.run"],
            "stepper.steps": self.counts["stepper.steps"],
            "spectral.build_propagator_s": total["spectral.build_propagator"],
            "spectral.build_propagator_calls": builds,
            "spectral.build_distinct_keys": len(self.build_keys),
            "spectral.build_reuse_ratio": len(self.build_keys) / builds if builds else 0.0,
            "spectral.matrix_exp_s": total["spectral.matrix_exp_batch"],
            "spectral.propagator_table_bytes": self.counts["spectral.propagator_table_bytes"],
            "probes.experiment_self_s": self_time["probes.run_violation_experiment"],
            "probes.build_probe_s": total["probes.build_probe"],
            "probes.initial_rate_s": total["probes.initial_rate_field"],
            "probes.eps_points": self.counts["probes.eps_points"],
            "probes.eps_dropped": self.counts["probes.eps_dropped"],
            "criterion.audit_s": total["criterion.audit"],
            "criterion.reaction_sign_s": total["criterion.reaction_sign"],
            "criterion.samples": self.counts["criterion.samples"],
            "criterion.violations": self.counts["criterion.violations"],
            "core.load_system_s": total["core.load_system"],
            "cli.self_s": self_time["cli.main"],
            "cli.bytes_written": self.counts["cli.bytes_written"],
        }
