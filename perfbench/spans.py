"""Spans around the package's public functions, recorded from outside it.

:class:`Tracer` replaces each traced function by a wrapper wherever the
package binds it: ``cnomial.oeis`` imports ``central_via_trace`` and
friends by name, so patching only the defining module would miss those
calls.  Spans are kept in memory and written out when the run ends; no
source file of the package changes.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: Functions called once per request or once per multiply, by layer.
#: ``Params`` and the per-element ``dirichlet_kernel`` are deliberately
#: absent: spans around them would cost more than the work they time.
TRACED = {
    "cli": ("main",),
    "exact": ("expand_power", "central_coefficient"),
    "circulant": ("central_via_trace", "coefficient_via_shift", "matrix_power", "multiply"),
    "spectral": ("central_via_spectrum", "coefficient_via_spectrum", "eigenvalues"),
    "oeis": ("compare", "fixture_for_id"),
}

#: Spectral entry points whose return value is a ``CertifiedInteger``.
CERTIFIED = ("spectral.central_via_spectrum", "spectral.coefficient_via_spectrum")

RUNGS = ("double", "compensated", "arbitrary")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int
    rung: str | None = None
    escalations: int = 0
    bits: int | None = None
    children_ns: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.ns - self.children_ns


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    request: int = 0  # id of the request in flight, counted from 1
    _stack: list[int] = field(default_factory=list)
    _bindings: list[tuple[object, str, object, object]] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter_ns(), 0, parent, self.request)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].children_ns += span.ns
            if name in CERTIFIED:
                policy = result.policy_used
                span.rung, span.escalations = policy.strategy, result.escalations
                span.bits = policy.mantissa_bits if policy.strategy == "arbitrary" else None
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function under every name the package binds it to.

        The bindings are looked up on the first call; later calls only set
        them again, so installing around each request stays cheap.
        """
        if not self._bindings:
            self._bindings = self._find_bindings()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._bindings):
            setattr(module, attr, original)

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cnomial" or name.startswith("cnomial."))]
        bindings = []
        for layer, names in TRACED.items():
            home = sys.modules[f"cnomial.{layer}"]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:  # removed from the package: nothing to time
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            bindings.append((module, attr, original, wrapper))
        return bindings

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans opened."""
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                record = {"id": index, "name": span.name, "start_ns": span.start_ns,
                          "end_ns": span.end_ns, "parent": span.parent,
                          "request": span.request}
                if span.rung is not None:
                    record.update(rung=span.rung, escalations=span.escalations, bits=span.bits)
                out.write(json.dumps(record) + "\n")

    def metrics(self, requests: int, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per request where the unit says so."""
        calls: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span.name] += 1
            total_ns[span.name] += span.ns
            self_ns[span.layer] += span.self_ns
        spans = self.spans
        shifts = calls["circulant.coefficient_via_shift"]
        shift_misses = sum(
            1 for s in spans
            if s.name == "circulant.matrix_power" and s.parent is not None
            and spans[s.parent].name == "circulant.coefficient_via_shift"
        )
        certified = [s for s in spans if s.rung is not None]
        escalations = sum(s.escalations for s in certified)
        bits = [s.bits for s in certified if s.rung == "arbitrary"]

        def per_request(count: float) -> float:
            return count / requests

        def ms(name: str) -> float:
            return per_request(total_ns[name] / 1e6)

        metrics = {
            "trace.requests": (requests, "count"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
            "exact.expand_power.calls": (per_request(calls["exact.expand_power"]), "1/req"),
            "exact.expand_power.ms": (ms("exact.expand_power"), "ms/req"),
            "circulant.multiply.calls": (per_request(calls["circulant.multiply"]), "1/req"),
            "circulant.multiply.ms": (ms("circulant.multiply"), "ms/req"),
            "circulant.matrix_power.calls": (per_request(calls["circulant.matrix_power"]), "1/req"),
            "circulant.coefficient_via_shift.calls": (per_request(shifts), "1/req"),
            "circulant.shift_cache.hit_ratio": (1 - shift_misses / shifts if shifts else 0.0, "ratio"),
            "spectral.central_via_spectrum.ms": (ms("spectral.central_via_spectrum"), "ms/req"),
            "spectral.coefficient_via_spectrum.ms": (ms("spectral.coefficient_via_spectrum"), "ms/req"),
            "spectral.escalations": (per_request(escalations), "1/req"),
            "spectral.useful_ratio": (
                len(certified) / (len(certified) + escalations) if certified else 0.0, "ratio"),
            "spectral.arbitrary_bits_mean": (sum(bits) / len(bits) if bits else 0.0, "bits"),
            "spectral.eigenvalues.calls": (per_request(calls["spectral.eigenvalues"]), "1/req"),
            "spectral.eigenvalues.ms": (ms("spectral.eigenvalues"), "ms/req"),
            "oeis.compare.ms": (ms("oeis.compare"), "ms/req"),
        }
        for rung in RUNGS:
            count = sum(1 for s in certified if s.rung == rung)
            metrics[f"spectral.certified.{rung}"] = (per_request(count), "1/req")
        for layer in TRACED:
            metrics[f"{layer}.self_ms"] = (per_request(self_ns[layer] / 1e6), "ms/req")
        return metrics
