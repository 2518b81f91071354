"""Spans around calls into the program's public functions, recorded from outside it.

``Tracer.install`` replaces each named function wherever a
``coherence_speed`` module binds it (module attributes, and the class
attribute for methods), so calls between modules are seen, in whichever
thread runs them.  ``uninstall`` puts the originals back.  Spans are
kept in memory and summarised, or written out, after the run.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

# metric name -> (module, attribute path)
TRACED = {
    "linalg.from_matrix": ("linalg", "SpectralHamiltonian.from_matrix"),
    "linalg.decomposition": ("linalg", "OrthogonalDecomposition.__post_init__"),
    "linalg.unitary_exp": ("linalg", "unitary_exp"),
    "linalg.validate_density": ("linalg", "validate_density"),
    "linalg.matrix_sqrt_psd": ("linalg", "matrix_sqrt_psd"),
    "metrics.hellinger": ("metrics", "hellinger"),
    "metrics.qsl_bounds": ("metrics", "qsl_bounds"),
    "coherence.c_half": ("coherence", "c_half"),
    "coherence.closest_incoherent": ("coherence", "closest_incoherent"),
    "avgdist.avg_distance_bruteforce": ("avgdist", "avg_distance_bruteforce"),
    "channels.theorem3_bound": ("channels", "theorem3_bound"),
    "channels.dilate": ("channels", "dilate"),
    "dynamics.evolve": ("dynamics", "evolve"),
    "battery.simulate_battery": ("battery", "simulate_battery"),
    "battery.avg_extracted_work": ("battery", "avg_extracted_work"),
    "battery.qudit_battery_bound": ("battery", "qudit_battery_bound"),
    "report.render_report": ("report", "render_report"),
    "schemas.validate_document": ("schemas", "validate_document"),
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# counts computed from a traced call's inputs: metric -> (traced name, count function)
COUNTS = {
    "avgdist.orbit_terms": ("avgdist.avg_distance_bruteforce",
                            lambda a, k: math.factorial(_arg(a, k, 1, "ham").level_count)),
    "dynamics.steps": ("dynamics.evolve", lambda a, k: len(_arg(a, k, 1, "path").times) - 1),
}


class Tracer:
    """Span recorder.  ``op`` is the id of the workload operation now running."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []     # (id, name, start, end, parent id, op id)
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        counters = [(metric, count) for metric, (traced, count) in COUNTS.items()
                    if traced == name]
        local, spans, ids = self._local, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op))
            for metric, count in counters:
                n = count(args, kwargs)
                with self._count_lock:
                    self.counts[metric] += n
            return result
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "coherence_speed" or key.startswith("coherence_speed.")]
        for name, (module, path) in TRACED.items():
            owner = sys.modules.get(f"coherence_speed.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                self.missing.append(name)
                continue
            if outer:       # method: patch the class attribute
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(owner, attr, self._wrap(name, raw))
                continue
            wrapped = self._wrap(name, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per traced name: (calls, self seconds); self time excludes child spans."""
        child = defaultdict(float)
        for _sid, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: [0, 0.0] for name in TRACED}
        for sid, name, start, end, _parent, _op in self.spans:
            out[name][0] += 1
            out[name][1] += (end - start) - child[sid]
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def write(self, path) -> None:
        """One tab-separated line per span: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{'' if parent is None else parent}\t{'' if op is None else op}\n")
