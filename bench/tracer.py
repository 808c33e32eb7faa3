"""Spans and counters around the layer entry points, installed from outside.

A span is (name, start, end, parent id); its id is its index. Spans live in
flat arrays while the run lasts and are written once, when it ends. A
layer's self time is its span time minus the time of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

import layers


def _miquel_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "miquel" or name.startswith("miquel."))
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self._records: list = []
        self._roles_read: set[int] = set()
        self._pass_from = 0
        self._degenerate = None  # DegenerateStepError of the installed program

    # ------------------------------------------------------------ install

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str, on_return=None, on_error=None):
        name_id = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            ends[sid] = clock()
            stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every module attribute that holds ``original``."""
        for mod in _miquel_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        hooks = {
            "chains.iterate_chain": (self._chain_built, self._chain_failed),
            "triads.detect_special_role": (self._role_detected, None),
            "figures.render_figure": (self._svg_rendered, None),
        }
        for name, module, attr in layers.FUNCTIONS:
            if module not in sys.modules:  # a layer this workload never imports
                continue
            original = getattr(sys.modules[module], attr)
            self._replace_everywhere(original, self._span(original, name, *hooks.get(name, ())))
        sampling = sys.modules[layers.SAMPLING_MODULE]
        for attr, fn in list(vars(sampling).items()):
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == sampling.__name__):
                self._replace_everywhere(fn, self._span(fn, "sampling." + attr))
        for name, module, cls_name, method in layers.METHODS:
            cls = getattr(sys.modules[module], cls_name)
            self._set(cls, method, self._span(getattr(cls, method), name))
        for name, module, cls_name in layers.COUNTED_CLASSES:
            cls = getattr(sys.modules[module], cls_name)
            self._set(cls, "__init__", self._counted(cls.__init__, name))
        chains = sys.modules["miquel.chains"]
        roles = chains.ChainRecord.__dict__["roles"]
        read = self._roles_read

        def roles_getter(rec):
            read.add(id(rec))
            return roles.__get__(rec, type(rec))

        self._set(chains.ChainRecord, "roles", property(roles_getter))
        self._degenerate = sys.modules["miquel.errors"].DegenerateStepError

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def wrap_operation(self, fn, name: str):
        """Root span around one benchmark operation (a suite run, a CLI call)."""
        return self._span(fn, name)

    # ------------------------------------------------------------ counters

    def _counted(self, init, name: str):
        counts = self.counts

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            counts[name] += 1
            init(obj, *args, **kwargs)

        return counted

    def _chain_built(self, rec) -> None:
        self._records.append(rec)  # held so that ids stay unique for the pass
        self.counts["chains.records"] += 1
        self.counts["chains.steps"] += len(rec.steps)

    def _chain_failed(self, exc) -> None:
        if isinstance(exc, self._degenerate):
            self.counts["chains.degenerate_steps"] += 1

    def _role_detected(self, role) -> None:
        if role.role != "none":
            self.counts["triads.detect_special_role.matches"] += 1

    def _svg_rendered(self, svg: str) -> None:
        self.counts["figures.svg_bytes"] += len(svg.encode("utf-8"))

    # ------------------------------------------------------------ summary

    def begin_pass(self) -> None:
        self._pass_from = len(self.start)
        self.counts.clear()
        self._records.clear()
        self._roles_read.clear()

    def end_pass(self) -> dict[str, float]:
        """Per-layer numbers for the spans and counts since ``begin_pass``."""
        lo, hi = self._pass_from, len(self.start)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = parents[i]
            if p >= lo:
                child[p - lo] += ends[i] - starts[i]
        detect = self._ids.get(layers.DETECT, -1)
        center_ids = {self._ids[n] for n in layers.CENTERS if n in self._ids}
        sampling_ids = {i for n, i in self._ids.items() if n.startswith("sampling.")}
        under_detect = bytearray(hi - lo)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        centers_in_detect = 0
        for i in range(lo, hi):
            nid, p = names[i], parents[i]
            inside = p >= lo and (names[p] == detect or under_detect[p - lo])
            under_detect[i - lo] = inside
            if inside and nid in center_ids:
                centers_in_detect += 1
            own = ends[i] - starts[i] - child[i - lo]
            if nid in sampling_ids:
                self_s["sampling"] += own
                if not (p >= lo and names[p] in sampling_ids):
                    calls["sampling"] += 1  # entries into the layer from outside it
            else:
                self_s[self.names[nid]] += own
                calls[self.names[nid]] += 1

        out: dict[str, float] = {}
        span_names = [n for n, _, _ in layers.FUNCTIONS] + [n for n, *_ in layers.METHODS]
        for n in span_names + ["sampling"]:
            out[n + ".calls"] = calls[n]
            out[n + ".self_s"] = self_s[n]
        for n, _, _ in layers.COUNTED_CLASSES:
            out[n] = self.counts[n]
        records = self.counts["chains.records"]
        read = len(self._roles_read & {id(r) for r in self._records})
        out["chains.steps"] = self.counts["chains.steps"]
        out["chains.degenerate_steps"] = self.counts["chains.degenerate_steps"]
        out["chains.roles_read_ratio"] = read / records if records else 0.0
        detections = calls[layers.DETECT]
        out[layers.DETECT + ".centers_per_call"] = (
            centers_in_detect / detections if detections else 0.0
        )
        out[layers.DETECT + ".match_ratio"] = (
            self.counts["triads.detect_special_role.matches"] / detections if detections else 0.0
        )
        out["figures.svg_bytes"] = self.counts["figures.svg_bytes"]
        self._records.clear()
        return out

    # ------------------------------------------------------------ output

    def write(self, path) -> None:
        """One JSON header line, then the raw name, parent, start and end arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path) -> tuple[list[str], list[tuple[str, float, float, int]]]:
    """Spans written by ``Tracer.write``, as (name, start, end, parent id)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, n)
            cols.append(arr)
    name, parent, start, end = cols
    names = header["names"]
    return names, [(names[name[i]], start[i], end[i], parent[i]) for i in range(n)]
