"""Spans and counts at the layer boundaries of corneralg, recorded from outside.

`Tracer.install` rebinds each traced function, in every corneralg module
that holds it, to a wrapper that records a span (layer, start, end, parent,
round, error) and the layer's counts. Nothing under src/ changes. Spans are
kept in memory, in flat arrays, and written out when the run ends.

A layer's self time is its spans' durations minus the durations of the
traced spans directly nested in them.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict


def _kernel(tr, args, result):
    basis, es = args[0], args[1]
    b, n = es.shape[0], es.shape[1]
    d = basis.shape[0]
    tr.add("checker.kernel.corners", b)
    # the (B, d^2, n^2) complex128 product stack, worked out from the sizes
    tr.add("checker.kernel.computed_mb", b * d * d * n * n * 16 / 1e6)


def _sampler(tr, args, result):
    tr.add("checker.sampler.idempotents", args[4])


def _catalog(tr, args, result):
    tr.add("checker.catalog.corners", result)


def _check(tr, args, result):
    tr.add("checker.check.trials", result.trials_run)
    tr.add("checker.check.report_corners", result.catalog_corners + result.trials_run)


def _find_witness(tr, args, result):
    tr.add("classifier.find_witness.not_found", result is None)


def _certify(tr, args, result):
    # classify() certifies each family route it builds; a failed replay turns
    # the route into an "-uncertified" refutation path
    if result is False and tr.parent_layer() == "classifier.classify":
        tr.add("classifier.uncertified_routes", 1)


def _decode(tr, args, result):
    tr.add("io.bytes_read", len(args[0].encode("utf-8")))


# (layer, module, attribute, counter on return); "module:Class" names a method
LAYERS = (
    ("checker.kernel", "corneralg.checker", "_corner_residual_batch", _kernel),
    ("checker.sampler", "corneralg.checker", "_sample_batch", _sampler),
    ("checker.catalog", "corneralg.checker", "_catalog_pass", _catalog),
    ("checker.check", "corneralg.checker", "check_compressible", _check),
    ("checker.corner_residual", "corneralg.checker", "corner_residual", None),
    ("checker.fold_corner", "corneralg.checker", "fold_corner", None),
    ("structure.triangularize", "corneralg.structure", "triangularize", None),
    ("structure.unhinge", "corneralg.structure", "unhinge", None),
    ("structure.radical", "corneralg.structure", "radical", None),
    ("structure.wedderburn", "corneralg.structure", "wedderburn", None),
    ("classifier.classify", "corneralg.classifier", "classify", None),
    ("classifier.route", "corneralg.classifier", "_route", None),
    ("classifier.certify", "corneralg.classifier", "certify", _certify),
    ("classifier.find_witness", "corneralg.classifier", "_find_witness", _find_witness),
    ("subalgebra.algebra_from_span", "corneralg.subalgebra", "algebra_from_span", None),
    ("subalgebra.conjugate", "corneralg.subalgebra", "conjugate", None),
    ("subalgebra.equals", "corneralg.subalgebra:MatrixSubspace", "equals", None),
    ("matcore.orthonormal_span", "corneralg.matcore", "orthonormal_span", None),
    ("io.decode_algebra", "corneralg.io", "decode_algebra", _decode),
    ("io.read_algebra", "corneralg.io", "read_algebra", None),
    ("cli.main", "corneralg.cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.layers = [layer for layer, *_ in LAYERS]
        # one entry per span, in start order
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.round = array("i")
        self.error = array("b")
        self.stack: list = []
        self.active = False
        self.current_round = -1
        self.counts = defaultdict(float)
        self._round_first_span = 0
        self._restore: list = []

    # ---------------------------------------------------------- recording

    def add(self, name: str, value) -> None:
        self.counts[name] += value

    def parent_layer(self) -> str | None:
        """Layer of the span enclosing the one that is returning."""
        if len(self.stack) < 2:
            return None
        return self.layers[self.layer[self.stack[-2]]]

    def _wrap(self, idx: int, fn, on_return):
        tr = self
        layer = self.layers[idx]
        numerical = sys.modules["corneralg.matcore"].NumericalFailureError
        structure_layer = layer.startswith("structure.")

        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            sid = len(tr.layer)
            tr.layer.append(idx)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.round.append(tr.current_round)
            tr.error.append(0)
            tr.end.append(0.0)
            tr.stack.append(sid)
            tr.counts[layer + ".calls"] += 1
            tr.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr.end[sid] = time.perf_counter()
                tr.error[sid] = 1
                if (structure_layer and isinstance(exc, numerical)
                        and not (tr.parent_layer() or "").startswith("structure.")):
                    tr.counts["structure.failures"] += 1
                tr.stack.pop()
                raise
            tr.end[sid] = time.perf_counter()
            if on_return is not None:
                on_return(tr, args, result)
            tr.stack.pop()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a corneralg module holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "corneralg" or name.startswith("corneralg.")]
        for idx, (_, owner_name, attr, on_return) in enumerate(LAYERS):
            mod_name, _, cls_name = owner_name.partition(":")
            owner = sys.modules[mod_name]
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapped = self._wrap(idx, original, on_return)
            holders = [owner] if cls_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # ---------------------------------------------------------- per round

    def begin_round(self, rnd: int) -> None:
        self.current_round = rnd
        self.counts = defaultdict(float)
        self._round_first_span = len(self.layer)

    def end_round(self) -> dict:
        """This round's self time per layer and its counts."""
        out = {f"{layer}.self_s": 0.0 for layer in self.layers}
        for sid in range(self._round_first_span, len(self.layer)):
            dur = self.end[sid] - self.start[sid]
            out[f"{self.layers[self.layer[sid]]}.self_s"] += dur
            p = self.parent[sid]
            if p >= 0:
                out[f"{self.layers[self.layer[p]]}.self_s"] -= dur
        out.update(self.counts)
        return out

    # ---------------------------------------------------------- output

    def write_spans(self, path: str) -> int:
        """Write every span as CSV (gzip); returns the number written."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,layer,start_s,end_s,parent,round,error\n")
            for sid in range(len(self.layer)):
                fh.write(f"{sid},{self.layers[self.layer[sid]]},{self.start[sid]:.9f},"
                         f"{self.end[sid]:.9f},{self.parent[sid]},{self.round[sid]},"
                         f"{self.error[sid]}\n")
        return len(self.layer)
