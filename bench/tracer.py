"""In-memory span tracer for the traced benchmark run.

`Tracer.install` wraps every public function (and every public method of a
public class) defined in the umbra modules listed in `LAYERS`, in every
`umbra` module namespace that binds it: `fourier` from-imports
`gaussian_fourier_integral`, so the name is rebound there as well as in
`quadrature` and in the `opcalc` package.  `uninstall` puts the originals
back.  Nothing under `src/` is edited.

A span is (id, parent id, function, op index, start, duration, self time,
top-of-layer flag, extra).  Self time is the duration minus the time covered
by child spans; a layer's busy time is the summed duration of its spans that
have no ancestor in the same layer.  Spans stay in memory until
`write_spans` is called at the end of the run.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from math import lcm

LAYERS = {
    "umbra.seqcore": "seqcore",
    "umbra.specfun": "specfun",
    "umbra.gftrans": "gftrans",
    "umbra.opcalc.quadrature": "opcalc.quadrature",
    "umbra.opcalc.fourier": "opcalc.fourier",
    "umbra.opcalc.oracles": "opcalc.oracles",
    "umbra.opcalc.operators": "opcalc.operators",
    "umbra.opcalc.formal": "opcalc.formal",
    "umbra.opcalc.series_ops": "opcalc.series_ops",
    "umbra.appell": "appell",
    "umbra.checks": "checks",
    "umbra.cli": "cli",
}

#: exchange-format parsing and printing count as the CLI's own work
NOT_TRACED = {("seqcore", "sequence_from_json"), ("seqcore", "sequence_to_json"),
              ("seqcore", "render_rational")}

#: public transform function -> transform name used on the command line
TRANSFORM_FUNCS = {
    "binomial_transform": "binomial",
    "modular_transform": "modular",
    "modular_inverse": "modular-inverse",
    "rising_k_binomial": "k-binomial",
    "hermite_transform_seq": "hermite",
    "hermite_complementary_seq": "hermite-complementary",
    "hermite_inverse_seq": "hermite-inverse",
    "laguerre_transform_seq": "laguerre",
}

SUITES = ("involution", "modular", "kbinomial", "gftrans", "hermite", "hermite-integral",
          "tricomi", "heat", "disentangle", "pauli", "weyl-borel", "integro-diff", "appell",
          "umbral")

#: sequences of at most this many terms count as short
SHORT_MAX = 64

INTEGRAND = "<integrand>"


def den_class(terms) -> str:
    """int: all integers; shared: every denominator divides the largest one;
    random: anything else."""
    dens = [t.denominator for t in terms]
    top = max(dens)
    if top == 1:
        return "int"
    return "shared" if lcm(*dens) == top else "random"


def _is_function(obj) -> bool:
    # lru_cache wrappers are not functions themselves but wrap one
    return inspect.isfunction(getattr(obj, "__wrapped__", obj))


def _umbra_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "umbra" or name.startswith("umbra."))]


class Tracer:
    def __init__(self, suite_of: dict | None = None):
        self.suite_of = suite_of or {}
        self.funcs: list[tuple[str, str]] = []     # fid -> (layer, qualified name)
        self.spans: list[tuple] = []
        self.quad: list[tuple[int, bool]] = []     # adaptive_hermite: (node_count, converged)
        self.stack: list[list] = []                # open spans: [id, child time]
        self.depth: dict[str, int] = defaultdict(int)
        self.next_id = 0
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _fid(self, layer: str, name: str) -> int:
        self.funcs.append((layer, name))
        return len(self.funcs) - 1

    def _span(self, fn, fid: int, layer: str, extra_of=None):
        spans, stack, depth, clock = self.spans, self.stack, self.depth, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            extra = extra_of(args) if extra_of else None
            top = not depth[layer]
            depth[layer] += 1
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, fid, tracer.op, start, dur, dur - frame[1], top, extra))

        return wrapper

    def _wrap_function(self, fn, layer: str, name: str):
        fid = self._fid(layer, name)
        if layer == "opcalc.quadrature" and name == "adaptive_hermite":
            integrand_fid = self._fid(layer, INTEGRAND)
            quad = self.quad

            def counted(g, *args, **kwargs):
                traced_g = self._span(g, integrand_fid, layer, extra_of=lambda a: len(a[0]))
                result = fn(traced_g, *args, **kwargs)
                quad.append((result.node_count, result.converged))
                return result

            wrapper = self._span(counted, fid, layer)
        elif layer == "seqcore" and name in TRANSFORM_FUNCS:
            wrapper = self._span(fn, fid, layer, extra_of=lambda a: a[0].terms)
        elif layer == "checks" and name == "run_check":
            suite_of = self.suite_of
            wrapper = self._span(fn, fid, layer,
                                 extra_of=lambda a: suite_of.get((a[0].name, a[0].equation)))
        else:
            wrapper = self._span(fn, fid, layer)
        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        replacement = {}  # id(original) -> (original, wrapper)
        for modname, layer in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or (layer, attr) in NOT_TRACED:
                    continue
                if inspect.isclass(obj) and obj.__module__ == modname:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap_function(fn, layer, f"{attr}.{meth}"))
                elif _is_function(obj) and getattr(obj, "__module__", None) == modname:
                    replacement[id(obj)] = (obj, self._wrap_function(obj, layer, attr))
        for ns in _umbra_namespaces():
            for attr, obj in list(vars(ns).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, attr, hit[1])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and times of everything recorded so far."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        self_by = defaultdict(float)
        dur_by = defaultdict(float)
        count_by = defaultdict(int)
        layer_self = defaultdict(float)
        tx = defaultdict(float)
        tx_calls = tx_terms = 0
        suites = defaultdict(float)
        nodes_evaluated = 0
        for _sid, _parent, fid, _op, _start, dur, self_s, top, extra in self.spans:
            layer, name = self.funcs[fid]
            if top:
                busy[layer] += dur
            calls[layer] += 1
            self_by[layer, name] += self_s
            dur_by[layer, name] += dur
            count_by[layer, name] += 1
            layer_self[layer] += self_s
            if name == INTEGRAND:
                nodes_evaluated += extra
            elif layer == "seqcore" and name in TRANSFORM_FUNCS:
                tx_calls += 1
                tx_terms += len(extra)
                tx[TRANSFORM_FUNCS[name]] += dur
                tx["den-" + den_class(extra)] += dur
                tx["len-short" if len(extra) <= SHORT_MAX else "len-long"] += dur
            elif name == "run_check" and extra:
                suites[extra] += dur

        quad_calls = len(self.quad)
        accepted = sum(n for n, _ in self.quad)
        converged = sum(1 for _, c in self.quad if c)
        out = {
            "seqcore.calls": tx_calls,
            "seqcore.terms": tx_terms,
            "seqcore.busy_s": busy["seqcore"],
        }
        for label in list(TRANSFORM_FUNCS.values()) + ["den-int", "den-shared", "den-random",
                                                       "len-short", "len-long"]:
            out[f"seqcore.{label}.busy_s"] = tx[label]
        out["cli.self_s"] = layer_self["cli"]
        q = "opcalc.quadrature"
        out.update({
            f"{q}.calls": quad_calls,
            f"{q}.nodes_evaluated": nodes_evaluated,
            f"{q}.accepted_nodes": accepted,
            f"{q}.useful_node_ratio": accepted / nodes_evaluated if nodes_evaluated else 0.0,
            f"{q}.converged_ratio": converged / quad_calls if quad_calls else 0.0,
            f"{q}.integrand_s": dur_by[q, INTEGRAND],
            f"{q}.busy_s": busy[q],
        })
        for name in ("integro_diff_evolve", "tricomi_evolution"):
            out[f"opcalc.fourier.{name}.self_s"] = self_by["opcalc.fourier", name]
        for layer, name in (("opcalc.oracles", "integro_matrix_oracle"),
                            ("opcalc.oracles", "apply_entire_function"),
                            ("appell", "expansion_coefficients"),
                            ("appell", "operational_coefficients")):
            out[f"{layer}.{name}.busy_s"] = dur_by[layer, name]
        out["opcalc.operators.apply_calls"] = count_by["opcalc.operators", "TruncatedOperator.apply"]
        out["opcalc.operators.busy_s"] = busy["opcalc.operators"]
        for layer in ("opcalc.formal", "opcalc.series_ops", "specfun", "gftrans"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = busy[layer]
        for suite in SUITES:
            out[f"checks.{suite}.busy_s"] = suites[suite]
        return out

    def write_spans(self, path: str, origin: float) -> None:
        """Write every span as one JSON line, times relative to `origin`."""
        with gzip.open(path, "wt") as fh:
            for sid, parent, fid, op, start, dur, self_s, _top, extra in self.spans:
                layer, name = self.funcs[fid]
                row = {"id": sid, "parent": parent, "layer": layer, "fn": name, "op": op,
                       "start": round(start - origin, 9), "dur": round(dur, 9),
                       "self": round(self_s, 9)}
                if isinstance(extra, tuple):
                    row["terms"] = len(extra)
                    row["den"] = den_class(extra)
                elif extra is not None:
                    row["extra"] = extra
                fh.write(json.dumps(row) + "\n")
