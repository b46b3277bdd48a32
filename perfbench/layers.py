"""Which public names of the program the traced run wraps, and the per-layer
metrics read from the spans and counters at those boundaries.

Layers follow the program's modules: reflection, polyalg (with the qfield
arithmetic under it, not timed apart), hermite, kernels, spectral, verify
and cli.  Spans without a metric of their own (the Z2 evaluator methods,
``riesz_matrix``, ``cmd_basis``, ...) are there so that every layer's self
time is attributed to it and not to its caller.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer
from workloads import CHECKS

LAYERS = ("reflection", "polyalg", "hermite", "kernels", "spectral", "verify", "cli")

# (metric name, unit); "better" is "lower" for all of them in BENCHMARK.json
PER_LAYER = [
    ("reflection.root_system.s", "s"),
    ("polyalg.dunkl.calls", "count"),
    ("polyalg.dunkl.s", "s"),
    ("polyalg.divide_linear.calls", "count"),
    ("polyalg.exp_laplacian.s", "s"),
    ("polyalg.conjugated_oscillator.s", "s"),
    ("polyalg.apply_poly_operator.s", "s"),
    ("hermite.build_basis.s", "s"),
    ("hermite.build_basis.functions", "count"),
    ("hermite.save_basis.s", "s"),
    ("hermite.load_basis.s", "s"),
    ("hermite.functions_1d.s", "s"),
    ("kernels.log_E.elems", "count"),
    ("kernels.log_E.s", "s"),
    ("kernels.log_E.ns_per_elem", "ns"),
    ("kernels.dlog_E.elems", "count"),
    ("kernels.dlog_E.s", "s"),
    ("kernels.riesz_many.pairs", "count"),
    ("kernels.riesz_many.s", "s"),
    ("kernels.riesz_many.us_per_pair", "us"),
    ("kernels.riesz.calls", "count"),
    ("kernels.riesz.ms_per_call", "ms"),
    ("kernels.heat.calls", "count"),
    ("kernels.heat.s", "s"),
    ("kernels.mehler.calls", "count"),
    ("kernels.mehler.s", "s"),
    ("spectral.delta_matrix.calls", "count"),
    ("spectral.delta_matrix.s", "s"),
    ("spectral.operator_norm.s", "s"),
    *[(f"verify.{c}.s", "s") for c in CHECKS],
    ("verify.minimize.calls", "count"),
    ("verify.minimize.fevals", "count"),
    ("verify.minimize.s", "s"),
    ("verify.report_json.s", "s"),
    ("cli.verify.s", "s"),
    ("cli.eval.s", "s"),
    ("cli.eval.rows", "count"),
    *[(f"share.{layer}", "%") for layer in LAYERS],
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
]


def _adder(key: str, amount):
    def count(counts, args, kwargs, result):
        counts[key] = counts.get(key, 0) + amount(args, kwargs, result)
    return count


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def install(tr: Tracer):
    f, m = tr.wrap_function, tr.wrap_method
    K, S, V = "dunklriesz.kernels", "dunklriesz.spectral", "dunklriesz.verify"

    f("dunklriesz.reflection", "root_system", "reflection.root_system", "reflection")

    for meth in ("dunkl", "exp_laplacian", "conjugated_oscillator", "apply_poly_operator", "laplacian"):
        m("dunklriesz.polyalg", "DunklAlgebra", meth, f"polyalg.{meth}", "polyalg")
    f("dunklriesz.polyalg", "divide_linear", "polyalg.divide_linear", "polyalg")

    f("dunklriesz.hermite", "build_basis", "hermite.build_basis", "hermite",
      _adder("hermite.build_basis.functions", lambda a, k, r: r.size))
    f("dunklriesz.hermite", "save_basis", "hermite.save_basis", "hermite")
    f("dunklriesz.hermite", "load_basis", "hermite.load_basis", "hermite")
    f("dunklriesz.hermite", "hermite_functions_1d", "hermite.functions_1d", "hermite")
    f("dunklriesz.hermite", "c_kappa", "hermite.c_kappa", "hermite")
    m("dunklriesz.hermite", "HermiteBasis", "hermite_function_matrix", "hermite.function_matrix", "hermite")

    f(K, "log_dunkl_kernel_1d", "kernels.log_E", "kernels",
      _adder("kernels.log_E.elems", lambda a, k, r: np.size(_arg(a, k, 1, "w"))))
    f(K, "dlog_dunkl_kernel_1d", "kernels.dlog_E", "kernels",
      _adder("kernels.dlog_E.elems", lambda a, k, r: np.size(_arg(a, k, 1, "w"))))
    f(K, "riesz_kernel_many", "kernels.riesz_many", "kernels",
      _adder("kernels.riesz_many.pairs", lambda a, k, r: np.size(r)))
    f(K, "riesz_kernel", "kernels.riesz", "kernels")
    f(K, "heat_kernel", "kernels.heat", "kernels")
    f(K, "dunkl_kernel_mehler", "kernels.mehler", "kernels")
    for name in ("dunkl_kernel", "dunkl_kernel_z2d", "dunkl_kernel_1d", "gaussian_translate",
                 "heat_kernel_series", "heat_kernel_classical"):
        f(K, name, f"kernels.{name}", "kernels")
    for meth in ("log_E", "log_heat", "heat", "dlog_heat_dy", "heat_dy",
                 "log_gaussian_translate", "riesz_bracket", "riesz_integrand"):
        m(K, "Z2Evaluator", meth, f"kernels.z2.{meth}", "kernels")

    f(S, "delta_matrix", "spectral.delta_matrix", "spectral")
    f(S, "riesz_matrix", "spectral.riesz_matrix", "spectral")
    f(S, "operator_norm", "spectral.operator_norm", "spectral")

    for check in CHECKS:
        f(V, f"check_{check}", f"verify.{check}", "verify")
    f("scipy.optimize", "minimize", "verify.minimize", "verify",
      _adder("verify.minimize.fevals", lambda a, k, r: int(getattr(r, "nfev", 0))))
    m(V, "VerificationReport", "to_json", "verify.report_json", "verify")

    f("dunklriesz.cli", "cmd_verify", "cli.verify", "cli")
    f("dunklriesz.cli", "cmd_eval", "cli.eval", "cli")
    f("dunklriesz.cli", "cmd_basis", "cli.basis", "cli")


def metrics(tr: Tracer, round_mark: int, traced_wall: float, untraced_wall: float, rows: int) -> dict:
    """Per-layer metrics over the traced set-up and the traced round.

    ``<span>.s`` and ``<span>.calls`` read the spans of that name, other
    counts read the tracer's counters.  Layer shares are self time over the
    traced round's wall time; the overhead compares that wall time with the
    untraced rounds' median.
    """
    spans = tr.span_totals()

    def per(num, den, scale):
        return scale * num / den if den else 0.0

    out = {}
    for name, unit in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "s":
            out[name] = spans.get(span, {}).get("s", 0.0)
        elif kind == "calls":
            out[name] = spans.get(span, {}).get("calls", 0)
        elif unit == "count":
            out[name] = tr.counts.get(name, 0)
    out["kernels.log_E.ns_per_elem"] = per(out["kernels.log_E.s"], out["kernels.log_E.elems"], 1e9)
    out["kernels.riesz_many.us_per_pair"] = per(
        out["kernels.riesz_many.s"], out["kernels.riesz_many.pairs"], 1e6)
    out["kernels.riesz.ms_per_call"] = per(
        spans.get("kernels.riesz", {}).get("s", 0.0), out["kernels.riesz.calls"], 1e3)
    out["cli.eval.rows"] = rows
    selfs = tr.layer_self_seconds(round_mark)
    for layer in LAYERS:
        out[f"share.{layer}"] = per(selfs.get(layer, 0.0), traced_wall, 100.0)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_pct"] = per(traced_wall - untraced_wall, untraced_wall, 100.0)
    out["trace.spans"] = tr.mark()
    return out
