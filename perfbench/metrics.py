"""Metric catalogue of the benchmark, and the per-layer values of a traced run.

END_TO_END lists what a user of the library sees, reported per workload by
an untraced run.  PER_LAYER lists what the traced run reports, with the
end-to-end metric each one should move and the workload it shows on; later
performance changes cite these names.  BENCHMARK.json at the repository root
must agree with both tables (run.py checks it before measuring).

Per-layer counts and times are means per traced case.  ``<layer>.<fn>.calls``
counts calls of a wrapped function, ``.points`` the array elements passed
in, ``.self_s`` the span time minus the time of its child spans.
"""

from __future__ import annotations

# name, unit, better, bound
END_TO_END = (
    ("case_p50_s", "s", "lower", 0.25),
    ("case_tail_s", "s", "lower", 0.25),
    ("cases_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

LAYERS = ("specfun", "profile", "kernel", "rings", "degenerate", "extended", "pde", "cli")

CLI_SUBCOMMANDS = ("profile", "kernel", "rings", "degenerate", "extended", "pde", "compare")

# name, unit, better, end-to-end metrics it should move, workloads it shows on
PER_LAYER = (
    ("specfun.kummer_m.calls", "count", "lower", "case_p50_s cases_per_s", "model_chain; 0 on relay_march"),
    ("specfun.kummer_m.points", "count", "lower", "case_p50_s cases_per_s", "model_chain; 0 on relay_march"),
    ("specfun.kummer_m.self_s", "s", "lower", "case_p50_s cases_per_s", "model_chain; 0 on relay_march"),
    ("specfun.erfc.calls", "count", "lower", "case_p50_s cases_per_s", "model_chain"),
    ("specfun.erfc.self_s", "s", "lower", "case_p50_s cases_per_s", "model_chain"),
    ("profile.solve_kappa.calls", "count", "lower", "case_p50_s", "model_chain pde_scheme"),
    ("profile.solve_kappa.self_s", "s", "lower", "case_p50_s", "model_chain pde_scheme"),
    ("profile.phi_eval.self_s", "s", "lower", "case_p50_s setup_s", "pde_scheme (via pde.init)"),
    ("profile.psi_eval.self_s", "s", "lower", "case_p50_s setup_s", "pde_scheme (via pde.init)"),
    ("kernel.build_kernel_table.self_s", "s", "lower", "case_p50_s", "model_chain"),
    ("kernel.gamma_const.self_s", "s", "lower", "case_p50_s", "model_chain"),
    ("kernel.g_eval.calls", "count", "lower", "case_p50_s", "model_chain"),
    ("kernel.g_eval.self_s", "s", "lower", "case_p50_s", "model_chain"),
    ("kernel.k_eval.calls", "count", "lower", "case_p50_s", "model_chain"),
    ("kernel.k_eval.self_s", "s", "lower", "case_p50_s", "model_chain"),
    ("kernel.kernel_from_samples.self_s", "s", "lower", "case_p50_s", "cli_roundtrip"),
    ("kernel.eval.calls", "count", "lower", "case_p50_s", "relay_march"),
    ("kernel.eval.points", "count", "lower", "case_p50_s", "relay_march"),
    ("kernel.eval.self_s", "s", "lower", "case_p50_s", "relay_march"),
    ("kernel.cum.calls", "count", "lower", "case_p50_s", "relay_march model_chain"),
    ("kernel.cum.points", "count", "lower", "case_p50_s", "relay_march model_chain"),
    ("kernel.cum.self_s", "s", "lower", "case_p50_s", "relay_march model_chain"),
    ("rings.solve_pattern.self_s", "s", "lower", "case_p50_s", "relay_march model_chain"),
    ("rings.next_zero.calls", "count", "lower", "case_p50_s", "relay_march model_chain"),
    ("rings.next_zero.self_s", "s", "lower", "case_p50_s", "relay_march model_chain"),
    ("rings.classify_continuation.calls", "count", "lower", "case_p50_s", "relay_march model_chain"),
    ("rings.classify_continuation.self_s", "s", "lower", "case_p50_s", "relay_march model_chain"),
    ("rings.omega_eval.calls", "count", "lower", "case_p50_s", "relay_march model_chain"),
    ("rings.omega_eval.points", "count", "lower", "case_p50_s", "relay_march model_chain"),
    ("rings.omega_eval.self_s", "s", "lower", "case_p50_s", "relay_march model_chain"),
    ("rings.zeros_per_omega_eval", "ratio", "higher", "case_p50_s", "relay_march model_chain"),
    ("degenerate.construct_degenerate.self_s", "s", "lower", "case_p50_s", "cli_roundtrip"),
    ("degenerate.choose_epsilon.self_s", "s", "lower", "case_p50_s", "cli_roundtrip"),
    ("degenerate.build_gap_bridge.calls", "count", "lower", "case_p50_s", "cli_roundtrip"),
    ("degenerate.bridge_accept_ratio", "ratio", "higher", "case_p50_s", "cli_roundtrip"),
    ("degenerate.verify_degeneracy.self_s", "s", "lower", "case_p50_s", "cli_roundtrip"),
    ("extended.extended_solve.self_s", "s", "lower", "case_p50_s cases_per_s", "relay_march"),
    ("extended.mollified_solve.calls", "count", "lower", "case_p50_s cases_per_s", "relay_march"),
    ("extended.mollified_solve.self_s", "s", "lower", "case_p50_s cases_per_s", "relay_march"),
    ("extended.mollifier.calls", "count", "lower", "case_p50_s cases_per_s", "relay_march"),
    ("extended.mollifier.points", "count", "lower", "case_p50_s cases_per_s", "relay_march"),
    ("extended.mollifier_calls_per_node", "ratio", "lower", "case_p50_s cases_per_s", "relay_march"),
    ("extended.regular_extension_solve.self_s", "s", "lower", "case_p50_s cases_per_s", "relay_march"),
    ("pde.run.self_s", "s", "lower", "case_p50_s", "pde_scheme cli_roundtrip"),
    ("pde.init.self_s", "s", "lower", "case_p50_s", "pde_scheme cli_roundtrip"),
    ("pde.step.calls", "count", "lower", "case_p50_s", "pde_scheme cli_roundtrip"),
    ("pde.step.self_s", "s", "lower", "case_p50_s", "pde_scheme cli_roundtrip"),
    ("pde.assemble_system.self_s", "s", "lower", "case_p50_s", "pde_scheme cli_roundtrip"),
    ("pde.transport_p.self_s", "s", "lower", "case_p50_s", "pde_scheme cli_roundtrip"),
    ("pde.parabola_compare.self_s", "s", "lower", "case_p50_s", "cli_roundtrip (compare)"),
    *(
        (f"cli.{sub}.wall_s", "s", "lower", "case_p50_s setup_s", "cli_roundtrip")
        for sub in CLI_SUBCOMMANDS
    ),
    ("cli.import_s", "s", "lower", "case_p50_s setup_s", "cli_roundtrip"),
    ("cli.emit_csv.self_s", "s", "lower", "case_p50_s", "cli_roundtrip"),
    ("cli.emit_csv.bytes", "bytes", "lower", "case_p50_s", "cli_roundtrip"),
    ("cli.load_kernel_file.self_s", "s", "lower", "case_p50_s", "cli_roundtrip"),
    ("cli.roundtrip_extra_zeros", "count", "lower", "correctness (kernel exchange)", "cli_roundtrip"),
    ("cli.roundtrip_break_rel_err", "ratio", "lower", "correctness (kernel exchange)", "cli_roundtrip"),
    *(
        (f"layer.{layer}.self_s", "s", "lower", "case_p50_s", "every workload running the layer")
        for layer in LAYERS
    ),
    ("trace.case_s", "s", "lower", "case_p50_s", "every workload"),
    ("trace.coverage_frac", "ratio", "higher", "none (accounting check)", "every workload"),
    ("trace.overhead_frac", "ratio", "lower", "none (tracing cost)", "every workload"),
)

FIELDS = ("calls", "points", "self_s")


def _total(stats, span, field):
    return stats.get(span, (0, 0, 0.0))[FIELDS.index(field)]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_values(stats, n_cases, extra):
    """Every PER_LAYER metric from span stats {span: (calls, points, self_s)}.

    extra carries the values the spans cannot give (cli walls and import
    time, the round-trip counts, traced case time and tracing overhead) and
    ``covered_extra_s``, time per case accounted for outside the spans (the
    import of a traced cli child).
    """
    n = max(n_cases, 1)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, (_, _, self_s) in stats.items():
        layer = span.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_s
    computed = {
        "rings.zeros_per_omega_eval": _ratio(
            _total(stats, "rings.next_zero", "points"), _total(stats, "rings.omega_eval", "calls")
        ),
        "degenerate.bridge_accept_ratio": _ratio(
            _total(stats, "degenerate.choose_epsilon", "calls"),
            _total(stats, "degenerate.build_gap_bridge", "calls"),
        ),
        "extended.mollifier_calls_per_node": _ratio(
            _total(stats, "extended.mollifier", "calls"),
            _total(stats, "extended.mollified_solve", "points"),
        ),
        **{f"layer.{layer}.self_s": value / n for layer, value in layer_self.items()},
        "trace.coverage_frac": _ratio(
            sum(layer_self.values()) / n + extra.get("covered_extra_s", 0.0),
            extra["trace.case_s"],
        ),
    }
    values = {}
    for name, *_ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in computed:
            values[name] = computed[name]
        elif field in FIELDS or field == "bytes":  # bytes are emit_csv's points
            values[name] = _total(stats, span, "points" if field == "bytes" else field) / n
        else:  # cli walls, import and round trip: 0 where no cli child ran
            values[name] = extra.get(name, 0.0)
    return values
