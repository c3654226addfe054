"""Per-layer metrics from the spans of one traced run.

A span is (id, name, start, end, parent id, thread, grid nodes, workers);
its name is ``<layer>.<function>``.  A span's self time is its duration
minus the part of it that the union of its children's intervals covers;
a layer's self time is the sum over its spans.  Children in two worker
threads can overlap, hence the union.
"""

from __future__ import annotations

from collections import defaultdict

from traced_child import RULE_BUILD

CLOSED_FORMS = ("cavity.center_gamma", "cavity.center_shift",
                "cavity.center_response")


def _covered(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)
    result = {}
    for span_id, _, start, end, *_ in spans:
        clipped = [(max(c[2], start), min(c[3], end))
                   for c in children[span_id] if c[3] > start and c[2] < end]
        result[span_id] = end - start - _covered(clipped)
    return result


def _under(span, names, by_id) -> bool:
    """Whether an ancestor of the span has one of the names."""
    parent = span[4]
    while parent is not None:
        if by_id[parent][1] in names:
            return True
        parent = by_id[parent][4]
    return False


def layer_metrics(spans, sample_s: dict) -> dict[str, float]:
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s[1].split(".")[0]] += own[s[0]]

    def total(name, outer_only=()):
        return sum(s[3] - s[2] for s in spans if s[1] == name
                   and not _under(s, outer_only, by_id))

    integrate = [s for s in spans if s[1] == "quadrature.integrate_sphere"]
    integrate_s = total("quadrature.integrate_sphere")
    builds = [s for s in spans if s[1] == RULE_BUILD]
    lookups = sum(1 for s in spans if s[1] == "quadrature._leggauss")
    build_in_integrate_s = sum(
        s[3] - s[2] for s in builds
        if _under(s, ("quadrature.integrate_sphere",), by_id))
    kernel_s = integrate_s - build_in_integrate_s
    nodes = sum(s[6] for s in integrate)
    scans = [s for s in spans if s[1] == "fields.run_scan"]
    scan_capacity = sum((s[3] - s[2]) * s[7] for s in scans)
    busy_s = sum(s[3] - s[2] for s in integrate
                 if _under(s, ("fields.run_scan",), by_id))
    return {
        "quadrature.rule_builds": len(builds),
        "quadrature.rule_lookups": lookups,
        "quadrature.rule_hit_ratio":
            (lookups - len(builds)) / lookups if lookups else 0.0,
        "quadrature.rule_build_s": total(RULE_BUILD),
        "quadrature.integrate_calls": len(integrate),
        "quadrature.integrate_s": integrate_s,
        "quadrature.nodes": nodes,
        "quadrature.kernel_s": kernel_s,
        "quadrature.ns_per_node": kernel_s / nodes * 1e9 if nodes else 0.0,
        "quadrature.refine_ratio": sample_s["refine"] / sample_s["plain"],
        "quadrature.gradient_ratio": sample_s["gradient"] / sample_s["plain"],
        "fields.run_scan_s": total("fields.run_scan"),
        "fields.self_s": layer_self["fields"],
        "fields.worker_busy_frac":
            busy_s / scan_capacity if scan_capacity else 0.0,
        "config.load_s": total("config.load_config"),
        "cli.self_s": layer_self["cli"],
        "validation.suite_s": total("validation.run_validation_suite"),
        "validation.monte_carlo_s": total("validation.check_monte_carlo"),
        "validation.richardson_s": total("validation.richardson_gradient"),
        "cavity.closed_form_s": sum(total(name, CLOSED_FORMS)
                                    for name in CLOSED_FORMS),
    }
