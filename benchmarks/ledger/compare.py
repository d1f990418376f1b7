"""Compare two result sets row by row, against the manifest's bounds.

Verdicts follow the choosing-metrics guide: a gain needs B to win at least
nine tenths of the pairs *and* the medians to differ by more than A's own
quartile distance; a loss is a median worse by more than the metric's
bound; and where either side's spread is wider than the bound the row is
``unresolved``, not ``unchanged`` — unless every B sample beats every A
sample.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List


def spread(summary: Dict[str, Any]) -> float:
    """Quartile distance as a share of the median."""
    return (summary["q3"] - summary["q1"]) / summary["median"]


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> Dict[str, Any]:
    """One row: A is the base, B the candidate."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means B is worse
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    pairs = list(zip(a["samples"], b["samples"]))
    b_wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    a_wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    all_better = max(sign * y for y in b["samples"]) < min(sign * x for x in a["samples"])
    beyond_noise = abs(b["median"] - a["median"]) > (a["q3"] - a["q1"])
    if pairs and b_wins >= 0.9 * len(pairs) and beyond_noise and worse_by < 0:
        result = "improved"
    elif worse_by > bound:
        result = "regressed"
    elif max(spread(a), spread(b)) > bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "worse_by": worse_by,
        "pairs": len(pairs),
        "b_wins": b_wins,
        "a_wins": a_wins,
        "verdict": result,
    }


def compare_sets(
    a: Dict[str, Any], b: Dict[str, Any], manifest: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both sets."""
    rows = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric in manifest["end_to_end"]:
            sa = entry_a.get("end_to_end", {}).get(metric["name"])
            sb = entry_b.get("end_to_end", {}).get(metric["name"])
            if sa is None or sb is None:
                continue
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "a": sa,
                    "b": sb,
                    **verdict(sa, sb, metric["better"], metric["bound"]),
                }
            )
    return rows


def count_differences(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Exact-count per-layer metrics and result digests that differ."""
    out = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name, {})
        counts_a = entry_a.get("per_layer", {}).get("counts", {})
        counts_b = entry_b.get("per_layer", {}).get("counts", {})
        for metric in sorted(set(counts_a) | set(counts_b)):
            if counts_a.get(metric) != counts_b.get(metric):
                out.append(
                    f"{name} {metric}: {counts_a.get(metric)} != {counts_b.get(metric)}"
                )
        if entry_a.get("digests") != entry_b.get("digests"):
            out.append(f"{name}: result digests differ")
    return out


def format_rows(rows: List[Dict[str, Any]]) -> Iterable[str]:
    for row in rows:
        a, b = row["a"], row["b"]
        yield (
            f"{row['workload']} {row['metric']} [{row['unit']}] "
            f"A {a['median']:.6g} ({a['q1']:.6g}..{a['q3']:.6g}, n {a['n']}) "
            f"B {b['median']:.6g} ({b['q1']:.6g}..{b['q3']:.6g}, n {b['n']}) "
            f"worse by {100 * row['worse_by']:+.1f}% of A (bound {100 * row['bound']:.0f}%) "
            f"pairs {row['pairs']}: B wins {row['b_wins']}, A wins {row['a_wins']} "
            f"-> {row['verdict']}"
        )


def disagreements(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rows of two runs of the same tree whose medians differ by more
    than the metric's own bound, in either direction."""
    return [row for row in rows if abs(row["worse_by"]) > row["bound"]]
