"""Roll a cProfile table up into this repo's layers.

A function's layer is the first path component under ``src/repro/``; its
module is the first two (``phy/channel.py`` -> ``phy.channel``).  Code
outside the eight simulation layers is ``other``.  Time spent in code that
is not ours (builtins, numpy, the stdlib) is charged to whoever called it,
through the profiler's callers table — otherwise ``heapq`` and numpy would
hide a third of ``sim`` and ``phy`` under "other".

Call counts use static ownership only (no time weighting), so they are
exact and repeat bit for bit.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Any, Dict, Optional, Tuple

LAYERS = ("sim", "mobility", "phy", "mac", "core", "net", "traffic", "metrics", "other")

HOT_MODULES = (
    "sim.engine",
    "sim.timers",
    "sim.trace",
    "phy.channel",
    "phy.radio",
    "phy.neighbors",
    "phy.spatial",
    "phy.profiles",
    "mac.dcf",
    "core.agent",
    "core.cache",
)

Func = Tuple[str, int, str]  # (filename, line, name), as pstats keys them
_OTHER = ("other", "other")


def module_of(filename: str, package_root: str) -> Optional[Tuple[str, str]]:
    """``(layer, module)`` of a source file, or None for code that is not ours."""
    try:
        relative = PurePath(filename).relative_to(package_root)
    except ValueError:
        return None
    parts = relative.with_suffix("").parts
    if len(parts) < 2 or parts[0] not in LAYERS:
        return _OTHER
    return parts[0], f"{parts[0]}.{parts[1]}"


def rollup(stats: Dict[Func, Any], package_root: str) -> Dict[str, Any]:
    """Per-layer and per-module self time (``timings``), exact call counts
    (``counts``) and calls per caller-layer>callee-layer boundary (``edges``).

    ``stats`` is ``pstats.Stats(profile).stats``:
    ``{func: (cc, nc, tt, ct, {caller: (cc, nc, tt, ct)})}``.
    """
    owner = {func: module_of(func[0], package_root) for func in stats}
    charged: Dict[Func, Dict[Tuple[str, str], float]] = {}

    def charge(func: Func, stack: Tuple[Func, ...]) -> Dict[Tuple[str, str], float]:
        """Who pays for ``func``'s self time: itself if ours, else its callers."""
        own = owner.get(func)
        if own is not None:
            return {own: 1.0}
        if func in charged:
            return charged[func]
        callers = stats[func][4] if func in stats else {}
        weight = {c: v[2] for c, v in callers.items() if c not in stack}
        if sum(weight.values()) <= 0.0:
            weight = {c: float(v[1]) for c, v in callers.items() if c not in stack}
        total = sum(weight.values())
        shares: Dict[Tuple[str, str], float] = {}
        if total <= 0.0:
            shares[_OTHER] = 1.0
        else:
            for caller, w in weight.items():
                for payer, share in charge(caller, stack + (func,)).items():
                    shares[payer] = shares.get(payer, 0.0) + share * w / total
        if not stack:
            charged[func] = shares
        return shares

    self_s: Dict[Tuple[str, str], float] = {}
    calls = {layer: 0 for layer in LAYERS}
    edges: Dict[str, int] = {}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = (owner[func] or _OTHER)[0]
        calls[layer] += nc
        for caller, counts in callers.items():
            caller_layer = (owner.get(caller) or _OTHER)[0]
            edge = f"{caller_layer}>{layer}"
            edges[edge] = edges.get(edge, 0) + counts[1]
        for payer, share in charge(func, ()).items():
            self_s[payer] = self_s.get(payer, 0.0) + tt * share

    total_s = sum(self_s.values())
    layer_s = {layer: 0.0 for layer in LAYERS}
    module_s: Dict[str, float] = {}
    for (layer, module), seconds in self_s.items():
        layer_s[layer] += seconds
        module_s[module] = module_s.get(module, 0.0) + seconds

    timings: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for layer in LAYERS:
        timings[f"{layer}.self_s"] = layer_s[layer]
        timings[f"{layer}.self_share"] = layer_s[layer] / total_s if total_s else 0.0
        counts[f"{layer}.calls"] = calls[layer]
        counts[f"{layer}.calls_in"] = sum(
            n for edge, n in edges.items()
            if edge.endswith(f">{layer}") and not edge.startswith(f"{layer}>")
        )
    for module in HOT_MODULES:
        timings[f"{module}.self_share"] = (
            module_s.get(module, 0.0) / total_s if total_s else 0.0
        )
    return {"timings": timings, "counts": counts, "edges": dict(sorted(edges.items()))}
