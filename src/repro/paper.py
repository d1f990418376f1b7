"""The definition of every figure and table this repository reproduces.

``reproduce()`` runs the four artifacts of Marina & Das section 4.3 at a
chosen scale and returns a :class:`PaperReport`; ``supplement()`` runs the
ablation and extension tables beside them.  Both render to markdown and
list the shape they expect of their own numbers (``expectations()``):

    from repro.paper import reproduce
    report = reproduce(scale="quick", seeds=[1, 2])
    print(report.to_markdown())

``python examples/full_reproduction.py`` is the command-line form, and the
source of every number in ``EXPERIMENTS.md``.

Scales: ``quick`` (12-node sanity pass, under a minute), ``scaled`` (30
nodes for 120 s; a few minutes for three seeds), ``paper`` (the full
100-node setup; hours in pure Python).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.runner import SweepEngine
from repro.analysis.series import SweepPoint
from repro.analysis.stats import Aggregate
from repro.analysis.tables import format_series, format_table
from repro.core.config import PAPER_VARIANTS, DsrConfig
from repro.scenarios import presets
from repro.scenarios.config import ScenarioConfig

_SCALES = ("quick", "scaled", "paper")

ProgressFn = Callable[[str], None]

#: ``(artifact, claim, holds)``: a shape a report expects of its own numbers.
#: Tolerances are sized for scaled runs of a few seeds; a claim that does
#: not hold is a deviation to report, not a bound to loosen.
Expectation = Tuple[str, str, bool]


def _fractions(values: Iterable[float]) -> bool:
    return all(0.0 <= value <= 1.0 for value in values)


def _expectation_lines(expectations: Sequence[Expectation]) -> List[str]:
    return ["## Shape expectations"] + [
        f"- [{'pass' if holds else 'FAIL'}] {artifact}: {claim}"
        for artifact, claim, holds in expectations
    ]


def _base_scenario(scale: str, pause: float, rate: float, dsr: DsrConfig, seed: int) -> ScenarioConfig:
    if scale == "quick":  # the tiny preset, cut to 30 s
        return presets.preset_scenario("tiny", dsr, pause, rate, seed, duration=30.0)
    return presets.preset_scenario(scale, dsr, pause, rate, seed)


def _timeout_axis(scale: str) -> List[float]:
    if scale == "paper":
        return [1.0, 5.0, 10.0, 30.0, 50.0]
    return [0.3, 1.0, 3.0, 10.0, 30.0]


def _pause_axis(scale: str) -> List[float]:
    duration = {"paper": 500.0, "scaled": presets.SCALED_DURATION, "quick": 30.0}[scale]
    return [0.0, duration / 3.0, duration]


@dataclass
class PaperReport:
    """Every reproduced artifact, renderable to markdown."""

    scale: str
    seeds: List[int]
    fig1: List[SweepPoint]
    fig2: Dict[str, List[SweepPoint]]
    table3: Dict[str, Aggregate]
    fig4: Dict[str, List[SweepPoint]]
    #: Engine accounting for the whole reproduction: simulations executed
    #: vs points served from the result cache or deduplicated (the paper's
    #: figures share their pause-0 points, so deduped > 0 even cold).
    sweep_stats: Dict[str, int] = field(default_factory=dict)

    def to_markdown(self) -> str:
        sections = [
            f"# Reproduction report ({self.scale} scale, seeds {self.seeds})",
            "",
            "## Figure 1 — metrics vs route-expiry timeout (pause 0, 3 pkt/s)",
            "```",
            format_series(self.fig1, x_title="timeout"),
            "```",
            "## Figure 2 — metrics vs pause time, per variant",
        ]
        for name, points in self.fig2.items():
            sections += [f"### {name}", "```", format_series(points, x_title="pause"), "```"]
        sections += [
            "## Table 3 — cache-correctness metrics (pause 0)",
            "```",
            format_table(
                self.table3,
                metrics=("good_replies_pct", "invalid_cache_pct", "pdf"),
                row_title="protocol",
            ),
            "```",
            "## Figure 4 — metrics vs offered load, per variant",
        ]
        for name, points in self.fig4.items():
            sections += [
                f"### {name}",
                "```",
                format_series(
                    points,
                    metrics=("throughput_kbps", "delay", "overhead", "pdf"),
                    x_title="rate",
                ),
                "```",
            ]
        return "\n".join(sections + _expectation_lines(self.expectations()))

    def expectations(self) -> List[Expectation]:
        """The shapes section 4.3 reports, checked against this report."""
        pdf1 = {point.label: point.metric("pdf") for point in self.fig1}
        best_static = max(v for label, v in pdf1.items() if label.startswith("static"))
        kbps = {
            name: [point.metric("throughput_kbps") for point in points]
            for name, points in self.fig4.items()
        }
        found = [
            ("Figure 1", "every delivery fraction in [0, 1] and every delay >= 0",
             _fractions(pdf1.values()) and all(p.metric("delay") >= 0.0 for p in self.fig1)),
            ("Figure 1", "adaptive delivery >= best static delivery - 0.1",
             pdf1["adaptive"] >= best_static - 0.1),
            ("Figure 2", "every delivery fraction in [0, 1]",
             _fractions(p.metric("pdf") for points in self.fig2.values() for p in points)),
        ]
        # The base-vs-combined claims need both curves (callers may subset).
        if {"DSR", "AllTechniques"} <= self.fig2.keys():
            base, combined = self.fig2["DSR"][0], self.fig2["AllTechniques"][0]
            found += [
                ("Figure 2", "pause 0: AllTechniques delivery >= DSR delivery - 0.05",
                 combined.metric("pdf") >= base.metric("pdf") - 0.05),
                ("Figure 2", "pause 0: AllTechniques overhead <= 1.15 x DSR overhead",
                 combined.metric("overhead") <= base.metric("overhead") * 1.15),
            ]
        plain, best = self.table3["DSR"], self.table3["AllTechniques"]
        found += [
            ("Table 3", "AllTechniques good replies > DSR good replies",
             best["good_replies_pct"] > plain["good_replies_pct"]),
            ("Table 3", "AllTechniques invalid cached routes < DSR invalid cached routes",
             best["invalid_cache_pct"] < plain["invalid_cache_pct"]),
            ("Figure 4", "every variant: throughput at the lowest rate < at the highest",
             all(series[0] < series[-1] for series in kbps.values())),
        ]
        if {"DSR", "AllTechniques"} <= kbps.keys():
            found.append(
                ("Figure 4", "highest rate: AllTechniques throughput >= 0.9 x DSR throughput",
                 kbps["AllTechniques"][-1] >= kbps["DSR"][-1] * 0.9)
            )
        return found


_BASE, _ALL = PAPER_VARIANTS["DSR"], PAPER_VARIANTS["AllTechniques"]
_ADAPTIVE = PAPER_VARIANTS["AdaptiveExpiry"]
_BOTH = (("DSR", _BASE), ("AllTechniques", _ALL))
_ENVIRONMENTS: Dict[str, Dict[str, Any]] = {
    "waypoint": {},
    "gauss-markov": {"mobility_model": "gauss_markov"},
    "rpgm": {"mobility_model": "rpgm", "rpgm_groups": 4},
    "grey zone 20%": {"grey_zone_fraction": 0.2},
}

#: The ablation and extension tables: title -> (metrics shown, {row:
#: overrides of the Fig. 2 high-mobility scenario (base DSR, pause 0,
#: 3 pkt/s)}).  A row that equals a paper variant shares that variant's runs.
SUPPLEMENT_TABLES: Dict[str, Tuple[Tuple[str, ...], Dict[str, Dict[str, Any]]]] = {
    # Path cache (the paper) against link cache (Hu & Johnson, section 5).
    "Cache structure x expiry": (
        ("pdf", "delay", "overhead", "invalid_cache_pct"),
        {
            "path cache": {},
            "path cache + adaptive expiry": {"dsr": _ADAPTIVE},
            "link cache": {"dsr": DsrConfig(use_link_cache=True)},
            "link cache + adaptive expiry": {"dsr": _ADAPTIVE.but(use_link_cache=True)},
        },
    ),
    # The paper fixed one cache size; Hu & Johnson varied it.
    "Cache capacity": (
        ("pdf", "overhead", "invalid_cache_pct"),
        {
            f"{name} / {capacity} paths": {"dsr": dsr.but(cache_capacity=capacity)}
            for name, dsr in _BOTH
            for capacity in (8, 32, 64)
        },
    ),
    # Section 6 future work: replies carry a generation timestamp.
    "Freshness-tagged replies": (
        ("pdf", "overhead", "good_replies_pct", "invalid_cache_pct"),
        {
            "base DSR": {},
            "freshness tags": {"dsr": DsrConfig.with_freshness_tags()},
            "all techniques": {"dsr": _ALL},
            "all + freshness": {"dsr": _ALL.but(freshness_tags=True)},
        },
    ),
    # Section 6 conjectures the techniques suit protocols that cache less.
    "AODV vs DSR": (
        ("pdf", "delay", "overhead"),
        {"DSR (base)": {}, "DSR (all techniques)": {"dsr": _ALL}, "AODV": {"protocol": "aodv"}},
    ),
    # The paper evaluates random waypoint over an ideal disk radio only.
    "Robustness across environments": (
        ("pdf", "delay", "overhead"),
        {
            f"{env} / {name}": {**overrides, "dsr": dsr}
            for env, overrides in _ENVIRONMENTS.items()
            for name, dsr in _BOTH
        },
    ),
}


@dataclass
class SupplementReport:
    """The tables of :data:`SUPPLEMENT_TABLES`, renderable to markdown."""

    scale: str
    seeds: List[int]
    tables: Dict[str, Dict[str, Aggregate]]
    sweep_stats: Dict[str, int] = field(default_factory=dict)

    def to_markdown(self) -> str:
        sections = [
            f"# Supplement: ablations and extensions ({self.scale} scale, "
            f"seeds {self.seeds}, pause 0, 3 pkt/s)",
            "",
        ]
        for title, rows in self.tables.items():
            table = format_table(rows, metrics=SUPPLEMENT_TABLES[title][0])
            sections += [f"## {title}", "```", table, "```"]
        return "\n".join(sections + _expectation_lines(self.expectations()))

    def expectations(self) -> List[Expectation]:
        pdf = {
            title: {name: row["pdf"] for name, row in rows.items()}
            for title, rows in self.tables.items()
        }
        stale = {
            name: row["invalid_cache_pct"]
            for name, row in self.tables["Cache structure x expiry"].items()
        }
        combined = [v for k, v in pdf["Cache capacity"].items() if k.startswith("AllTechniques")]
        robust = pdf["Robustness across environments"]
        return [
            (title, "every delivery fraction in [0, 1]", _fractions(column.values()))
            for title, column in pdf.items()
        ] + [
            ("Cache structure x expiry",
             "path cache: invalid cached routes with adaptive expiry <= without + 1.0",
             stale["path cache + adaptive expiry"] <= stale["path cache"] + 1.0),
            ("Cache capacity", "AllTechniques: delivery spread over capacities < 0.12",
             max(combined) - min(combined) < 0.12),
            ("Freshness-tagged replies", "freshness tags delivery >= base DSR delivery - 0.12",
             pdf["Freshness-tagged replies"]["freshness tags"]
             >= pdf["Freshness-tagged replies"]["base DSR"] - 0.12),
            ("AODV vs DSR", "every delivery fraction > 0",
             all(value > 0.0 for value in pdf["AODV vs DSR"].values())),
        ] + [
            ("Robustness across environments",
             f"{env}: AllTechniques delivery >= DSR delivery - 0.08",
             robust[f"{env} / AllTechniques"] >= robust[f"{env} / DSR"] - 0.08)
            for env in _ENVIRONMENTS
        ]


def supplement(
    scale: str = "quick",
    seeds: Sequence[int] = (1,),
    progress: Optional[ProgressFn] = None,
    engine: Optional[SweepEngine] = None,
) -> SupplementReport:
    """Run the ablation and extension tables of :data:`SUPPLEMENT_TABLES`.

    Pass the ``engine`` that ran :func:`reproduce` and the rows that are
    paper variants resolve from its memo instead of running again.
    """
    if scale not in _SCALES:
        raise ValueError(f"scale must be one of {_SCALES}, got {scale!r}")
    seeds = list(seeds)
    say = progress or (lambda message: None)
    engine = engine or SweepEngine()
    tables: Dict[str, Dict[str, Aggregate]] = {}

    def scenario(seed: int, overrides: Dict[str, Any]) -> ScenarioConfig:
        return _base_scenario(scale, 0.0, 3.0, _BASE, seed).but(**overrides)

    for title, (_metrics, rows) in SUPPLEMENT_TABLES.items():
        say(f"supplement: {title}")
        tables[title] = engine.compare_variants(
            {name: (lambda seed, o=overrides: scenario(seed, o)) for name, overrides in rows.items()},
            seeds,
        )
    return SupplementReport(
        scale=scale, seeds=seeds, tables=tables, sweep_stats=engine.session_stats()
    )


def reproduce(
    scale: str = "quick",
    seeds: Sequence[int] = (1,),
    progress: Optional[ProgressFn] = None,
    fig2_variants: Optional[Sequence[str]] = None,
    fig4_variants: Sequence[str] = ("DSR", "AllTechniques"),
    engine: Optional[SweepEngine] = None,
) -> PaperReport:
    """Run the paper's four artifacts and return a report.

    All figures execute through one :class:`SweepEngine`, by default one
    over every core with no on-disk cache.  Pass a prebuilt ``engine``
    (``SweepEngine.create(processes=..., cache_dir=...)``) to choose its
    processes and cache, or to share its memo across calls.  Results are
    identical to serial execution — the engine preserves per-seed
    determinism and aggregation order.
    """
    if scale not in _SCALES:
        raise ValueError(f"scale must be one of {_SCALES}, got {scale!r}")
    seeds = list(seeds)
    say = progress or (lambda message: None)
    engine = engine or SweepEngine()
    sweep = engine.sweep
    compare_variants = engine.compare_variants

    say("figure 1: timeout sweep")
    fig1 = sweep(
        lambda timeout, seed: _base_scenario(
            scale, 0.0, 3.0, DsrConfig.with_static_expiry(timeout), seed
        ),
        _timeout_axis(scale),
        seeds,
        label=lambda timeout: f"static {timeout:g}s",
    )
    fig1 = (
        sweep(
            lambda idx, seed: _base_scenario(
                scale,
                0.0,
                3.0,
                DsrConfig.base() if idx == 0 else DsrConfig.with_adaptive_expiry(),
                seed,
            ),
            [0, 1],
            seeds,
            label=lambda idx: "no timeout" if idx == 0 else "adaptive",
        )
        + fig1
    )

    say("figure 2: mobility sweep")
    variant_names = list(fig2_variants or PAPER_VARIANTS)
    fig2: Dict[str, List[SweepPoint]] = {}
    for name in variant_names:
        dsr = PAPER_VARIANTS[name]
        fig2[name] = sweep(
            lambda pause, seed, d=dsr: _base_scenario(scale, pause, 3.0, d, seed),
            _pause_axis(scale),
            seeds,
            label=lambda pause: f"{pause:g}",
        )

    say("table 3: cache metrics")
    table3 = compare_variants(
        {
            name: (lambda seed, d=dsr: _base_scenario(scale, 0.0, 3.0, d, seed))
            for name, dsr in PAPER_VARIANTS.items()
        },
        seeds,
    )

    say("figure 4: load sweep")
    fig4: Dict[str, List[SweepPoint]] = {}
    for name in fig4_variants:
        dsr = PAPER_VARIANTS[name]
        fig4[name] = sweep(
            lambda rate, seed, d=dsr: _base_scenario(scale, 0.0, rate, d, seed),
            [1.0, 3.0, 6.0],
            seeds,
            label=lambda rate: f"{rate:g} pkt/s",
        )

    return PaperReport(
        scale=scale,
        seeds=seeds,
        fig1=fig1,
        fig2=fig2,
        table3=table3,
        fig4=fig4,
        sweep_stats=engine.session_stats(),
    )
