"""The full evaluation report: every table/figure, with paper comparison.

``full_report`` renders the complete §7-§8 artifact set from one pipeline
run as plain text, printing measured values side by side with the paper's
published ones so the "shape" comparison is immediate.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis import paper
from repro.analysis.cones import table5_top_cones
from repro.analysis.contributions import (
    cti_only_ases,
    source_contributions,
    venn_three_categories,
)
from repro.analysis.footprint import (
    compute_footprints,
    table8_dominant_countries,
)
from repro.analysis.tables import (
    table1_confirmation_sources,
    table2_country_participation,
    table3_foreign_subsidiaries,
    table4_by_rir,
)
from repro.core.pipeline import PipelineInputs, PipelineResult
from repro.io.tables import render_table
from repro.sources.base import InputSource

__all__ = ["headline_stats", "full_report"]


def headline_stats(result: PipelineResult, inputs: PipelineInputs) -> Dict[str, float]:
    """The §7 headline numbers for one run."""
    counts = inputs.prefix2as.announced_address_counts()
    total = sum(counts.values())
    state_asns = result.dataset.all_asns()
    state_space = sum(counts.get(asn, 0) for asn in state_asns)
    us_asns = {record.asn for record in inputs.whois if record.cc == "US"}
    us_space = sum(counts.get(asn, 0) for asn in us_asns)
    ex_us_total = total - us_space
    return {
        "state_owned_asns": len(state_asns),
        "foreign_subsidiary_asns": len(result.dataset.foreign_subsidiary_asns()),
        "companies": len(result.dataset),
        "foreign_subsidiary_companies": len(result.dataset.foreign_subsidiaries()),
        "countries_with_majority": len(result.dataset.owner_countries()),
        "announced_space_share": round(state_space / total, 4) if total else 0.0,
        "announced_space_share_ex_us": (
            round(state_space / ex_us_total, 4) if ex_us_total else 0.0
        ),
    }


def _compare_rows(measured: Dict, published: Dict) -> list:
    keys = sorted(set(measured) | set(published), key=str)
    return [(key, measured.get(key, "-"), published.get(key, "-")) for key in keys]


def full_report(
    result: PipelineResult,
    inputs: PipelineInputs,
    validation: Optional[object] = None,
) -> str:
    """Render the complete evaluation as text."""
    sections = []

    if result.degraded_sources:
        names = ", ".join(sorted(s.name for s in result.degraded_sources))
        sections.append(
            f"DEGRADED RUN: the {names} source(s) were quarantined after "
            "failing; their candidates are absent and every "
            "paper comparison below understates the corresponding rows."
        )

    sections.append(
        render_table(
            ("metric", "measured", "paper"),
            _compare_rows(headline_stats(result, inputs), paper.HEADLINE),
            title="Headline (§7)",
        )
    )
    sections.append(
        render_table(
            ("stat", "measured", "paper"),
            _compare_rows(
                {k: v for k, v in result.candidates.stats.items()},
                paper.CANDIDATE_FUNNEL,
            ),
            title="Candidate funnel (§4)",
        )
    )
    sections.append(
        render_table(
            ("confirmation source", "measured", "paper"),
            _compare_rows(
                table1_confirmation_sources(result),
                paper.TABLE1_CONFIRMATION_SOURCES,
            ),
            title="Table 1 — confirmation sources",
        )
    )
    sections.append(
        render_table(
            ("participation", "measured", "paper"),
            _compare_rows(
                table2_country_participation(result),
                paper.TABLE2_PARTICIPATION,
            ),
            title="Table 2 — country participation",
        )
    )
    table3 = table3_foreign_subsidiaries(result)
    sections.append(
        render_table(
            ("owner", "#targets", "paper", "targets"),
            [
                (
                    owner,
                    count,
                    paper.TABLE3_SUBSIDIARIES.get(owner, "-"),
                    " ".join(targets),
                )
                for owner, count, targets in table3
            ],
            title="Table 3 — foreign subsidiaries",
        )
    )
    table4 = table4_by_rir(result)
    sections.append(
        render_table(
            (
                "RIR",
                "companies",
                "countries",
                "% countries",
                "paper (companies/countries/%)",
            ),
            [
                (
                    rir,
                    companies,
                    countries,
                    pct,
                    "/".join(str(v) for v in paper.TABLE4_BY_RIR.get(rir, ())),
                )
                for rir, (companies, countries, pct) in sorted(table4.items())
            ],
            title="Table 4 — state-owned operators by RIR",
        )
    )
    asrank = getattr(inputs, "asrank", None)
    if asrank is not None:
        table5 = table5_top_cones(result.dataset, asrank, inputs.whois)
        sections.append(
            render_table(
                ("ASN", "AS name", "cc", "cone"),
                table5,
                title="Table 5 — largest customer cones of state-owned ASes",
            )
        )
    contributions = source_contributions(result)
    sections.append(
        render_table(
            (
                "source",
                "ASes",
                "subsidiaries",
                "minority",
                "paper (ASes/subs/minority)",
            ),
            [
                (
                    source,
                    ases,
                    subs,
                    minority,
                    "/".join(
                        str(v)
                        for v in paper.TABLE6_SOURCE_CONTRIBUTIONS.get(
                            source, ()
                        )
                    ),
                )
                for source, (ases, subs, minority) in contributions.items()
            ],
            title="Table 6 — per-source contributions",
        )
    )
    cti_only = cti_only_ases(result, inputs.whois)
    sections.append(
        render_table(
            ("ASN", "cc", "AS name"),
            cti_only,
            title=f"Table 7 — ASes only discovered by CTI "
            f"(measured {len(cti_only)}, paper "
            f"{paper.TABLE7_CTI_ONLY_COUNT})",
        )
    )
    # Footprints need the raw geolocation/eyeball sources; skip the table
    # (with a note) when either was quarantined in a degraded run.
    footprint_feeds = {InputSource.GEOLOCATION, InputSource.EYEBALLS}
    if footprint_feeds & set(result.degraded_sources):
        sections.append(
            "Table 8 — skipped: the geolocation/eyeball sources were "
            "quarantined, so state footprints cannot be computed."
        )
    else:
        footprints = compute_footprints(
            result.dataset, inputs.prefix2as, inputs.geolocation, inputs.eyeballs
        )
        dominant = table8_dominant_countries(footprints)
        sections.append(
            render_table(
                ("cc", "footprint"),
                dominant,
                title=f"Table 8 — countries with >= 0.9 state footprint "
                f"(measured {len(dominant)}, paper "
                f"{len(paper.TABLE8_DOMINANT_COUNTRIES)})",
            )
        )
    venn3 = venn_three_categories(result)
    sections.append(
        render_table(
            ("region", "ASes"),
            sorted(venn3.items()),
            title="Figure 3 — three-category Venn regions",
        )
    )
    if validation is not None:
        sections.append(validation.as_text())
    return "\n\n".join(sections)
