"""Bundled synthetic example generator.

Builds a self-consistent small-area dataset: a ground-truth population over
many zones with the default four-variable category structure (14 sex/age, 4
marital, 8 activity, 3 education), census constraint tables aggregated from
it, a survey sampled from the pooled truth, a zone-level table for an
unconstrained occupation variable, a grouping crosswalk and a ready-to-run
configuration. Used by the test suite's recovery experiment and as a demo
dataset for the CLI.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import yaml

from .schema import Schema, VariableDef

SEX_AGE = tuple(
    f"{sex}/{band}"
    for sex in ("Male", "Female")
    for band in ("20-29", "30-39", "40-49", "50-59", "60-69", "70-79", "80+")
)
MARITAL = ("Not married", "Married", "Widowed", "Divorced")
ACTIVITY = (
    "Empl/Primary",
    "Empl/Secondary",
    "Empl/Tertiary",
    "Unemployed",
    "Student",
    "Retired",
    "Housework",
    "Other",
)
EDUCATION = ("Tertiary", "Secondary", "Primary")
OCCUPATION = (
    "Managers",
    "Professionals",
    "Technicians",
    "Clerks",
    "Craft",
    "Operators",
    "Elementary",
)
OCCUPATION_GROUPS = {
    "Managers": "Managers+Professionals",
    "Professionals": "Managers+Professionals",
    "Technicians": "Technicians",
    "Clerks": "Clerks",
    "Craft": "Craft+Operators",
    "Operators": "Craft+Operators",
    "Elementary": "Elementary",
}
DEPRIVATION_FIELDS = tuple(f"lacks_item{i}" for i in range(1, 10))


def default_schema() -> Schema:
    return Schema(
        constraint_vars=(
            VariableDef("sex_age", SEX_AGE),
            VariableDef("marital", MARITAL),
            VariableDef("activity", ACTIVITY),
            VariableDef("education", EDUCATION),
        ),
        external_vars=(VariableDef("occupation", OCCUPATION),),
        income_field="eq_income",
        deprivation_fields=DEPRIVATION_FIELDS,
        household_field="household_id",
    )


def generate_example(
    out_dir,
    seed: int = 20160802,
    n_zones: int = 59,
    survey_size: int = 3000,
    mean_zone_pop: int = 5000,
) -> Path:
    """Write the example dataset into `out_dir`; returns the config path.
    A ValueError names the `example` flag of a size or seed out of range."""
    if n_zones < 1:
        raise ValueError(f"--zones must be at least 1, got {n_zones}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"--seed must be from 0 to {2**64 - 1}, got {seed}")
    out_dir = Path(out_dir)
    rng = np.random.default_rng(seed)
    schema = default_schema()
    zones = [f"Z{z:02d}" for z in range(1, n_zones + 1)]

    base_probs = {
        "sex_age": np.full(14, 1 / 14.0),
        "marital": np.array([0.30, 0.50, 0.10, 0.10]),
        "activity": np.array([0.02, 0.13, 0.35, 0.12, 0.08, 0.18, 0.08, 0.04]),
        "education": np.array([0.30, 0.45, 0.25]),
    }
    # occupation conditional on education (rows: Tertiary/Secondary/Primary)
    occ_given_edu = np.array(
        [
            [0.22, 0.34, 0.18, 0.16, 0.04, 0.03, 0.03],
            [0.06, 0.08, 0.16, 0.30, 0.20, 0.12, 0.08],
            [0.02, 0.02, 0.06, 0.14, 0.30, 0.22, 0.24],
        ]
    )

    affluence = rng.lognormal(mean=0.0, sigma=0.12, size=n_zones)
    zone_pops = rng.integers(
        int(mean_zone_pop * 0.7), int(mean_zone_pop * 1.3), size=n_zones
    )
    if not 1 <= survey_size <= zone_pops.sum():
        raise ValueError(
            f"--survey-size must be from 1 to {zone_pops.sum()}, the persons of "
            f"the example's truth population; got {survey_size}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)

    # the truth population, drawn zone by zone into preallocated columns;
    # each zone's census row is counted as the zone is drawn
    bounds = np.cumsum(zone_pops)
    total_pop = int(bounds[-1])
    categories = {v.name: v.categories for v in schema.constraint_vars}
    categories["occupation"] = OCCUPATION
    codes = {name: np.empty(total_pop, dtype=np.int8) for name in categories}
    tables = {
        name: np.empty((n_zones, len(cats)), np.int64)
        for name, cats in categories.items()
    }
    income = np.empty(total_pop)
    dep = np.empty((total_pop, len(DEPRIVATION_FIELDS)), dtype=bool)

    for zi, (a, b) in enumerate(zip((bounds - zone_pops).tolist(), bounds.tolist())):
        for name, base in base_probs.items():
            probs = rng.dirichlet(base * 25.0)
            codes[name][a:b] = rng.choice(len(base), size=b - a, p=probs)
        edu, occ = codes["education"][a:b], codes["occupation"][a:b]
        for lvl in range(3):
            mask = edu == lvl
            occ[mask] = rng.choice(7, size=int(mask.sum()), p=occ_given_edu[lvl])
        income[a:b] = 14000.0 * affluence[zi] * rng.lognormal(0.0, 0.45, size=b - a)
        # deprivation probability falls with income
        p_dep = 1.0 / (1.0 + np.exp((income[a:b] - 9000.0) / 4000.0))
        dep[a:b] = rng.random((b - a, len(DEPRIVATION_FIELDS))) < p_dep[:, None] * 0.9
        for name, table in tables.items():
            table[zi] = np.bincount(codes[name][a:b], minlength=table.shape[1])

    # census tables by aggregation of the truth
    with (out_dir / "constraints.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["zone_id", "variable", "category", "count"])
        for var in schema.constraint_vars:
            for zone, counts in zip(zones, tables[var.name].tolist()):
                for cat, count in zip(var.categories, counts):
                    writer.writerow([zone, var.name, cat, count])

    # zone-level actuals for the unconstrained occupation variable
    with (
        out_dir / "external_actual.csv"
    ).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["zone_id", "variable", "category", "count"])
        for zone, counts in zip(zones, tables["occupation"].tolist()):
            grouped = {}
            for cat, count in zip(OCCUPATION, counts):
                g = OCCUPATION_GROUPS[cat]
                grouped[g] = grouped.get(g, 0) + count
            for g, c in grouped.items():
                writer.writerow([zone, "occupation", g, c])

    with (out_dir / "crosswalk.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "fine_category", "group_category"])
        for fine, group in OCCUPATION_GROUPS.items():
            writer.writerow(["occupation", fine, group])

    # survey: uniform sample from the pooled truth
    picks = rng.choice(total_pop, size=survey_size, replace=False)
    with (out_dir / "survey.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = (
            ["record_id", "household_id"]
            + [v.name for v in schema.constraint_vars]
            + ["occupation", "eq_income"]
            + list(DEPRIVATION_FIELDS)
        )
        writer.writerow(header)
        for k, pi in enumerate(picks, start=1):
            row = [f"r{k:05d}", f"h{k:05d}"]
            for var in schema.constraint_vars:
                row.append(var.categories[codes[var.name][pi]])
            row.append(OCCUPATION[codes["occupation"][pi]])
            row.append(f"{income[pi]:.2f}")
            row.extend(int(b) for b in dep[pi])
            writer.writerow(row)

    config = {
        "schema": {
            "constraint_variables": [
                {"name": v.name, "categories": list(v.categories)}
                for v in schema.constraint_vars
            ],
            "external_variables": [
                {"name": "occupation", "categories": list(OCCUPATION)}
            ],
            "income_field": "eq_income",
            "household_field": "household_id",
            "deprivation_fields": list(DEPRIVATION_FIELDS),
        },
        "paths": {
            "constraints": "constraints.csv",
            "survey": "survey.csv",
            "external_actual": "external_actual.csv",
            "crosswalk": "crosswalk.csv",
            "output_dir": "out",
        },
        "ipf": {"max_iterations": 100, "tolerance": 1.0e-6},
        "seed": int(seed),
        "equivalize": False,
        "poverty": {
            "arop_fraction": 0.6,
            "md_threshold": 3,
            "mpi": {
                "cutoff": 1.0 / 3.0,
                "dimensions": [
                    {
                        "name": "income",
                        "weight": 1.0 / 3.0,
                        "indicators": [{"field": "eq_income", "below": 8000.0}],
                    },
                    {
                        "name": "living_conditions",
                        "weight": 1.0 / 3.0,
                        "indicators": [
                            {"field": f} for f in DEPRIVATION_FIELDS[:3]
                        ],
                    },
                    {
                        "name": "status",
                        "weight": 1.0 / 3.0,
                        "indicators": [
                            {"field": "activity", "in": ["Unemployed"]},
                            {"field": "education", "in": ["Primary"]},
                        ],
                    },
                ],
            },
        },
    }
    config_path = out_dir / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return config_path
