import numpy as np
import pytest

from smallarea.schema import (
    ConstraintTable,
    Schema,
    SurveyDataset,
    VariableDef,
)


def make_schema(**kwargs):
    defaults = dict(
        constraint_vars=(
            VariableDef("sex", ("M", "F")),
            VariableDef("age", ("Y", "O")),
        ),
        income_field="income",
        deprivation_fields=(),
        household_field="household_id",
    )
    defaults.update(kwargs)
    return Schema(**defaults)


def make_survey(schema, cats_per_record, incomes=None, deprivations=None):
    """cats_per_record: list of dicts variable -> category."""
    n = len(cats_per_record)
    variables = schema.constraint_vars + schema.external_vars
    return SurveyDataset(
        schema,
        record_ids=[f"r{i}" for i in range(n)],
        household_ids=[f"h{i}" for i in range(n)],
        categories={
            v.name: [cats[v.name] for cats in cats_per_record] for v in variables
        },
        incomes=incomes,
        deprivations=deprivations,
    )


def make_table(variable, zones, categories, counts):
    return ConstraintTable(variable, tuple(zones), tuple(categories), np.array(counts))


@pytest.fixture
def two_by_two():
    """Classic 2-constraint instance: records (M,Y),(M,O),(F,Y),(F,O)."""
    schema = make_schema()
    survey = make_survey(
        schema,
        [
            {"sex": "M", "age": "Y"},
            {"sex": "M", "age": "O"},
            {"sex": "F", "age": "Y"},
            {"sex": "F", "age": "O"},
        ],
    )
    return schema, survey
