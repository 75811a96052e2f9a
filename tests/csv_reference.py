"""Reference schema inference: the two-pass rule that `load_csv` used
before it parsed each cell once.

The first pass infers each column's kind from its text, parsing every
observed cell; the second parses the numeric cells again into values.
`ppverify.tabular.load_csv` without a schema must give the same kinds,
categories and values; the property test in `test_tabular.py` compares them
on random token tables.
"""

from __future__ import annotations

import math

import numpy as np

from ppverify.tabular import (
    DISCRETE_DISTINCT_LIMIT,
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_DISCRETE,
    MISSING_TOKENS,
    ColumnSchema,
)


def infer_schema(header, columns_text):
    """One ColumnSchema per column; the last column is the label."""
    schema = []
    for j, name in enumerate(header):
        tokens = [t for t in columns_text[j] if t not in MISSING_TOKENS]
        parsed = []
        numeric = len(tokens) > 0
        for t in tokens:
            try:
                v = float(t)
            except ValueError:
                numeric = False
                break
            if math.isnan(v):
                continue  # literal NaN text counts as missing
            parsed.append(v)
        if numeric and parsed:
            integral = all(v.is_integer() for v in parsed if math.isfinite(v))
            distinct = len(set(parsed))
            discrete = integral and distinct <= DISCRETE_DISTINCT_LIMIT
            kind = KIND_DISCRETE if discrete else KIND_CONTINUOUS
        elif numeric:
            kind = KIND_CONTINUOUS  # numeric column whose observed cells were all NaN text
        else:
            kind = KIND_CATEGORICAL
        cats = tuple(sorted(set(tokens))) if kind == KIND_CATEGORICAL else ()
        schema.append(ColumnSchema(name, kind, cats, j == len(header) - 1))
    return tuple(schema)


def load_table(header, body):
    """(schema, values) of a token table, as the two-pass rule loads it."""
    columns_text = [[row[j] for row in body] for j in range(len(header))]
    schema = infer_schema(header, columns_text)
    values = np.full((len(body), len(schema)), np.nan)
    for j, col in enumerate(schema):
        code = {c: k for k, c in enumerate(col.categories)}
        for i, t in enumerate(columns_text[j]):
            if t in MISSING_TOKENS:
                continue
            if col.kind == KIND_CATEGORICAL:
                values[i, j] = code[t]
            elif not math.isnan(float(t)):
                values[i, j] = float(t)
    return schema, values
