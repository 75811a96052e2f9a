"""Named benchmark workloads and the seeded generator of their inputs.

Every input of a workload derives from the benchmark's `--seed` argument:
the experiment's `master_seed` is the seed itself, and the mixed-type CSV
of `csv-multi-attack` is written from a `random.Random(seed)` stream. This
module uses only the standard library, so the parent process of the
benchmark never imports numpy or ppverify.
"""

from __future__ import annotations

import math
import random

WORKLOADS = {
    "paper-default": {
        "why": "the paper's headline binary logreg+LIME config; logreg training and LIME dominate",
        "config": {
            "source": "synthetic",
            "synthetic": {"rows": 400, "features": 8},
            "architecture": "logreg",
            "explainer": "lime",
            "task": "binary",
            "epsilon_grid": ["0.1", "inf"],
            "trials": 1,
            "query_count": 24,
            "lime_num_samples": 2000,
            "attack": False,
        },
    },
    "forest-shap": {
        "why": "rforest under sampled Kernel SHAP; forest training and forest predict_proba dominate",
        "config": {
            "source": "synthetic",
            "synthetic": {"rows": 160, "features": 12},
            "architecture": "rforest",
            "explainer": "shap",
            "task": "binary",
            "epsilon_grid": ["1.0"],
            "trials": 1,
            "query_count": 6,
            "shap_budget": 256,
            "background_size": 6,
            "attack": False,
        },
    },
    "csv-multi-attack": {
        "why": "mixed-type CSV, dtree, multi-class verdict and the membership attack; CSV IO and snap branches",
        "config": {
            "source": "csv",
            "architecture": "dtree",
            "explainer": "lime",
            "task": "multi",
            "epsilon_grid": ["0.1", "1.0", "10.0", "1000.0", "inf"],
            "trials": 1,
            "query_count": 12,
            "lime_num_samples": 500,
            "background_size": 12,
            "attack": True,
            "attack_group_size": 2000,
        },
        "csv_rows": 2000,
    },
}

#: Columns of the generated CSV: one categorical, one integer-discrete,
#: four continuous, then the 3-class label.
CSV_HEADER = ("region", "visits", "c0", "c1", "c2", "c3", "label")
_REGIONS = ("central", "east", "north", "south", "west")
_CLASS_SHARES = (0.5, 0.3, 0.2)


def experiment_config(name: str, seed: int, csv_path: str | None = None) -> dict:
    """The `ExperimentConfig.from_dict` input of workload `name` at `seed`."""
    cfg = dict(WORKLOADS[name]["config"], master_seed=int(seed))
    if cfg["source"] == "csv":
        if csv_path is None:
            raise ValueError(f"workload {name} needs the path of its generated CSV")
        cfg["csv_path"] = csv_path
    return cfg


def _clean_row(rng: random.Random) -> list:
    label = rng.choices((0, 1, 2), weights=_CLASS_SHARES)[0]
    region = _REGIONS[min(len(_REGIONS) - 1, max(0, int(rng.gauss(1.0 + label, 1.0))))]
    # Poisson draw by inversion; the mean grows with the class
    lam, visits, p = 2.0 + 3.0 * label, 0, 1.0
    threshold = math.exp(-lam)
    while True:
        p *= rng.random()
        if p <= threshold:
            break
        visits += 1
    cont = [rng.gauss(1.2 * label * (1 if j % 2 == 0 else -1), 1.0) for j in range(4)]
    return [region, min(visits, 40)] + cont + [label]


def csv_rows(rows: int, seed: int) -> list:
    """Rows of the mixed-type table, as lists of cell texts.

    5 % of rows copy an earlier row exactly, 2 % push one continuous cell
    past eight standard deviations and 2 % blank one feature cell (written
    as an empty field or "?"), so every cleaning step has work to do.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(rows):
        u = rng.random()
        if u < 0.05 and out:
            out.append(list(out[rng.randrange(len(out))]))
            continue
        row = _clean_row(rng)
        if u < 0.07:
            j = 2 + rng.randrange(4)
            row[j] = row[j] + rng.choice((-8.0, 8.0))
        elif u < 0.09:
            row[rng.randrange(6)] = rng.choice(("", "?"))
        out.append(
            [row[0], str(row[1])]
            + [c if isinstance(c, str) else f"{c:.6f}" for c in row[2:6]]
            + [str(row[6])]
        )
    return out


def write_csv(path: str, rows: int, seed: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for row in csv_rows(rows, seed):
            fh.write(",".join(row) + "\n")
