import csv
import json

import numpy as np
import pytest


def fd_grad(f, X, eps=1e-6):
    """Central finite differences of a scalar function of an array."""
    X = np.asarray(X, dtype=float)
    G = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        Xp = X.copy()
        Xm = X.copy()
        Xp[idx] += eps
        Xm[idx] -= eps
        G[idx] = (f(Xp) - f(Xm)) / (2 * eps)
    return G


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# edited()'s value that deletes the key at the path instead of setting it
DELETE = object()


def edited(doc, path, value):
    """A deep copy of a JSON document with the key at path (a tuple of keys,
    outermost first) set to value or deleted; the empty path replaces the
    whole document."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def sweep_csv_rows(path):
    """A sweep CSV's rows, read by csv.DictReader, every cell as a float."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
