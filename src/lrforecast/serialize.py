"""File formats: series CSV, model/trend/state-space JSON, sweep CSV.

Series CSV bytes, as written: a header row quoted as csv.writer quotes
(a name holding a comma, quote or line break is double-quoted), then one
row per time step.  An optional leading column named `t` holds the integer
time index, consecutive from the series' t0; the other columns hold the
values, each formatted "%.17g" so a write/read round trip is exact for
doubles.  Fields are comma separated and every line ends in CRLF.

Series CSVs are read as csv.reader reads them, so quoted fields and CR,
LF or CRLF line ends are accepted, as is a leading UTF-8 byte order mark.
Cells are parsed as int() (the t index) and float() (values) parse them,
which accept surrounding whitespace and digit underscores.  A wrong field
count, a non-consecutive t, or a value that is not a finite number is
rejected with a ValueError naming the first offending line.  A canonical
file, as the writers make it, is parsed in C by np.loadtxt; any other
file, and any file that fails a check there, is read again by csv.reader
and int()/float(), the only source of values for such files and of error
messages, so the accepted inputs and messages are those of that path.

This is the only module that reads or writes JSON.  Documents are dumped
with sorted keys and a fixed indent, so identical inputs give identical
bytes.  Every JSON object read, CLI config included, passes json_object
(an object, its required keys, no unknown key); beyond that the readers
only parse, and the objects they build check themselves, so NaN or
Infinity (which Python's json reads) is rejected naming the field.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections.abc import Iterable
from dataclasses import asdict, astuple, fields
from typing import NoReturn

import numpy as np

from .baselines import StateSpaceModel
from .core import TimeSeries, _is_number
from .evaluation import SWEEP_CSV_COLUMNS, SweepRow
from .features import DAYS_PER_WEEK, HOURS_PER_DAY, FeatureSpec, ModelBundle, TrendModel
from .objective import Loss
from .solver import LowRankForecaster
from .simgen import SimSpec


def dump_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- series CSV


def write_series_csv(path: str, series: TimeSeries) -> None:
    _write_csv(path, series.column_names(), series.values, range(series.t0, series.t0 + series.T))


def _write_csv(
    path: str, names: list[str], values: np.ndarray, t: Iterable[int] | None = None
) -> None:
    # csv.writer quotes the header as needed.  No formatted number needs
    # quoting, so the body is one "%" format of the whole table, written
    # with csv.writer's CRLF line ends.
    header = list(names)
    fields = ["%.17g"] * values.shape[1]
    rows = values.tolist()
    if t is not None:
        header.insert(0, "t")
        fields.insert(0, "%d")
        rows = [[ti, *row] for ti, row in zip(t, rows)]
    line = ",".join(fields) + "\r\n"
    body = (line * len(rows)) % tuple(itertools.chain.from_iterable(rows))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write(body)


def read_series_csv(path: str) -> TimeSeries:
    """Parses a series CSV, validating field counts, the t index and values.

    _read_canonical parses a canonical file; csv.reader reads every other.
    Malformed rows raise ValueError naming the first offending line.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        series = _read_canonical(fh.read())
    if series is not None:
        return series
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if not header or any(not c for c in header):
        raise ValueError(f"{path}: line 1: blank column name in header")
    has_t = header[0] == "t"
    names = header[1:] if has_t else header
    if not names:
        raise ValueError(f"{path}: header has no value columns")
    body = rows[1:]
    if not body:
        raise ValueError(f"{path}: no data rows")
    parsed = _parse_body(body, len(header), has_t)
    if parsed is None:
        _raise_first_error(path, body, len(header), has_t)
    values, t0 = parsed
    return TimeSeries(values, names=tuple(names), t0=t0)


# every character a canonical body may hold
_CANONICAL = b"0123456789+-.eE,\r\n"


def _read_canonical(text: str) -> TimeSeries | None:
    """The series in a canonical file's text, else None.

    Canonical: a header line holding no quote, CR or NUL, then a body of
    ASCII digits, signs, points, exponents, commas and line ends with no
    blank line and no line longer than csv's field size limit.  One
    np.loadtxt call parses the body, values through CPython's
    PyOS_string_to_double (float()'s routine) and t as int64, which
    refuses a cell int() refuses ("1.0", "1e5").  The result counts only if
    every line gave a row, t is consecutive and every value is finite;
    otherwise the caller's csv.reader path reads the file, and it alone
    names errors.
    """
    header, _, body = text.partition("\n")
    header = header.removesuffix("\r")
    if any(c in header for c in '"\r\0') or not body.isascii():
        return None
    if body.encode().translate(None, _CANONICAL):
        return None
    names = [c.strip() for c in header.split(",")]
    has_t = names[0] == "t"
    names = names[1:] if has_t else names
    lines = body.splitlines()
    # loadtxt skips blank lines, and warns on a body of them
    if not (names and all(names) and lines and lines[0]):
        return None
    if max(len(header), max(map(len, lines))) > csv.field_size_limit():
        return None
    columns = [("t", np.int64)] if has_t else []
    dtype = np.dtype([*columns, ("v", np.float64, (len(names),))])
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    values, t0 = np.ascontiguousarray(table["v"]), 1
    if len(table) != len(lines) or not np.isfinite(values).all():
        return None
    if has_t:
        t = table["t"]
        t0 = int(t[0])
        # np.diff wraps from 2**63 - 1 to -2**63; the span in Python ints does not
        if (np.diff(t) != 1).any() or int(t[-1]) - t0 != len(t) - 1:
            return None
    return TimeSeries(values, names=tuple(names), t0=t0)


def _parse_body(body: list[list[str]], width: int, has_t: bool):
    """(values, t0) for a well-formed body, else None.

    numpy converts each str cell with float(), so the values parse as the
    error scan parses them.
    """
    if {len(row) for row in body} != {width}:
        return None
    t0 = 1
    try:
        if has_t:
            t = [int(row[0]) for row in body]
            t0 = t[0]
            if t != list(range(t0, t0 + len(t))):
                return None
        # every int() literal is also a float() literal, so the t column
        # parses here too
        values = np.array(body, dtype=float)
    except ValueError:
        return None
    if has_t:
        # a C-contiguous copy: numpy may sum a strided view in another order
        values = np.ascontiguousarray(values[:, 1:])
    if not np.isfinite(values).all():
        return None
    return values, t0


def _raise_first_error(
    path: str, body: list[list[str]], width: int, has_t: bool
) -> NoReturn:
    """Raises ValueError naming the first malformed row of a body that
    _parse_body rejected.  Each row is checked for its field count, then
    its t index, then its values from left to right."""
    prev_t = None
    for line, row in enumerate(body, start=2):
        if len(row) != width:
            raise ValueError(f"{path}: line {line}: expected {width} fields, got {len(row)}")
        if has_t:
            try:
                t = int(row[0])
            except ValueError:
                raise ValueError(
                    f"{path}: line {line}: t index {row[0].strip()!r} is not an integer"
                ) from None
            if prev_t is not None and t != prev_t + 1:
                raise ValueError(
                    f"{path}: line {line}: t index {t} is not consecutive "
                    f"(previous was {prev_t})"
                )
            prev_t = t
            row = row[1:]
        for cell in row:
            try:
                x = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: line {line}: value {cell.strip()!r} is not a number"
                ) from None
            if not math.isfinite(x):
                raise ValueError(
                    f"{path}: line {line}: value {cell.strip()!r} is not finite"
                )


def write_matrix_csv(path: str, values: np.ndarray, names: list[str], t_index: np.ndarray) -> None:
    """Generic tidy CSV for forecasts / latent series / true states."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if len(names) != values.shape[1]:
        raise ValueError("one name per column required")
    t_index = np.asarray(t_index).tolist()
    if len(t_index) != values.shape[0]:
        raise ValueError("one t index per row required")
    _write_csv(path, names, values, t_index)


# -------------------------------------------------------------- JSON objects


def json_object(doc, name: str, required=(), optional=(), noun: str = "fields") -> dict:
    """doc if it is an object holding every required key and no key outside
    required and optional; else a ValueError naming the document and keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a JSON object")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValueError(f"{name} missing {noun}: {', '.join(missing)}")
    unknown = set(doc).difference(required, optional)
    if unknown:
        raise ValueError(f"unknown {name} {noun}: {', '.join(sorted(unknown))}")
    return doc


def loss_to_json(loss: Loss) -> dict:
    return {k: v for k, v in asdict(loss).items() if v is not None}  # delta: huber only


def loss_from_json(doc, name: str = "loss") -> Loss:
    return Loss(**json_object(doc, name, ("kind",), ("delta",)))


# older documents carry the fixed week as two keys; no other value means it
_FIXED_WEEK = {"hours_per_day": HOURS_PER_DAY, "days_per_week": DAYS_PER_WEEK}


def features_from_json(doc, name: str = "feature spec") -> FeatureSpec | None:
    if doc is None:  # documents write null for no features
        return None
    spec = dict(json_object(doc, name, (), ("periods", "weekday", "products", *_FIXED_WEEK)))
    for key, fixed in _FIXED_WEEK.items():
        if spec.pop(key, fixed) != fixed:
            raise ValueError(f"feature key {key} must be {fixed}, got {doc[key]!r}")
    return FeatureSpec(**spec)


# ----------------------------------------------------------------- model JSON


def model_to_json(
    model: LowRankForecaster,
    trend: TrendModel | None = None,
    phi: np.ndarray | None = None,
    aux_features: FeatureSpec | None = None,
) -> dict:
    doc = {
        "n": model.n,
        "M": model.M,
        "H": model.H,
        "rank": model.rank,
        "lambda": model.lam,
        "kappa": model.kappa,
        "loss": loss_to_json(model.loss),
        "means": model.means.tolist(),
        "U": model.U.tolist(),
        "V": model.V.tolist(),
        "singular_values": model.singular_values.tolist(),
    }
    if trend is not None:
        doc["trend"] = trend_to_json(trend)
    if phi is not None:
        doc["aux"] = {
            "Phi": np.asarray(phi, dtype=float).tolist(),
            "features": asdict(aux_features) if aux_features else None,
        }
    return doc


def model_from_json(doc) -> ModelBundle:
    json_object(doc, "model document", ("n", "M", "H", "rank", "lambda", "kappa", "loss",
                "means", "U", "V", "singular_values"), ("trend", "aux"))
    model = LowRankForecaster(
        U=doc["U"], V=doc["V"], singular_values=doc["singular_values"], n=doc["n"],
        M=doc["M"], H=doc["H"], lam=doc["lambda"], kappa=doc["kappa"],
        loss=loss_from_json(doc["loss"], "model loss"), means=doc["means"],
    )
    if not _is_number(doc["rank"], integer=True) or doc["rank"] != model.rank:
        raise ValueError(f"model document has out-of-range rank {doc['rank']!r}: "
                         f"it must be U's width, the integer {model.rank}")
    trend = doc.get("trend")
    if trend is not None:
        trend = trend_from_json(trend, "model trend")
    aux = doc.get("aux")
    aux = {} if aux is None else json_object(aux, "model aux", ("Phi",), ("features",))
    return ModelBundle(model, trend, phi=aux.get("Phi"),
                       aux_features=features_from_json(aux.get("features"), "model aux.features"))


def save_model_json(path: str, model: LowRankForecaster, **extras) -> None:
    dump_json(path, model_to_json(model, **extras))


def load_model_json(path: str) -> ModelBundle:
    return model_from_json(load_json(path))


# ------------------------------------------------------------ other documents


def trend_to_json(trend: TrendModel) -> dict:
    return {
        "S": trend.S.tolist(),
        "lam": trend.lam,
        "features": asdict(trend.features) if trend.features else None,
    }


def trend_from_json(doc, name: str = "trend document") -> TrendModel:
    json_object(doc, name, ("S",), ("lam", "features"))
    feats = features_from_json(doc.get("features"), f"{name} features")
    return TrendModel(S=doc["S"], lam=doc.get("lam", 0.0), features=feats)


def ss_to_json(model: StateSpaceModel, spec: SimSpec | None = None) -> dict:
    doc = {k: getattr(model, k).tolist() for k in "ACQR"}
    if spec is not None:
        doc["spec"] = asdict(spec)
    return doc


def ss_from_json(doc) -> StateSpaceModel:
    json_object(doc, "state-space document", tuple("ACQR"), ("spec",))
    if "spec" in doc:
        json_object(doc["spec"], "state-space spec", (), [f.name for f in fields(SimSpec)])
    return StateSpaceModel(*(np.array(doc[k], dtype=float) for k in "ACQR"))


# ------------------------------------------------------------------ sweep CSV


def write_sweep_csv(path: str, rows: list[SweepRow]) -> None:
    # SweepRow's leading fields are the columns; every cell "%.17g", which
    # prints the integer rank (-1 if failed) as its digits
    cells = [astuple(r)[: len(SWEEP_CSV_COLUMNS)] for r in rows]
    values = np.array(cells, dtype=float).reshape(-1, len(SWEEP_CSV_COLUMNS))
    _write_csv(path, list(SWEEP_CSV_COLUMNS), values)


def read_sweep_csv(path: str) -> list[dict]:
    """Sweep rows as dicts, rank an int.  A wrong field count, a cell float()
    rejects (nan passes) or a non-integer rank raises ValueError naming the line."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(SWEEP_CSV_COLUMNS):
            raise ValueError(f"{path}: unexpected sweep header {header}")
        out = []
        for line, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {line}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                rec = dict(zip(header, map(float, row)))
            except ValueError as e:
                raise ValueError(f"{path}: line {line}: {e}") from None
            if not rec["rank"].is_integer():
                raise ValueError(f"{path}: line {line}: rank {rec['rank']!r} is not an integer")
            rec["rank"] = int(rec["rank"])
            out.append(rec)
    return out
