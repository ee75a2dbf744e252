"""Round trips and validation for the CSV / JSON file formats.

Round-trip expectations are definitional: a written file read back must
reproduce the original object bit for bit (17 significant digits for CSV,
repr-exact floats for JSON).  Error cases pin the message contract that
malformed input names the offending line.
"""

import csv
import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import DELETE, edited

from lrforecast import serialize
from lrforecast.baselines import StateSpaceModel
from lrforecast.core import TimeSeries
from lrforecast.evaluation import SWEEP_CSV_COLUMNS, SweepRow
from lrforecast.features import FeatureSpec, ModelBundle, TrendModel
from lrforecast.objective import Loss
from lrforecast.serialize import (
    dump_json,
    features_from_json,
    load_json,
    load_model_json,
    loss_from_json,
    model_from_json,
    model_to_json,
    read_series_csv,
    read_sweep_csv,
    save_model_json,
    ss_from_json,
    ss_to_json,
    trend_from_json,
    trend_to_json,
    _write_csv,
    write_matrix_csv,
    write_series_csv,
    write_sweep_csv,
)
from lrforecast.simgen import SimSpec
from lrforecast.solver import LowRankForecaster


def awkward_series(t0=1, names=None):
    # values chosen to stress the formatter: irrationals, denormal-adjacent
    # magnitudes, and exact integers
    vals = np.array(
        [
            [np.pi, 1.0 / 3.0],
            [1e-300, 6.02214076e23],
            [-42.0, 2.0 ** -52],
            [0.1 + 0.2, -1e308],
        ]
    )
    return TimeSeries(vals, names=names, t0=t0)


def make_model(rank=2, loss=None, n=2, M=3, H=2, seed=0):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((M * n, rank))
    V = rng.standard_normal((rank, H * n))
    return LowRankForecaster(
        U=U,
        V=V,
        singular_values=np.sort(rng.uniform(0.1, 2.0, size=rank))[::-1].copy(),
        n=n,
        M=M,
        H=H,
        lam=0.5,
        kappa=1.5,
        loss=loss if loss is not None else Loss(),
        means=rng.standard_normal(n),
    )


def model_fields(model, **patch):
    """The constructor arguments of a model, with some replaced."""
    return {**{f.name: getattr(model, f.name) for f in dataclasses.fields(model)}, **patch}


def draw_matrix(data, *shape):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return data.draw(arrays(np.float64, shape, elements=finite))


def assert_models_equal(a, b):
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.V, b.V)
    assert np.array_equal(a.singular_values, b.singular_values)
    assert np.array_equal(a.means, b.means)
    assert (a.n, a.M, a.H) == (b.n, b.M, b.H)
    assert a.lam == b.lam and a.kappa == b.kappa
    assert a.loss == b.loss


# ----------------------------------------------------------------- series CSV


def test_series_csv_round_trip_is_exact(tmp_path):
    path = str(tmp_path / "x.csv")
    series = awkward_series(t0=7, names=("load", "temp"))
    write_series_csv(path, series)
    back = read_series_csv(path)
    assert np.array_equal(back.values, series.values)
    assert back.t0 == 7
    assert tuple(back.names) == ("load", "temp")


def test_series_csv_default_names_and_origin(tmp_path):
    path = str(tmp_path / "x.csv")
    reference_series_csv(path, awkward_series(), include_t=False)
    back = read_series_csv(path)
    assert back.t0 == 1
    assert back.column_names() == ["x1", "x2"]
    assert np.array_equal(back.values, awkward_series().values)


def test_series_csv_header_line(tmp_path):
    path = str(tmp_path / "x.csv")
    write_series_csv(path, awkward_series(names=("a", "b")))
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().strip() == "t,a,b"


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("t,a,b\n1,0.5\n", "line 2: expected 3 fields"),
        ("t,a,b\n1,0.5,1.0\n2,0.5,1.0,9\n", "line 3: expected 3 fields"),
        ("t,a,b\nx,0.5,1.0\n", "line 2: t index 'x' is not an integer"),
        ("t,a,b\n1,0.5,1.0\n3,0.5,1.0\n", "line 3: t index 3 is not consecutive"),
        ("t,a,b\n1,0.5,oops\n", "line 2: value 'oops' is not a number"),
        ("t,a,b\n", "no data rows"),
        ("", "empty file"),
        ("t,,b\n1,0.5,1.0\n", "blank column name"),
        # the first offending line is named, whatever comes after it
        ("t,a,b\n1, oops ,1.0\n2,0.5,1.0\n3,0.5,1.0\n4,0.5\n",
         "line 2: value 'oops' is not a number"),
        ("t,a,b\n1,0.5,1.0\n2,nan,1.0\n3,0.5\n", "line 3: value 'nan' is not finite"),
        ("a\n1.5\n1e999\n", "line 3: value '1e999' is not finite"),
        ("a,b\n-Infinity,oops\n", "line 2: value '-Infinity' is not finite"),
    ],
)
def test_series_csv_rejects_malformed_input(tmp_path, body, fragment):
    path = str(tmp_path / "bad.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)
    with pytest.raises(ValueError, match=fragment):
        read_series_csv(path)


def test_series_csv_cell_parsing(tmp_path):
    # cells go through int()/float(): padding, csv quotes and digit
    # underscores are accepted, as are CR, LF and CRLF line ends
    path = str(tmp_path / "x.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(' t , a ,"b"\r\n" -3", 0.5 ,"2.5"\n-2,1_0,\t-3\r')
    back = read_series_csv(path)
    assert back.names == ("a", "b") and back.t0 == -3
    assert np.array_equal(back.values, [[0.5, 2.5], [10.0, -3.0]])


def test_csv_readers_accept_utf8_bom(tmp_path):
    path = str(tmp_path / "x.csv")
    with open(path, "wb") as fh:
        fh.write(b"\xef\xbb\xbft,a,b\r\n5,1,2\r\n")
    back = read_series_csv(path)
    assert back.names == ("a", "b") and back.t0 == 5
    assert np.array_equal(back.values, [[1.0, 2.0]])
    write_sweep_csv(path, sweep_rows())
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(b"\xef\xbb\xbf" + raw)
    assert read_sweep_csv(path)[0]["rank"] == 3


def reference_series_csv(path, series, include_t=True):
    # the per-cell writer every CSV writer must reproduce byte for byte
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        names = series.column_names()
        w.writerow((["t"] + names) if include_t else names)
        for i, row in enumerate(series.values):
            cells = ["%.17g" % v for v in row]
            if include_t:
                cells = [str(series.t0 + i)] + cells
            w.writerow(cells)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


AWKWARD = np.array([-0.0, 5e-324, 1e308, -1e308, 1.0 / 3.0, -2.5e-310, 0.1, 7.0])


@pytest.mark.parametrize(
    "shape, t0, names",
    [
        ((1, 1), 1, None),
        ((1, 8), -5, None),
        ((8, 1), 10**15, ("a,b",)),
        ((4, 2), 0, ('q"x', " pad ")),
        ((2, 4), -(10**12), ("a,b", 'q"x', "t", "\u00e9")),
    ],
)
@pytest.mark.parametrize("include_t", [True, False])
def test_csv_writers_match_per_cell_reference(tmp_path, shape, t0, names, include_t):
    series = TimeSeries(AWKWARD[: shape[0] * shape[1]].reshape(shape), names=names, t0=t0)
    want, got = str(tmp_path / "want.csv"), str(tmp_path / "got.csv")
    reference_series_csv(want, series, include_t)
    if include_t:
        write_series_csv(got, series)
        assert read_bytes(got) == read_bytes(want)
        t_index = np.arange(t0, t0 + series.T)
        write_matrix_csv(got, series.values, series.column_names(), t_index=t_index)
    else:  # the t-less body the sweep CSV is written with
        _write_csv(got, series.column_names(), series.values)
    assert read_bytes(got) == read_bytes(want)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    T=st.integers(1, 6),
    n=st.integers(1, 4),
    t0=st.integers(-(10**15), 10**15),
    include_t=st.booleans(),
)
def test_series_csv_round_trip_property(tmp_path_factory, data, T, n, t0, include_t):
    values = draw_matrix(data, T, n)
    name = st.text("ab,\"' \u00e9\n", min_size=1).filter(lambda s: s == s.strip() != "t")
    names = tuple(data.draw(st.lists(name, min_size=n, max_size=n)))
    path = str(tmp_path_factory.mktemp("csv") / "x.csv")
    series = TimeSeries(values, names=names, t0=t0)
    if include_t:
        write_series_csv(path, series)
    else:
        reference_series_csv(path, series, include_t=False)
    back = read_series_csv(path)
    assert back.values.tobytes() == values.tobytes()
    assert back.names == names
    assert back.t0 == (t0 if include_t else 1)


# cells the canonical reader must hand to the csv.reader path: padding,
# underscores, non-ASCII digits, quotes, nan and overflow
ODD_CELLS = ["1_0", "\u0661\u0662", "\xa01", "1\x1c", "1\x85", "1\x0c", " 1", '""', '"4"',
             "nan", "1e999", "9223372036854775808"]
# t cells int() refuses, or that int64 cannot hold
ODD_T = ["1.0", "1e5", "9223372036854775808"]


def read_outcome(path, exact=False):
    """What read_series_csv makes of a file: the series' exact bytes, or its
    error and message; with exact, the csv.reader path alone reads it."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        if exact:
            mp.setattr(serialize, "_read_canonical", lambda text: None)
        try:
            s = read_series_csv(path)
        except (ValueError, csv.Error) as e:
            return type(e), str(e)
    return s.values.tobytes(), s.values.shape, s.names, s.t0, type(s.t0)


@st.composite
def series_csv_text(draw):
    """CSV text near the canonical form: "%.17g" cells, consecutive t and CRLF
    or LF line ends, and in half the files also odd cells and t, lone CRs,
    blank lines, and short and long rows.  t may wrap as int64 does, from
    2**63 - 1 to -2**63, and a BOM may lead."""
    noisy = draw(st.booleans())

    def pick(usual, odd):
        return draw(st.sampled_from(usual * 8 + odd if noisy else usual))

    n, has_t, wrap = draw(st.integers(1, 3)), draw(st.booleans()), draw(st.booleans())
    t0 = draw(st.sampled_from([1, -7, 0, 2**63 - 2]))
    canonical = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17g" % x)
    ends = ["\r\n", "\n"]
    text = draw(st.sampled_from(["", "\ufeff"]))
    text += ",".join(["t"] * has_t + [f"x{j}" for j in range(n)]) + pick(ends, ["\r"])
    for i in range(draw(st.integers(0, 4))):
        t = t0 + i - 2**64 * (wrap and t0 + i >= 2**63)
        cells = [pick([str(t)], ODD_T)] if has_t else []
        cells += [pick([draw(canonical)], ODD_CELLS) for _ in range(n + pick([0], [-1, 1]))]
        text += ",".join(cells) + pick(ends, ["\r"]) * pick([1], [0, 2])
    return text + pick(ends, ["\r"]) * pick([0], [1, 2])


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=series_csv_text())
def test_canonical_reader_matches_csv_reader_property(tmp_path_factory, text):
    # the np.loadtxt path returns what the csv.reader path returns, bit for
    # bit, or leaves the file to it, so every error message is its own
    path = str(tmp_path_factory.mktemp("csv") / "x.csv")
    write_text(path, text)
    assert read_outcome(path) == read_outcome(path, exact=True)


@pytest.mark.parametrize(
    "text",
    [f"t,a,b\r\n1,0.5,{cell}\r\n2,{cell},1\r\n" for cell in ODD_CELLS]
    + [f"t,a\r\n{t},0.5\r\n" for t in ODD_T]
    + [
        "t,a\r\n9223372036854775807,1\r\n-9223372036854775808,2\r\n",
        "t,a\n1,0.5\n2,1e-300\n",
        "t,a\r1,0.5\r2,-0\r",
        "t,a\n1,0.5\r\n2,.5\r3,+5.\n",
        "t,a\r\n1,0.5\r\n\r\n2,1\r\n",
        "t,a\r\n1,0.5\r\n2,1\r\n\r\n\n",
        "t,a\r\n\r\n",
        "t,a\r\n",
        "t,a,b\r\n1,0.5\r\n",
        "t,a\r\n1,0.5,7\r\n",
        "t,a\r\n1,\r\n",
        "\ufefft,a\r\n-3,0.5\r\n",
        "a,b\r\n1e5,-2.5E-3\r\n",
        '"t",a\r\n1,2\r\n',
        "t,a\r\r\n1,2\r\n",
        "t\r\n1\r\n",
        # csv.reader refuses a NUL before Python 3.11, and a field longer
        # than its limit, 131072 characters
        "t,a\x00\r\n1,2\r\n",
        pytest.param("t,a\r\n1," + "0" * 131072 + "1\r\n", id="field-over-csv-limit"),
    ],
)
def test_canonical_reader_matches_csv_reader(tmp_path, text):
    path = str(tmp_path / "x.csv")
    write_text(path, text)
    assert read_outcome(path) == read_outcome(path, exact=True)


@pytest.mark.parametrize(
    "text",
    ["t,a\r\n1, 0.5\r\n", "t,a\r\n1,1_0\r\n", 't,a\r\n1,"4"\r\n', "t,a\r\n1,nan\r\n",
     't,"a"\r\n1,2\r\n', "t,a\r1,2\r", "t,a\r\n1,2\r\n\r\n", "t,a\r\n1,2\x0c\r\n"],
)
def test_non_canonical_text_is_left_to_the_csv_reader(text):
    # padding, underscores, quotes, letters, lone CRs and blank lines: the
    # csv.reader path reads these, even where loadtxt would agree with it
    assert serialize._read_canonical(text) is None


def test_canonical_files_take_the_fast_path(tmp_path, monkeypatch):
    # every file the writers make is canonical: were the csv.reader path
    # taken, these would raise
    def refuse(*args):
        raise AssertionError("canonical file read by the csv.reader path")

    monkeypatch.setattr(serialize, "_parse_body", refuse)
    monkeypatch.setattr(serialize, "_raise_first_error", refuse)
    path = str(tmp_path / "x.csv")
    for series in [awkward_series(t0=-5), TimeSeries([[2.5]], t0=0),
                   TimeSeries(AWKWARD.reshape(1, -1), t0=10**15)]:
        write_series_csv(path, series)
        back = read_series_csv(path)
        assert back.values.tobytes() == series.values.tobytes() and back.t0 == series.t0
        write_matrix_csv(path, series.values, series.column_names(),
                         t_index=np.arange(series.T) - 3)
        back = read_series_csv(path)
        assert back.values.tobytes() == series.values.tobytes() and back.t0 == -3
        _write_csv(path, series.column_names(), series.values)  # no t column
        back = read_series_csv(path)
        assert back.values.tobytes() == series.values.tobytes() and back.t0 == 1


def test_matrix_csv_needs_one_t_per_row(tmp_path):
    with pytest.raises(ValueError, match="one t index per row"):
        write_matrix_csv(str(tmp_path / "m.csv"), np.eye(2), ["a", "b"], t_index=[1])


def test_matrix_csv_round_trips_through_series_reader(tmp_path):
    path = str(tmp_path / "m.csv")
    vals = np.array([[1.5, -2.25], [1.0 / 7.0, 3e-12]])
    write_matrix_csv(path, vals, ["z1", "z2"], t_index=np.array([10, 11]))
    back = read_series_csv(path)
    assert np.array_equal(back.values, vals)
    assert back.t0 == 10


def test_matrix_csv_without_index_and_name_check(tmp_path):
    path = str(tmp_path / "m.csv")
    with pytest.raises(TypeError, match="t_index"):
        write_matrix_csv(path, np.eye(2), ["a", "b"])  # every program CSV has a t column
    with pytest.raises(ValueError, match="one name per column"):
        write_matrix_csv(path, np.eye(2), ["a"], t_index=[1, 2])


# ----------------------------------------------------------------- model JSON


def test_model_json_round_trip(tmp_path):
    path = str(tmp_path / "model.json")
    model = make_model(loss=Loss("huber", delta=0.3))
    save_model_json(path, model)
    bundle = load_model_json(path)
    assert_models_equal(bundle.model, model)
    assert bundle.trend is None and bundle.phi is None


def test_model_json_rank_zero(tmp_path):
    path = str(tmp_path / "model.json")
    n, M, H = 2, 3, 2
    model = LowRankForecaster(
        U=np.zeros((M * n, 0)),
        V=np.zeros((0, H * n)),
        singular_values=np.zeros(0),
        n=n,
        M=M,
        H=H,
        lam=1.0,
        kappa=0.0,
        loss=Loss(),
        means=np.zeros(n),
    )
    save_model_json(path, model)
    back = load_model_json(path).model
    assert back.rank == 0
    assert back.U.shape == (M * n, 0) and back.V.shape == (0, H * n)
    assert np.array_equal(back.theta(), np.zeros((M * n, H * n)))


def test_model_json_with_trend_and_aux_blocks(tmp_path):
    path = str(tmp_path / "model.json")
    model = make_model()
    feats = FeatureSpec(periods=(24.0, 12.0), weekday=True)
    trend = TrendModel(S=np.arange(6.0).reshape(2, 3), lam=0.25, features=feats)
    phi = np.arange(20.0).reshape(feats.columns, 4) / 7.0
    save_model_json(path, model, trend=trend, phi=phi, aux_features=feats)
    bundle = load_model_json(path)
    assert_models_equal(bundle.model, model)
    assert np.array_equal(bundle.trend.S, trend.S)
    assert bundle.trend.lam == 0.25
    assert bundle.trend.features == feats
    assert np.array_equal(bundle.phi, phi)
    assert bundle.aux_features == feats


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    rank=st.integers(0, 3),
    n=st.integers(1, 3),
    M=st.integers(1, 3),
    H=st.integers(1, 3),
    loss=st.sampled_from([Loss(), Loss("l1"), Loss("huber", delta=0.3)]),
    features=st.sampled_from([None, FeatureSpec(periods=(24.0, 7.5), weekday=True)]),
    with_trend=st.booleans(),
    p=st.integers(0, 3),
)
def test_model_json_round_trip_property(
    tmp_path_factory, data, rank, n, M, H, loss, features, with_trend, p
):
    def mat(*shape):
        return draw_matrix(data, *shape)

    nonneg = st.floats(0.0, 1e300)
    model = LowRankForecaster(
        U=mat(M * n, rank), V=mat(rank, H * n), singular_values=mat(rank),
        n=n, M=M, H=H, lam=data.draw(nonneg), kappa=data.draw(nonneg),
        loss=loss, means=mat(n),
    )
    trend = None
    if with_trend:
        trend = TrendModel(S=mat(n, 3), lam=data.draw(nonneg), features=features)
    # with a feature spec, Phi has one row per feature column
    phi = mat(features.columns if features else p, H * n) if p else None
    d = tmp_path_factory.mktemp("json")
    first, second = str(d / "a.json"), str(d / "b.json")
    save_model_json(first, model, trend=trend, phi=phi, aux_features=features if p else None)
    bundle = load_model_json(first)
    back = bundle.model
    for a, b in ((back.U, model.U), (back.V, model.V), (back.means, model.means),
                 (back.singular_values, model.singular_values)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (back.n, back.M, back.H, back.loss) == (n, M, H, loss)
    assert (back.lam, back.kappa) == (model.lam, model.kappa)
    if trend is None:
        assert bundle.trend is None
    else:
        assert bundle.trend.S.tobytes() == trend.S.tobytes() and bundle.trend.lam == trend.lam
        assert bundle.trend.features == features
    if phi is None:
        assert bundle.phi is None
    else:
        assert bundle.phi.tobytes() == phi.tobytes()
        assert bundle.aux_features == features
    save_model_json(second, back, trend=bundle.trend, phi=bundle.phi,
                    aux_features=bundle.aux_features)
    assert read_bytes(second) == read_bytes(first)


def test_model_json_missing_fields(tmp_path):
    doc = model_to_json(make_model())
    del doc["U"], doc["kappa"]
    with pytest.raises(ValueError, match="missing fields: kappa, U"):
        model_from_json(doc)


@pytest.mark.parametrize(
    "patch",
    [{"lambda": -0.1}, {"kappa": -1.0}, {"n": 0}, {"M": 0}, {"H": 0}, {"rank": -1},
     {"n": -1, "rank": 0}],
)
def test_model_json_rejects_out_of_range_scalars(patch):
    doc = model_to_json(make_model())
    doc.update(patch)
    with pytest.raises(ValueError, match="out-of-range"):
        model_from_json(doc)
    # the constructor holds the same rule for a model built in the library;
    # rank is U's width, not a field
    fields = {{"lambda": "lam"}.get(k, k): v for k, v in patch.items() if k != "rank"}
    if fields:
        with pytest.raises(ValueError, match="out-of-range"):
            LowRankForecaster(**model_fields(make_model(), **fields))


@pytest.mark.parametrize("patch, message", [
    ({"M": 3.9}, "model field M must be an integer, got 3.9"),
    ({"H": True}, "model field H must be an integer, got True"),
    ({"n": None}, "model field n must be an integer, got None"),
    ({"lambda": None}, "model field lambda must be a real number, got None"),
    ({"kappa": "0"}, "model field kappa must be a real number, got '0'"),
    ({"rank": 2.0}, "out-of-range rank 2.0: it must be U's width, the integer 2"),
    ({"loss": {"kind": "huber", "delta": "0.3"}},
     "huber loss requires a real delta > 0, got '0.3'"),
], ids=["M", "H", "n", "lambda", "kappa", "rank", "delta"])
def test_model_json_rejects_wrongly_typed_scalars(patch, message):
    # the reader does not coerce: M 3.9 used to load as 3 and kappa "0" as 0.0,
    # while a null lambda or n and a string delta raised TypeError
    doc = model_to_json(make_model())
    doc.update(patch)
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_json(doc)
    # the model and loss built in the library hold the same rule; rank is U's
    # width, not a field
    ((key, value),) = patch.items()
    if key == "loss":
        with pytest.raises(ValueError, match=re.escape(message)):
            Loss(**value)
    elif key != "rank":
        fields = model_fields(make_model(), **{{"lambda": "lam"}.get(key, key): value})
        with pytest.raises(ValueError, match=re.escape(message)):
            LowRankForecaster(**fields)


def test_model_json_rejects_bad_shapes():
    base = model_to_json(make_model())

    doc = dict(base)
    doc["U"] = np.zeros((5, 2)).tolist()  # Mn is 6
    with pytest.raises(ValueError, match="factor shapes"):
        model_from_json(doc)

    doc = dict(base)
    doc["singular_values"] = [1.0]
    with pytest.raises(ValueError, match="wrong lengths"):
        model_from_json(doc)

    doc = dict(base)
    doc["means"] = [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="wrong lengths"):
        model_from_json(doc)

    doc = dict(base)
    doc["aux"] = {"Phi": np.zeros((3, 5)).tolist(), "features": None}  # Hn is 4
    with pytest.raises(ValueError, match="aux Phi has shape"):
        model_from_json(doc)

    # built in the library: a transposed factor is refused, not reshaped
    model = make_model()
    for patch in ({"U": model.U.T}, {"V": model.V.T}, {"U": model.U.ravel()}):
        with pytest.raises(ValueError, match="factor shapes"):
            LowRankForecaster(**model_fields(model, **patch))
    for phi in (np.zeros((3, 5)), np.zeros(4)):
        with pytest.raises(ValueError, match="aux Phi has shape"):
            ModelBundle(model, phi=phi)


@pytest.mark.parametrize("field", ["U", "V", "singular_values", "means", "lambda", "kappa",
                                   "aux Phi"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_model_json_rejects_non_finite_numbers(field, value):
    # json.loads reads NaN and Infinity; a model holding one is refused by name
    doc = json.loads(json.dumps(model_to_json(make_model(), phi=np.ones((2, 4)))))
    if field == "aux Phi":
        doc["aux"]["Phi"][1][2] = value
    elif field in ("lambda", "kappa"):
        doc[field] = value
    elif field in ("singular_values", "means"):
        doc[field][0] = value
    else:
        doc[field][0][1] = value
    with pytest.raises(ValueError, match=f"model field {field} has a non-finite value"):
        model_from_json(doc)
    # the same model or bundle built in the library is refused by the same rule
    model = make_model()
    with pytest.raises(ValueError, match=f"model field {field} has a non-finite value"):
        if field == "aux Phi":
            ModelBundle(model, phi=np.array(doc["aux"]["Phi"]))
        else:
            key = {"lambda": "lam"}.get(field, field)
            LowRankForecaster(**model_fields(model, **{key: doc[field]}))


@pytest.mark.parametrize("patch", [{"S": [[1.0, float("nan")]]}, {"S": [[float("inf")]]},
                                   {"lam": float("nan")}, {"lam": float("inf")}])
def test_trend_json_rejects_non_finite_numbers(patch):
    doc = {"S": [[1.0, 2.0]], "lam": 0.0, "features": None, **patch}
    name = "S" if "S" in patch else "lam"
    with pytest.raises(ValueError, match=f"trend field {name} has a non-finite value"):
        trend_from_json(doc)
    with pytest.raises(ValueError, match=f"trend field {name} has a non-finite value"):
        TrendModel(S=doc["S"], lam=doc["lam"])


@pytest.mark.parametrize("lam", ["0.5", None, True])
def test_trend_rejects_non_real_lam(lam):
    # "0.5" used to load as 0.5, and null raised TypeError
    message = f"trend field lam must be a real number, got {lam!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        trend_from_json({"S": [[1.0, 2.0]], "lam": lam, "features": None})
    with pytest.raises(ValueError, match=re.escape(message)):
        TrendModel(S=[[1.0, 2.0]], lam=lam)


def test_trend_rejects_negative_lam():
    with pytest.raises(ValueError, match="trend lam must be nonnegative"):
        TrendModel(S=[[1.0, 2.0]], lam=-0.5)
    with pytest.raises(ValueError, match="trend lam must be nonnegative"):
        trend_from_json({"S": [[1.0, 2.0]], "lam": -0.5})


def test_model_json_float_fidelity():
    # json round trips python floats through repr, which is exact for doubles
    model = make_model(seed=3)
    text = json.dumps(model_to_json(model))
    back = model_from_json(json.loads(text)).model
    assert_models_equal(back, model)


# ------------------------------------------------------- trend / state space


def test_trend_json_round_trip():
    feats = FeatureSpec(periods=(168.0,), products=True)
    trend = TrendModel(S=np.array([[1.5, -2.0]]), lam=0.1, features=feats)
    back = trend_from_json(trend_to_json(trend))
    assert np.array_equal(back.S, trend.S)
    assert back.lam == 0.1
    assert back.features == feats


def test_trend_json_without_features_and_bad_s():
    back = trend_from_json({"S": [[1.0, 2.0]]})
    assert back.features is None and back.lam == 0.0
    with pytest.raises(ValueError, match="must be a matrix"):
        trend_from_json({"S": [1.0, 2.0]})


def test_ss_json_round_trip():
    rng = np.random.default_rng(5)
    A = 0.5 * rng.standard_normal((2, 2))
    Q = np.eye(2) * 0.7
    C = rng.standard_normal((3, 2))
    R = np.eye(3) * 0.2
    model = StateSpaceModel(A=A, C=C, Q=Q, R=R)
    spec = SimSpec(n=3, r=2, seed=5)
    doc = ss_to_json(model, spec=spec)
    back = ss_from_json(doc)
    for name in ("A", "C", "Q", "R"):
        assert np.array_equal(getattr(back, name), getattr(model, name))
    assert SimSpec(**doc["spec"]) == spec


def test_ss_json_missing_field():
    doc = ss_to_json(StateSpaceModel(0.5 * np.eye(1), np.eye(1), np.eye(1), np.eye(1)))
    del doc["Q"]
    with pytest.raises(ValueError, match="state-space document missing fields: Q"):
        ss_from_json(doc)


@pytest.mark.parametrize(
    "patch, name",
    [
        ({"C": [[float("nan")]], "R": [[float("inf")]]}, "C"),
        ({"Q": [[float("nan")]]}, "Q"),
        # used to reach eigvals and raise LinAlgError
        ({"A": [[float("nan")]]}, "A"),
    ],
)
def test_ss_json_rejects_non_finite_matrices(patch, name):
    doc = {"A": [[0.5]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]], **patch}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ss_from_json(doc)


def every_document():
    """One document of each kind, as the writers produce them; the model
    carries a trend and an aux block with feature specs."""
    feats = FeatureSpec(periods=(24.0,), weekday=True)
    trend = TrendModel(S=np.arange(6.0).reshape(2, 3), lam=0.25, features=feats)
    model = model_to_json(make_model(loss=Loss("huber", delta=0.3)), trend=trend,
                          phi=np.zeros((3, 4)), aux_features=feats)
    ss = ss_to_json(StateSpaceModel(0.5 * np.eye(1), np.eye(1), np.eye(1), np.eye(1)),
                    spec=SimSpec())
    return {"model": model, "trend": trend_to_json(trend), "state-space": ss,
            "features": dataclasses.asdict(feats), "loss": model["loss"]}


JSON_READERS = {"model": model_from_json, "trend": trend_from_json, "state-space": ss_from_json,
                "features": features_from_json, "loss": loss_from_json}


@pytest.mark.parametrize("kind, path, value, message", [
    ("model", (), [1], "model document must be a JSON object"),
    ("model", ("kapa",), 1.5, "unknown model document fields: kapa"),
    ("model", ("loss",), "squared_l2", "model loss must be a JSON object"),
    ("model", ("loss", "dleta"), 0.3, "unknown model loss fields: dleta"),
    ("model", ("loss", "kind"), DELETE, "model loss missing fields: kind"),
    ("model", ("trend",), [1], "model trend must be a JSON object"),
    ("model", ("trend", "lamb"), 0.0, "unknown model trend fields: lamb"),
    ("model", ("trend", "S"), DELETE, "model trend missing fields: S"),
    ("model", ("trend", "features", "weeekday"), True,
     "unknown model trend features fields: weeekday"),
    ("model", ("aux",), [1], "model aux must be a JSON object"),
    ("model", ("aux", "phi"), [[0.0]], "unknown model aux fields: phi"),
    ("model", ("aux", "Phi"), DELETE, "model aux missing fields: Phi"),
    ("model", ("aux", "features"), "abc", "model aux.features must be a JSON object"),
    ("model", ("aux", "features", "weeekday"), True,
     "unknown model aux.features fields: weeekday"),
    ("trend", (), [1], "trend document must be a JSON object"),
    ("trend", ("lamb",), 0.0, "unknown trend document fields: lamb"),
    ("trend", ("S",), DELETE, "trend document missing fields: S"),
    ("trend", ("features",), [24.0], "trend document features must be a JSON object"),
    ("state-space", (), "A", "state-space document must be a JSON object"),
    ("state-space", ("B",), [[1.0]], "unknown state-space document fields: B"),
    ("state-space", ("spec",), [1], "state-space spec must be a JSON object"),
    ("state-space", ("spec", "rank"), 2, "unknown state-space spec fields: rank"),
    ("features", (), 24.0, "feature spec must be a JSON object"),
    ("features", ("period",), [24.0], "unknown feature spec fields: period"),
    ("loss", (), "huber", "loss must be a JSON object"),
    ("loss", ("threshold",), 1.0, "unknown loss fields: threshold"),
])
def test_json_readers_check_every_object(kind, path, value, message):
    # a misspelled key used to be dropped without a word, a non-object aux,
    # aux.features or trend raised AttributeError, and a bare "squared_l2"
    # loss was read as the loss kind
    doc = edited(every_document()[kind], path, value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        JSON_READERS[kind](doc)


# ------------------------------------------------------------------ sweep CSV


def sweep_rows():
    return [
        SweepRow(
            alpha=0.3,
            kappa=1.0,
            lam=0.123456789012345678,
            rank=3,
            train_loss=1.0 / 3.0,
            test_loss=2.0 / 7.0,
            train_inconsistency=1e-9,
            test_inconsistency=2e-9,
            wall_time_s=0.125,
        ),
        SweepRow(
            alpha=0.1,
            kappa=0.0,
            lam=0.456,
            rank=-1,
            train_loss=float("nan"),
            test_loss=float("nan"),
            train_inconsistency=float("nan"),
            test_inconsistency=float("nan"),
            wall_time_s=0.0,
            failed=True,
        ),
    ]


def test_sweep_csv_round_trip(tmp_path):
    path = str(tmp_path / "sweep.csv")
    rows = sweep_rows()
    write_sweep_csv(path, rows)
    back = read_sweep_csv(path)
    assert len(back) == 2
    assert back[0]["alpha"] == 0.3
    assert back[0]["lambda"] == rows[0].lam
    assert back[0]["rank"] == 3 and isinstance(back[0]["rank"], int)
    assert back[0]["train_loss"] == rows[0].train_loss
    assert back[0]["wall_time_s"] == 0.125
    # the failed row keeps its placeholder rank and NaN losses
    assert back[1]["rank"] == -1
    assert np.isnan(back[1]["test_loss"])


def test_sweep_csv_header_is_pinned(tmp_path):
    path = str(tmp_path / "sweep.csv")
    write_sweep_csv(path, sweep_rows())
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == (
        "alpha,kappa,lambda,rank,train_loss,test_loss,"
        "train_inconsistency,test_inconsistency,wall_time_s"
    )
    assert header == ",".join(SWEEP_CSV_COLUMNS)


def test_sweep_row_leads_with_the_csv_columns():
    names = [f.name for f in dataclasses.fields(SweepRow)][: len(SWEEP_CSV_COLUMNS)]
    assert ["lambda" if name == "lam" else name for name in names] == list(SWEEP_CSV_COLUMNS)


def test_sweep_csv_rejects_foreign_header(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("alpha,kappa\n0.1,0.0\n")
    with pytest.raises(ValueError, match="unexpected sweep header"):
        read_sweep_csv(path)


def reference_sweep_csv(path, rows):
    # the per-cell writer write_sweep_csv must reproduce byte for byte
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SWEEP_CSV_COLUMNS)
        for r in rows:
            w.writerow(["%.17g" % r.alpha, "%.17g" % r.kappa, "%.17g" % r.lam, str(r.rank)]
                       + ["%.17g" % x for x in (r.train_loss, r.test_loss, r.train_inconsistency,
                                                r.test_inconsistency, r.wall_time_s)])


@pytest.mark.parametrize("case", ["rows", "subnormal", "empty"])
def test_sweep_csv_writer_matches_per_cell_reference(tmp_path, case):
    rows = {
        "rows": sweep_rows(),  # includes a failed row: rank -1, nan losses
        "subnormal": [SweepRow(5e-324, -0.0, 2.5e-310, 0, 1e308, -1e308, 1.0 / 3.0, 0.0, 7.0)],
        "empty": [],
    }[case]
    want, got = str(tmp_path / "want.csv"), str(tmp_path / "got.csv")
    reference_sweep_csv(want, rows)
    write_sweep_csv(got, rows)
    assert read_bytes(got) == read_bytes(want)


def test_sweep_csv_failed_row_round_trip(tmp_path):
    path, again = str(tmp_path / "sweep.csv"), str(tmp_path / "again.csv")
    failed = sweep_rows()[1]
    write_sweep_csv(path, [failed])
    (rec,) = read_sweep_csv(path)
    assert rec["rank"] == -1 and isinstance(rec["rank"], int)
    assert all(np.isnan(rec[c]) for c in SWEEP_CSV_COLUMNS[4:8])
    write_sweep_csv(again, [SweepRow(*(rec[c] for c in SWEEP_CSV_COLUMNS))])
    assert read_bytes(again) == read_bytes(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.1,0,0.5,2,1,1,0,0", "line 3: expected 9 fields, got 8"),
        ("0.1,0,0.5,2,1,1,0,0,0.1,7", "line 3: expected 9 fields, got 10"),
        ("0.1,0,0.5,2,oops,1,0,0,0.1", "line 3: could not convert string to float: 'oops'"),
        ("0.1,0,0.5,2.5,1,1,0,0,0.1", "line 3: rank 2.5 is not an integer"),
        ("0.1,0,0.5,nan,1,1,0,0,0.1", "line 3: rank nan is not an integer"),
    ],
)
def test_sweep_csv_rejects_malformed_rows(tmp_path, row, message):
    path = str(tmp_path / "bad.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SWEEP_CSV_COLUMNS) + "\n0.2,0,0.4,-1,nan,nan,nan,nan,0\n" + row + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read_sweep_csv(path)


# ----------------------------------------------------------- json determinism


def test_dump_json_is_bytewise_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    doc = model_to_json(make_model(seed=11))
    dump_json(a, doc)
    # same content assembled in a different key order must serialize the same
    dump_json(b, dict(reversed(list(doc.items()))))
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_dump_json_round_trip(tmp_path):
    path = str(tmp_path / "d.json")
    doc = {"z": [1.0, 2.5], "a": {"nested": True}, "t": "text"}
    dump_json(path, doc)
    assert load_json(path) == doc
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw.endswith(b"\n")
