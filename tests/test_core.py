import numpy as np
import pytest

from lrforecast import TimeSeries, WindowedDataset, build_windows, center


def test_series_coerces_1d_to_column():
    s = TimeSeries(np.arange(5.0))
    assert s.values.shape == (5, 1)
    assert s.T == 5 and s.n == 1


def test_series_rejects_non_finite():
    with pytest.raises(ValueError):
        TimeSeries(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([[np.inf], [0.0]]))


def test_series_name_length_checked():
    with pytest.raises(ValueError):
        TimeSeries(np.zeros((3, 2)), names=("a",))
    s = TimeSeries(np.zeros((3, 2)), names=("a", "b"))
    assert s.column_names() == ["a", "b"]
    assert TimeSeries(np.zeros((3, 2))).column_names() == ["x1", "x2"]


def test_window_shapes_and_count():
    T, n, M, H = 30, 3, 5, 4
    data = build_windows(np.random.default_rng(1).normal(size=(T, n)), M, H)
    assert data.N == T - M - H + 1
    assert data.P.shape == (data.N, M * n)
    assert data.F.shape == (data.N, H * n)


def test_window_contents_match_slices():
    # row i is x[i : i+M] flattened; the future starts right after
    rng = np.random.default_rng(2)
    x = rng.normal(size=(17, 2))
    M, H = 4, 3
    data = build_windows(x, M, H)
    for i in range(data.N):
        assert np.array_equal(data.P[i], x[i : i + M].ravel())
        assert np.array_equal(data.F[i], x[i + M : i + M + H].ravel())
    assert_owned_windows(data, x)


def assert_owned_windows(data, x):
    # windows are fresh writable copies, never views into the series
    for Z in (data.P, data.F):
        assert Z.flags.writeable
        assert not np.shares_memory(Z, x)


def test_windows_are_block_hankel():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 3))
    data = build_windows(x, 6, 5)
    # block (i + 1, j) equals block (i, j + 1): each row is the previous one shifted by a block
    n = data.n
    for Z in (data.P, data.F):
        assert np.array_equal(Z[1:, :-n], Z[:-1, n:])


def test_window_validation():
    x = np.zeros((10, 2))
    with pytest.raises(ValueError):
        build_windows(x, 0, 3)
    with pytest.raises(ValueError):
        build_windows(x, 3, 0)
    with pytest.raises(ValueError):
        build_windows(x, 6, 5)  # T < M + H
    # exactly one window at T = M + H
    one = build_windows(x, 6, 4)
    assert one.N == 1
    assert np.array_equal(one.P[0], x[:6].ravel())
    assert np.array_equal(one.F[0], x[6:].ravel())
    assert_owned_windows(one, x)


def test_windowed_dataset_shape_checks():
    with pytest.raises(ValueError):
        WindowedDataset(P=np.zeros((4, 6)), F=np.zeros((3, 4)), n=2, M=3, H=2)
    with pytest.raises(ValueError):
        WindowedDataset(P=np.zeros((4, 5)), F=np.zeros((4, 4)), n=2, M=3, H=2)
    with pytest.raises(ValueError):
        WindowedDataset(P=np.zeros((4, 6)), F=np.zeros((4, 5)), n=2, M=3, H=2)


def test_center_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.normal(loc=3.0, size=(40, 3))
    centered, means = center(x)
    assert np.allclose(centered.values.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(centered.values + means, x)


def test_center_with_stored_means():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(20, 2))
    means = np.array([1.5, -2.0])
    centered, used = center(x, means)
    assert np.array_equal(used, means)
    assert np.allclose(centered.values, x - means)
    with pytest.raises(ValueError):
        center(x, np.zeros(3))


def test_center_preserves_metadata():
    s = TimeSeries(np.ones((5, 2)), names=("a", "b"), t0=7)
    centered, _ = center(s)
    assert centered.names == ("a", "b")
    assert centered.t0 == 7
