"""Synthetic generators, IDX loading, normalization, and corruption ladders."""

import math
import struct
import warnings

import numpy as np
import pytest

from rra_uq.data import (CORRUPTION_KINDS, Dataset, NormStats, corrupt,
                         corruption_applies, gen_blobs, gen_two_moons, load_idx,
                         normalize, severity_params, take, write_idx)
from rra_uq.errors import (ContractError, DataFormatError, ParameterError)


class TestTwoMoons:
    def test_zero_noise_matches_template(self):
        ds = gen_two_moons(4, noise=0.0, seed=0)
        t = [0.0, math.pi]
        arc0 = [[math.cos(v), math.sin(v)] for v in t]
        arc1 = [[1.0 - math.cos(v), 0.5 - math.sin(v)] for v in t]
        assert np.allclose(ds.features, np.array(arc0 + arc1), atol=1e-15)
        assert np.array_equal(ds.labels, np.array([0, 0, 1, 1]))

    def test_zero_noise_independent_recomputation(self):
        ds = gen_two_moons(10, noise=0.0, seed=3)
        ts = np.linspace(0.0, math.pi, 5)
        for i, t in enumerate(ts):
            assert ds.features[i, 0] == pytest.approx(math.cos(t), abs=1e-15)
            assert ds.features[i, 1] == pytest.approx(math.sin(t), abs=1e-15)
            assert ds.features[5 + i, 0] == pytest.approx(1 - math.cos(t), abs=1e-15)
            assert ds.features[5 + i, 1] == pytest.approx(0.5 - math.sin(t), abs=1e-15)

    def test_determinism_and_seed_sensitivity(self):
        a = gen_two_moons(100, noise=0.1, seed=5)
        b = gen_two_moons(100, noise=0.1, seed=5)
        c = gen_two_moons(100, noise=0.1, seed=6)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_balanced_classes(self):
        ds = gen_two_moons(1000, noise=0.2, seed=1)
        assert int((ds.labels == 0).sum()) == 500
        assert int((ds.labels == 1).sum()) == 500

    def test_validation(self):
        with pytest.raises(ParameterError):
            gen_two_moons(5, noise=0.1, seed=0)
        with pytest.raises(ParameterError):
            gen_two_moons(0, noise=0.1, seed=0)
        with pytest.raises(ParameterError):
            gen_two_moons(4, noise=-0.1, seed=0)


class TestBlobs:
    def test_zero_sigma_reproduces_centers(self):
        centers = [[-1.0, 2.0], [3.0, -4.0]]
        ds = gen_blobs(6, centers, sigma=0.0, seed=0)
        for i in range(6):
            assert np.array_equal(ds.features[i], np.array(centers[i % 2]))

    def test_round_robin_counts_differ_by_at_most_one(self):
        ds = gen_blobs(11, [[0.0, 0.0], [5.0, 5.0], [0.0, 5.0]], sigma=0.1, seed=2)
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 11

    def test_linear_oracle_separates_far_blobs(self):
        ds = gen_blobs(200, [[-5.0, 0.0], [5.0, 0.0]], sigma=0.2, seed=3)
        # independent classifier: least-squares onto +-1 targets
        X = np.column_stack([ds.features, np.ones(len(ds))])
        y = np.where(ds.labels == 1, 1.0, -1.0)
        w, *_ = np.linalg.lstsq(X, y, rcond=None)
        pred = (X @ w > 0).astype(np.int64)
        assert float((pred == ds.labels).mean()) == 1.0

    def test_duplicate_centers_flagged(self):
        ds = gen_blobs(8, [[1.0, 1.0], [1.0, 1.0]], sigma=0.1, seed=4)
        assert ds.name.endswith("+dup")

    def test_validation(self):
        with pytest.raises(ParameterError):
            gen_blobs(10, [[0.0, 0.0]], sigma=0.1, seed=0)
        with pytest.raises(ParameterError):
            gen_blobs(10, [[0.0, 0.0], [1.0, 1.0]], sigma=-0.1, seed=0)


def write_idx_fixture(tmp_path, pixels, labels):
    """Hand-rolled big-endian IDX byte writer, independent of the library."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, h, w = pixels.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(struct.pack(">IIII", 0x00000803, n, h, w) + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(int(v) for v in labels))
    return images_path, labels_path


class TestIdx:
    def test_hand_built_fixture_loads_exactly(self, tmp_path):
        pixels = [[[0, 255], [128, 64]], [[1, 2], [3, 4]]]
        ipath, lpath = write_idx_fixture(tmp_path, pixels, [0, 1])
        ds = load_idx(ipath, lpath)
        assert ds.features.shape == (2, 1, 2, 2)
        want = np.asarray(pixels, dtype=np.float64)[:, None] / 255.0
        assert np.array_equal(ds.features, want)
        assert np.array_equal(ds.labels, np.array([0, 1]))
        assert ds.n_classes == 2

    def test_round_trip_byte_identical(self, tmp_path):
        pixels = np.arange(2 * 3 * 3).reshape(2, 3, 3) % 256
        ipath, lpath = write_idx_fixture(tmp_path, pixels, [1, 0])
        ds = load_idx(ipath, lpath)
        out_i, out_l = tmp_path / "out_images.idx", tmp_path / "out_labels.idx"
        write_idx(ds, out_i, out_l)
        assert out_i.read_bytes() == ipath.read_bytes()
        assert out_l.read_bytes() == lpath.read_bytes()

    def test_empty_set_round_trips(self, tmp_path):
        empty = Dataset(np.zeros((0, 1, 3, 4)), np.zeros(0), "empty", 2)
        out_i, out_l = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(empty, out_i, out_l)
        assert len(out_i.read_bytes()) == 16 and len(out_l.read_bytes()) == 8
        ds = load_idx(out_i, out_l)
        assert ds.features.shape == (0, 1, 3, 4) and ds.labels.shape == (0,)

    def test_label_past_a_byte_refused(self, tmp_path):
        # a label past 255 would wrap as a byte: 300 would read back as 44
        ds = Dataset(np.zeros((2, 1, 2, 2)), [0, 300], "wide", 301)
        out_i, out_l = tmp_path / "images.idx", tmp_path / "labels.idx"
        with pytest.raises(ContractError, match="0..255"):
            write_idx(ds, out_i, out_l)
        assert not out_i.exists() and not out_l.exists()

    def test_truncated_header_rejected(self, tmp_path):
        ipath, lpath = write_idx_fixture(tmp_path, np.zeros((1, 2, 2)), [0])
        ipath.write_bytes(ipath.read_bytes()[:10])
        with pytest.raises(DataFormatError, match="byte 10, inside its 16-byte header"):
            load_idx(ipath, lpath)

    def test_truncated_payload_rejected(self, tmp_path):
        ipath, lpath = write_idx_fixture(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        buf = ipath.read_bytes()
        ipath.write_bytes(buf[:-3])
        with pytest.raises(DataFormatError,
                           match=r"payload of shape \(2, 2, 2\) ends at byte 24"):
            load_idx(ipath, lpath)

    def test_no_images_of_huge_size_rejected(self, tmp_path):
        # zero images need no payload, but numpy cannot shape them: once a ValueError
        ipath, lpath = write_idx_fixture(tmp_path, np.zeros((0, 1, 1)), [])
        ipath.write_bytes(struct.pack(">IIII", 0x00000803, 0, 2 ** 32 - 1, 2 ** 32 - 1))
        with pytest.raises(DataFormatError):
            load_idx(ipath, lpath)

    def test_wrong_magic_named_with_offset(self, tmp_path):
        ipath, lpath = write_idx_fixture(tmp_path, np.zeros((1, 2, 2)), [0])
        buf = bytearray(ipath.read_bytes())
        buf[:4] = struct.pack(">I", 0x00000802)
        ipath.write_bytes(bytes(buf))
        with pytest.raises(DataFormatError, match="bad IDX images magic .* at byte 0"):
            load_idx(ipath, lpath)

    def test_label_image_count_mismatch(self, tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        ipath, _ = write_idx_fixture(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        _, lpath = write_idx_fixture(other, np.zeros((1, 2, 2)), [0])
        with pytest.raises(DataFormatError) as err:
            load_idx(ipath, lpath)
        assert str(err.value) == (f"label count 1 in {lpath} does not match "
                                  f"image count 2 in {ipath}")

    def test_label_out_of_class_range(self, tmp_path):
        ipath, lpath = write_idx_fixture(tmp_path, np.zeros((2, 2, 2)), [0, 7])
        with pytest.raises(ParameterError):
            load_idx(ipath, lpath, n_classes=5)

    def test_one_class_refused(self, tmp_path):
        # a count given below 2 was once lifted to 2 and trained without a word
        ipath, lpath = write_idx_fixture(tmp_path, np.zeros((2, 2, 2)), [0, 0])
        with pytest.raises(ParameterError, match="at least 2 classes"):
            load_idx(ipath, lpath, n_classes=1)
        assert load_idx(ipath, lpath).n_classes == 2  # an inferred count is lifted


class TestNormalize:
    def test_self_stats_standardize(self):
        ds = gen_blobs(100, [[0.0, 10.0], [4.0, -6.0]], sigma=1.0, seed=5)
        out, stats = normalize(ds)
        assert np.allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.features.std(axis=0), 1.0, atol=1e-12)

    def test_reapplying_stats_is_idempotent_on_source(self):
        ds = gen_blobs(50, [[1.0, 2.0], [3.0, 4.0]], sigma=0.5, seed=6)
        out1, stats = normalize(ds)
        out2, _ = normalize(ds, stats)
        assert np.array_equal(out1.features, out2.features)

    def test_train_stats_transform_test_consistently(self):
        train = gen_blobs(80, [[0.0, 0.0], [6.0, 6.0]], sigma=0.4, seed=7)
        test = gen_blobs(40, [[0.0, 0.0], [6.0, 6.0]], sigma=0.4, seed=8)
        _, stats = normalize(train)
        out, _ = normalize(test, stats)
        want = (test.features - stats.mean) / stats.std
        assert np.array_equal(out.features, want)

    def test_constant_feature_maps_to_zero(self):
        feats = np.column_stack([np.full(10, 3.5), np.arange(10, dtype=np.float64)])
        ds = Dataset(feats, np.arange(10) % 2, "const", 2)
        out, stats = normalize(ds)
        assert np.array_equal(out.features[:, 0], np.zeros(10))
        assert stats.std[0] == 1.0 and stats.mean[0] == 3.5

    def test_stats_shape_mismatch(self):
        ds = gen_blobs(10, [[0.0, 0.0], [1.0, 1.0]], sigma=0.1, seed=0)
        bad = NormStats(np.zeros(3), np.ones(3))
        with pytest.raises(ContractError):
            normalize(ds, bad)


class TestCorruptions:
    def points(self, n=200, seed=9):
        return gen_two_moons(n, noise=0.05, seed=seed)

    def images(self, n=4):
        rng = np.random.default_rng(3)
        feats = rng.uniform(0.0, 1.0, size=(n, 1, 8, 8))
        return Dataset(feats, np.arange(n) % 2, "imgs", 2)

    def test_labels_and_count_preserved(self):
        ds = self.points()
        for kind in ("gaussian_noise", "shot_noise", "pixel_dropout", "rotation"):
            out = corrupt(ds, kind, 3, seed=1)
            assert len(out) == len(ds)
            assert np.array_equal(out.labels, ds.labels)
            assert out.name == ds.name + f"+{kind}@3"

    def test_deterministic_in_all_arguments(self):
        ds = self.points()
        a = corrupt(ds, "gaussian_noise", 2, seed=1)
        b = corrupt(ds, "gaussian_noise", 2, seed=1)
        c = corrupt(ds, "gaussian_noise", 2, seed=2)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_gaussian_severity_scales_shared_draws(self):
        # same seed reuses the same unit draws, so the perturbations are
        # exactly proportional and their variances sit at the squared ratio
        ds = self.points()
        p1 = corrupt(ds, "gaussian_noise", 1, seed=4).features - ds.features
        p5 = corrupt(ds, "gaussian_noise", 5, seed=4).features - ds.features
        ratio = severity_params("gaussian_noise", 5) / severity_params("gaussian_noise", 1)
        assert np.allclose(p5, ratio * p1, rtol=1e-12, atol=1e-15)
        assert p5.var() / p1.var() == pytest.approx(ratio ** 2, rel=1e-9)

    def test_pixel_dropout_zero_sets_nest_across_severity(self):
        ds = self.images()
        z1 = corrupt(ds, "pixel_dropout", 1, seed=5).features == 0.0
        z5 = corrupt(ds, "pixel_dropout", 5, seed=5).features == 0.0
        assert np.all(z5 | ~z1)  # every severity-1 zero is also zeroed at severity 5
        assert z5.sum() > z1.sum()

    def test_rotation_of_points_preserves_pairwise_distances(self):
        ds = self.points()
        out = corrupt(ds, "rotation", 4, seed=0)
        d0 = np.linalg.norm(ds.features[0] - ds.features[50])
        d1 = np.linalg.norm(out.features[0] - out.features[50])
        assert d1 == pytest.approx(d0, abs=1e-9)
        assert not np.allclose(out.features, ds.features)

    def test_rotation_angle_matches_severity_table(self):
        ds = self.points()
        out = corrupt(ds, "rotation", 3, seed=0)
        center = ds.features.mean(axis=0)
        v0 = ds.features[0] - center
        v1 = out.features[0] - center
        cos_angle = v0 @ v1 / (np.linalg.norm(v0) * np.linalg.norm(v1))
        angle = math.degrees(math.acos(np.clip(cos_angle, -1.0, 1.0)))
        assert angle == pytest.approx(severity_params("rotation", 3), abs=1e-6)

    def test_shot_noise_stays_in_value_range(self):
        ds = self.images()
        out = corrupt(ds, "shot_noise", 5, seed=6)
        lo, hi = ds.features.min(), ds.features.max()
        assert out.features.min() >= lo - 1e-12
        assert out.features.max() <= hi + 1e-12

    def test_blur_smooths_images_and_rejects_points(self):
        imgs = self.images()
        out = corrupt(imgs, "blur", 3, seed=0)
        assert out.features.var() < imgs.features.var()
        with pytest.raises(ParameterError):
            corrupt(self.points(), "blur", 1, seed=0)

    def test_rotation_rejects_non_planar_features(self):
        feats = np.ones((4, 3))
        ds = Dataset(feats, np.arange(4) % 2, "odd", 2)
        with pytest.raises(ParameterError):
            corrupt(ds, "rotation", 1, seed=0)

    def test_image_rotation_path(self):
        imgs = self.images()
        out = corrupt(imgs, "rotation", 5, seed=0)
        assert out.features.shape == imgs.features.shape
        assert not np.array_equal(out.features, imgs.features)

    def test_severity_tables_monotone(self):
        for kind in CORRUPTION_KINDS:
            ladder = [severity_params(kind, s) for s in range(1, 6)]
            if kind == "shot_noise":
                assert ladder == sorted(ladder, reverse=True)  # fewer photons = worse
            else:
                assert ladder == sorted(ladder)

    def test_parameter_validation(self):
        ds = self.points()
        with pytest.raises(ParameterError):
            corrupt(ds, "fog", 1, seed=0)
        with pytest.raises(ParameterError):
            corrupt(ds, "gaussian_noise", 0, seed=0)
        with pytest.raises(ParameterError):
            corrupt(ds, "gaussian_noise", 6, seed=0)


class TestBlurMatchesNdimage:
    """The NumPy box filter against SciPy's uniform_filter, bit for bit."""

    @staticmethod
    def reference(x, severity):
        ndimage = pytest.importorskip("scipy.ndimage")
        size = 2 * severity_params("blur", severity) + 1
        return ndimage.uniform_filter(x, size=(1, 1, size, size), mode="nearest")

    @staticmethod
    def blurred(x, severity):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = corrupt(Dataset(x, np.zeros(len(x), dtype=np.int64), "img", 2),
                          "blur", severity, seed=0)
        return out.features

    @pytest.mark.parametrize("shape", [(3, 1, 28, 28), (2, 3, 9, 7), (2, 2, 1, 1),
                                       (1, 1, 2, 5), (4, 1, 6, 1)])
    def test_finite_inputs_bit_for_bit(self, shape):
        rng = np.random.default_rng(sum(shape))
        base = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        views = [base, np.asfortranarray(base),
                 np.repeat(np.repeat(base, 2, axis=2), 3, axis=3)[:, :, ::2, ::3],
                 base[::-1, :, ::-1, :]]
        for x in views:
            for severity in range(1, 6):
                want, got = self.reference(x, severity), self.blurred(x, severity)
                assert got.shape == x.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), severity

    def test_non_finite_inputs_match_in_value_and_nan_position(self):
        x = np.random.default_rng(3).random((3, 2, 9, 8))
        x[0, 0, 4, 4] = np.nan
        x[1, 1, 0, 0] = np.inf
        x[2, 0, 5, 5], x[2, 0, 5, 6] = -np.inf, np.inf  # inf - inf in one window
        x[2, 1, 2, 2] = x[2, 1, 2, 3] = 1.7e308        # the window sum overflows
        for severity in range(1, 6):
            want, got = self.reference(x, severity), self.blurred(x, severity)
            nan = np.isnan(want)
            assert nan.any() and np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestCorruptionApplies:
    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    @pytest.mark.parametrize("feature_shape", [(2,), (3,), (1, 4, 4)])
    def test_agrees_with_corrupt(self, kind, feature_shape):
        ds = Dataset(np.linspace(0.0, 1.0, 4 * math.prod(feature_shape)).reshape(
            (4,) + feature_shape), np.arange(4) % 2, "d", 2)
        if corruption_applies(kind, feature_shape):
            assert corrupt(ds, kind, 1, seed=0).features.shape == ds.features.shape
        else:
            with pytest.raises(ParameterError, match="undefined for feature shape"):
                corrupt(ds, kind, 1, seed=0)


class TestSubsets:
    def test_take_reorders(self):
        ds = gen_blobs(10, [[0.0, 0.0], [1.0, 1.0]], sigma=0.1, seed=0)
        sub = take(ds, [3, 1])
        assert np.array_equal(sub.features[0], ds.features[3])
        assert sub.labels[1] == ds.labels[1]


class TestDatasetValidation:
    def test_label_feature_mismatch(self):
        with pytest.raises(ContractError):
            Dataset(np.ones((3, 2)), np.array([0, 1]), "x", 2)

    def test_label_range(self):
        with pytest.raises(ContractError):
            Dataset(np.ones((2, 2)), np.array([0, 5]), "x", 2)

    def test_class_floor(self):
        with pytest.raises(ParameterError):
            Dataset(np.ones((2, 2)), np.array([0, 0]), "x", 1)
