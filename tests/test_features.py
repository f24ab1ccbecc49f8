import warnings

import numpy as np
import pytest

from suffmdp.features import (
    ACTIVATIONS,
    ConcatFeatureMap,
    CoordinateFeatureMap,
    IdentityFeatureMap,
    LinearFeatureMap,
    NetworkFeatureMap,
    TruncatedGFeatureMap,
    feature_map_from_jsonable,
    mlp_forward,
)
from suffmdp.rng import substream


def random_network(seed=0, input_dim=5, widths=(4, 3), activation="sigmoid",
                   input_indices=None, full_dim=None):
    rng = substream(seed)
    layers = []
    prev = input_dim
    for w in widths:
        layers.append((rng.normal(size=(w, prev)), rng.normal(size=w)))
        prev = w
    return NetworkFeatureMap(layers, activation=activation,
                             input_indices=input_indices, input_dim=full_dim)


sigmoid = ACTIVATIONS["sigmoid"][0]


class TestSigmoid:
    @pytest.mark.parametrize("scale", [0.01, 0.1, 1.0, 10.0, 100.0, 300.0])
    def test_within_four_ulp_of_expit(self, scale):
        from scipy.special import expit  # the reference only

        z = substream(int(scale * 100)).standard_normal(20_000) * scale
        want = expit(z)
        assert (np.abs(sigmoid(z) - want) <= 4 * np.spacing(want)).all()

    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(np.array([-1000.0, -710.0, 710.0, 1000.0]))
        assert out[0] == 0.0 and out[-1] == 1.0
        assert out.tolist() == sorted(out.tolist())

    def test_elementwise_independent_of_position(self):
        # the stacked Q-network bootstrap applies it to several rows at once
        rng = substream(7)
        parts = [rng.standard_normal(n) * 20 for n in (1, 3, 10, 17)]
        whole = sigmoid(np.concatenate(parts))
        assert whole.tobytes() == np.concatenate([sigmoid(p) for p in parts]).tobytes()
        grid = np.concatenate(parts)[None, :].repeat(3, axis=0)
        assert (sigmoid(grid) == whole).all()


class TestNetworkMap:
    def test_output_in_unit_interval(self):
        fm = random_network()
        x = substream(1).normal(size=(20, 5)) * 10
        out = fm.transform(x)
        assert out.shape == (20, 3)
        assert np.all((out > 0) & (out < 1))

    def test_input_indices_select_columns(self):
        fm = random_network(input_indices=[2, 4, 6, 1, 0], full_dim=8)
        x = substream(2).normal(size=(7, 8))
        direct = random_network().transform(x[:, [2, 4, 6, 1, 0]])
        assert np.allclose(fm.transform(x), direct)

    def test_arctan_activation(self):
        fm = random_network(activation="arctan")
        out = fm.transform(substream(3).normal(size=(10, 5)))
        assert np.all((out > 0) & (out < 1))

    def test_index_count_must_match_first_layer(self):
        with pytest.raises(ValueError):
            random_network(input_indices=[0, 1], full_dim=8)


def test_mlp_one_dimensional_last_weight_gives_one_value_per_row():
    rng = substream(8)
    w1, b1, w2 = rng.normal(size=(3, 2)), rng.normal(size=3), rng.normal(size=3)
    x = rng.normal(size=(5, 2))
    out = mlp_forward(x, [(w1, b1), (w2, 0.5)], affine_last=True)
    assert out.shape == (5,)
    hidden = 1.0 / (1.0 + np.exp(-(x @ w1.T + b1)))
    assert np.allclose(out, hidden @ w2 + 0.5)
    assert np.allclose(mlp_forward(x[0], [(w1, b1), (w2, 0.5)], affine_last=True), out[0])


class TestOtherMaps:
    def test_identity(self):
        x = substream(4).normal(size=(6, 3))
        assert np.array_equal(IdentityFeatureMap(3).transform(x), x)

    def test_coordinates(self):
        x = substream(5).normal(size=(6, 4))
        fm = CoordinateFeatureMap(4, [3, 0])
        assert np.array_equal(fm.transform(x), x[:, [3, 0]])
        with pytest.raises(ValueError):
            CoordinateFeatureMap(4, [4])

    def test_linear(self):
        w = np.array([[1.0, 0.0], [1.0, 1.0]])
        fm = LinearFeatureMap(w, offset=np.array([0.0, -1.0]))
        out = fm.transform(np.array([[2.0, 3.0]]))
        assert np.array_equal(out, [[2.0, 4.0]])

    def test_concat(self):
        x = substream(6).normal(size=(5, 4))
        fm = ConcatFeatureMap([IdentityFeatureMap(4), CoordinateFeatureMap(4, [0])])
        assert fm.dim == 5
        assert np.array_equal(fm.transform(x)[:, :4], x)

    def test_truncated_g(self):
        fm = TruncatedGFeatureMap("quad", 6)
        out = fm.transform(np.array([[1.0, 2.0, 2.0, 2.0, 9.0, 9.0]]))
        assert np.array_equal(out, [[1.0, 3.0, 6.0]])


class TestSerialization:
    @pytest.mark.parametrize(
        "fm",
        [
            IdentityFeatureMap(4),
            CoordinateFeatureMap(5, [1, 3]),
            LinearFeatureMap(np.array([[0.5, -1.0]]), np.array([0.25])),
            random_network(),
            random_network(input_indices=[0, 2, 3, 5, 7], full_dim=9),
            TruncatedGFeatureMap("exp", 8),
            ConcatFeatureMap([IdentityFeatureMap(3), CoordinateFeatureMap(3, [2])]),
        ],
    )
    def test_json_round_trip(self, fm):
        rng = substream(7)
        loaded = feature_map_from_jsonable(fm.to_jsonable())
        if isinstance(fm, LinearFeatureMap):
            dim_in = fm.weights.shape[1]
        elif isinstance(fm, ConcatFeatureMap):
            dim_in = 3
        else:
            dim_in = fm.input_dim
        x = rng.normal(size=(4, dim_in))
        assert loaded.dim == fm.dim
        assert np.allclose(loaded.transform(x), fm.transform(x))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            feature_map_from_jsonable({"kind": "mystery"})
