import warnings

import numpy as np
import pytest

from suffmdp.features import (
    ConcatFeatureMap,
    CoordinateFeatureMap,
    LinearFeatureMap,
    NetworkFeatureMap,
    _sigmoid as sigmoid,
    feature_map_from_jsonable,
    mlp_forward,
)
from suffmdp.rng import substream
from suffmdp.simgen import TruncatedGFeatureMap


def random_network(seed=0, input_dim=5, widths=(4, 3), input_indices=None, full_dim=None):
    rng = substream(seed)
    layers = []
    prev = input_dim
    for w in widths:
        layers.append((rng.normal(size=(w, prev)), rng.normal(size=w)))
        prev = w
    return NetworkFeatureMap(layers, input_indices=input_indices, input_dim=full_dim)


def network_json(weights=((0.5, 1.0),), bias=(0.0,)):
    return {"kind": "network", "activation": "sigmoid", "input_dim": 2, "input_indices": None,
            "layers": [{"weights": weights, "bias": bias}]}


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

    def test_network_layer_computes_it_in_place_bit_for_bit(self):
        # mlp_forward runs the sigmoid's operations over the pre-activation
        x = substream(8).standard_normal((40, 3)) * np.array([1.0, 100.0, 800.0])
        w, b = substream(9).standard_normal((5, 3)), substream(10).standard_normal(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = mlp_forward(x, [(w, b)])
        assert out.tobytes() == sigmoid(x @ w.T + b).tobytes()
        assert 0.0 in out and 1.0 in out  # saturated without an overflow warning


class TestNetworkMap:
    def test_output_in_unit_interval(self):
        fm = random_network()
        x = substream(1).normal(size=(20, 5)) * 10
        out = fm.transform(x)
        assert out.shape == (20, 3)
        assert np.all((out > 0) & (out < 1))

    def test_input_indices_select_columns(self):
        fm = random_network(input_indices=np.array([2, 4, 6, 1, 0]), full_dim=8)
        x = substream(2).normal(size=(7, 8))
        direct = random_network().transform(x[:, [2, 4, 6, 1, 0]])
        assert np.allclose(fm.transform(x), direct)

    def test_index_count_must_match_first_layer(self):
        with pytest.raises(ValueError):
            random_network(input_indices=[0, 1], full_dim=8)

    @pytest.mark.parametrize("bad", [8, -1], ids=["past-input-dim", "negative"])
    def test_index_outside_input_dim_rejected(self, bad):
        with pytest.raises(ValueError, match=r"outside 0\.\.7"):
            random_network(input_indices=[0, 1, 2, 3, bad], full_dim=8)

    # int() would truncate 5.7 to column 5 and read True as column 1
    @pytest.mark.parametrize("bad", [5.7, True, {}], ids=["float", "bool", "object"])
    def test_index_not_integer_rejected(self, bad):
        with pytest.raises(ValueError, match="input_indices must be integers"):
            random_network(input_indices=[0, 2, 3, 4, bad], full_dim=8)

    @pytest.mark.parametrize("width", [5, 9])
    def test_state_width_must_be_input_dim(self, width):
        fm = random_network(input_indices=[2, 4, 6, 1, 0], full_dim=8)
        with pytest.raises(ValueError, match=f"states of 8 columns, got {width}"):
            fm.transform(np.zeros((3, width)))


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
    def test_coordinates(self):
        x = substream(5).normal(size=(6, 4))
        fm = CoordinateFeatureMap(4, [3, 0])
        assert np.array_equal(fm.transform(x), x[:, [3, 0]])
        assert np.array_equal(CoordinateFeatureMap(4, range(4)).transform(x), x)
        with pytest.raises(ValueError):
            CoordinateFeatureMap(4, [4])

    def test_linear(self):
        w = np.array([[1.0, 0.0], [1.0, 1.0]])
        fm = LinearFeatureMap(w, offset=np.array([0.0, -1.0]))
        out = fm.transform(np.array([[2.0, 3.0]]))
        assert np.array_equal(out, [[2.0, 4.0]])

    def test_concat(self):
        x = substream(6).normal(size=(5, 4))
        fm = ConcatFeatureMap([CoordinateFeatureMap(4, range(4)), CoordinateFeatureMap(4, [0])])
        assert fm.dim == 5
        assert np.array_equal(fm.transform(x)[:, :4], x)

    def test_truncated_g(self):
        fm = TruncatedGFeatureMap("quad", 6)
        out = fm.transform(np.array([[1.0, 2.0, 2.0, 2.0, 9.0, 9.0]]))
        assert np.array_equal(out, [[1.0, 3.0, 6.0]])


class TestSerialization:
    @pytest.mark.parametrize(
        "fm",
        [random_network(), random_network(input_indices=[0, 2, 3, 5, 7], full_dim=9)],
        ids=["network", "network-column-subset"])
    def test_json_round_trip(self, fm):
        loaded = feature_map_from_jsonable(fm.to_jsonable())
        x = substream(7).normal(size=(4, fm.input_dim))
        assert loaded.dim == fm.dim
        assert np.allclose(loaded.transform(x), fm.transform(x))

    # the JSON forms that the other maps used to write; no map but the
    # network is stored
    @pytest.mark.parametrize(
        "data",
        [{"kind": "identity", "input_dim": 4},
         {"kind": "coordinates", "input_dim": 5, "indices": [1, 3]},
         {"kind": "linear", "weights": [[0.5, -1.0]], "offset": [0.25]},
         {"kind": "oracle3", "g_kind": "exp", "input_dim": 8},
         {"kind": "concat", "parts": [{"kind": "identity", "input_dim": 3}]}],
        ids=["identity", "coordinates", "linear", "oracle3", "concat"])
    def test_stored_kind_must_be_network(self, data):
        with pytest.raises(ValueError, match=f"unknown feature map kind '{data['kind']}'"):
            feature_map_from_jsonable(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            feature_map_from_jsonable({"kind": "mystery"})

    @pytest.mark.parametrize(
        "data,message",
        [([network_json()], "feature map must be a JSON object, got"),
         ({"kind": ["network"]}, "unknown feature map kind"),
         ({"kind": "concat", "parts": 5}, "unknown feature map kind 'concat'"),
         ({"kind": "concat", "parts": [network_json(), "x"]}, "unknown feature map kind 'concat'"),
         (network_json(weights=5), "key 'weights' of network layer must be of type tuple"),
         (dict(network_json(), input_dim="2"),
          "key 'input_dim' of network feature map must be of type int"),
         (dict(network_json(), offset=[0.0]), "unknown key 'offset' for network feature map"),
         ({"kind": "linear", "weights": [[{}, 1.0]], "offset": [0.0]},
          "unknown feature map kind 'linear'"),
         ({"kind": "linear", "weights": [[0.5, -1.0]], "offset": ["0"]},
          "unknown feature map kind 'linear'"),
         (network_json(weights=[[{}, 1.0]]), "network layer weights must hold numbers only"),
         (network_json(bias=[None]), "network layer bias must hold numbers only"),
         (network_json(weights=[[0.5, 1.0], [0.5]]),
          "network layer weights must hold numbers only"),
         # numpy would read each true as 1.0
         (network_json(weights=[[0.5, True]]), "network layer weights must hold numbers only"),
         (network_json(weights=[[0.5, 1.0], [0.5, 1.0]], bias=[0.0, True]),
          "network layer bias must hold numbers only"),
         # json.load reads the tokens NaN and -Infinity
         (network_json(weights=[[0.5, float("nan")]]), "network layer weights must be finite"),
         (network_json(weights=[[0.5, 1.0], [0.5, 1.0]], bias=[0.0, float("-inf")]),
          "network layer bias must be finite")],
        ids=["list", "list-kind", "parts-number", "part-string", "weights-number",
             "input-dim-string", "unknown-key", "linear-weights-object",
             "linear-offset-string", "network-weights-object", "network-bias-null",
             "network-weights-ragged", "network-weights-bool", "network-bias-bool",
             "network-weights-nan", "network-bias-minus-infinity"])
    def test_wrong_json_kind_rejected(self, data, message):
        with pytest.raises(ValueError, match=message):
            feature_map_from_jsonable(data)

    def test_network_activation_other_than_sigmoid_rejected(self):
        # the networks apply the sigmoid only; an arctan map must not load as one
        data = random_network().to_jsonable()
        assert data["activation"] == "sigmoid"
        for bad in ("arctan", None):
            with pytest.raises(ValueError, match="activation must be 'sigmoid'"):
                feature_map_from_jsonable(dict(data, activation=bad))

    @pytest.mark.parametrize("key", ["layers", "activation"])
    def test_network_missing_key_named(self, key):
        data = random_network().to_jsonable()
        del data[key]
        with pytest.raises(ValueError, match=f"network feature map JSON has no key '{key}'"):
            feature_map_from_jsonable(data)

    def test_missing_key_in_network_layer_named(self):
        data = random_network().to_jsonable()
        del data["layers"][1]["bias"]
        with pytest.raises(ValueError, match="network feature map JSON has no key 'bias'"):
            feature_map_from_jsonable(data)
