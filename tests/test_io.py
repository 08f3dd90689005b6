import json
import math

import numpy as np
import pytest

from povmtree import (
    ParseError,
    QuantumState,
    TreeVerificationError,
    compile_tree,
    node_path,
    random_density,
    random_rank_one_povm,
    tetrad,
)
from povmtree.io import (
    decode_array,
    decode_matrix,
    encode_array,
    encode_matrix,
    load_povm,
    load_state,
    load_tree,
    povm_from_dict,
    save_povm,
    save_state,
    save_tree,
    state_from_dict,
    tree_from_dict,
    tree_to_dict,
)


class TestMatrixCodec:
    def test_round_trip_bit_exact(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        again = decode_matrix(json.loads(json.dumps(encode_matrix(m))), "m")
        assert np.array_equal(m, again)

    def test_rejects_ragged(self):
        with pytest.raises(ParseError):
            decode_matrix([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], "m")

    def test_rejects_scalar_entries(self):
        with pytest.raises(ParseError) as err:
            decode_matrix([[1.0, 2.0]], "m")
        assert "real, imaginary" in str(err.value)


class TestPovmFiles:
    def test_round_trip(self, tmp_path, tetrad_povm):
        path = tmp_path / "tetrad.povm.json"
        save_povm(tetrad_povm, path)
        again = load_povm(path)
        assert again.dim == 2 and again.labels == tetrad_povm.labels
        assert again.n_original == tetrad_povm.n_original
        for a, b in zip(again.elements, tetrad_povm.elements):
            assert np.array_equal(a, b)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"dimension": 2}))
        with pytest.raises(ParseError) as err:
            load_povm(path)
        assert err.value.field == "elements"

    def test_invalid_json_names_location(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"dimension": 2, "elements": [[[')
        with pytest.raises(ParseError) as err:
            load_povm(path)
        assert "line" in str(err.value)

    def test_element_shape_check(self, tmp_path):
        path = tmp_path / "shape.json"
        payload = {
            "dimension": 2,
            "elements": [[[[1.0, 0.0]]]],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_povm(path)


class TestUntrustedPovmAndStateFiles:
    """Malformed POVM and state records raise ParseError naming the field."""

    @pytest.mark.parametrize(
        "loader, data, field",
        [
            (povm_from_dict, {"dimension": "x"}, "dimension"),
            (povm_from_dict, {"dimension": 1, "elements": [[[["a", 0]]]]}, "elements[0]"),
            (state_from_dict,
             {"dimension": 2, "density": [[[float("nan"), 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [1.0, 0.0]]]},
             "density"),
            (state_from_dict, {"dimension": 2, "density": encode_matrix(np.zeros((2, 2)))},
             "density"),
        ],
        ids=["dimension-not-integer", "entry-not-number", "nan-density", "zero-trace-density"],
    )
    def test_parse_error_names_field(self, loader, data, field):
        with pytest.raises(ParseError) as err:
            loader(data)
        assert err.value.field == field


class TestStateFiles:
    def test_round_trip(self, tmp_path, rng):
        state = random_density(3, rng)
        path = tmp_path / "state.json"
        save_state(state, path)
        again = load_state(path)
        assert np.array_equal(state.density, again.density)

    def test_dimension_check(self):
        with pytest.raises(ParseError):
            state_from_dict({"dimension": 3, "density": encode_matrix(np.eye(2) / 2)})


class TestTreeFiles:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        p = random_rank_one_povm(5, 3, rng)
        tree = compile_tree(p)
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        again = load_tree(path)
        assert again.depth == tree.depth
        assert again.split_coefficients == tree.split_coefficients
        assert again.tolerances == tree.tolerances
        assert again.order == tree.order
        assert len(again.kraus) == len(tree.kraus)
        for level in range(tree.depth):
            assert np.array_equal(tree.kraus[level], again.kraus[level])
        for level in range(tree.depth + 1):
            assert np.array_equal(tree.cumulative_kraus(level), again.cumulative_kraus(level))
            assert np.array_equal(
                tree.cumulative_operators(level), again.cumulative_operators(level)
            )
        for level in range(tree.depth):
            for index in range(1 << level):
                path_key = node_path(level, index)
                assert np.array_equal(
                    tree.dilation(path_key).unitary, again.dilation(path_key).unitary
                )

    def test_loaded_tree_simulates_identically(self, tmp_path, tetrad_povm):
        from povmtree import propagate, sample

        tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        path = tmp_path / "tetrad.tree.json"
        save_tree(tree, path)
        again = load_tree(path)
        state = QuantumState.basis(2, 0)
        a = [o.probability for o in propagate(tree, state)]
        b = [o.probability for o in propagate(again, state)]
        assert a == b
        assert sample(tree, state, 1000, seed=1) == sample(again, state, 1000, seed=1)

    def test_missing_kraus_level(self, tetrad_povm):
        tree = compile_tree(tetrad_povm)
        data = tree_to_dict(tree)
        data["kraus"] = data["kraus"][:1]
        with pytest.raises(ParseError):
            tree_from_dict(data)

    def test_missing_tolerances(self, tetrad_povm):
        data = tree_to_dict(compile_tree(tetrad_povm))
        del data["tolerances"]
        with pytest.raises(ParseError) as err:
            tree_from_dict(data)
        assert err.value.field == "tolerances"


class TestTamperedTreeFiles:
    """A tree file is untrusted input: every tampering is a typed error."""

    @pytest.fixture
    def data(self, tetrad_povm):
        return tree_to_dict(compile_tree(tetrad_povm, partition=[0, 3, 1, 2]))

    def test_depth_must_match_outcomes(self, data, tmp_path):
        # with depth 3 a tetrad tree once loaded and sampled (200000, 0, 0, 0) on |0>
        data["depth"] = 3
        path = tmp_path / "deep.tree.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "depth"

    def test_outcome_out_of_range(self, data):
        data["order"][1] = 7
        with pytest.raises(ParseError) as err:
            tree_from_dict(data)
        assert err.value.field == "order"

    @pytest.mark.parametrize("cut", [3, 8])
    def test_truncated_blob(self, data, cut):
        # cut 3 breaks the base64 padding, cut 8 leaves valid base64 that is too short
        data["kraus"][1] = data["kraus"][1][:-cut]
        with pytest.raises(ParseError) as err:
            tree_from_dict(data)
        assert err.value.field == "kraus[1]"

    def test_nan_entry(self, data):
        elements = decode_array(data["elements"], (4, 2, 2), "elements").copy()
        elements[2, 1, 0] = complex("nan")
        data["elements"] = encode_array(elements)
        with pytest.raises(ParseError) as err:
            tree_from_dict(data)
        assert err.value.field == "elements"

    def test_v1_file_is_not_read(self, tmp_path):
        identity = encode_matrix(np.eye(2))
        v1 = {
            "format": "povmtree/tree-v1",
            "dimension": 2,
            "n_outcomes": 1,
            "depth": 0,
            "split_coefficients": [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]],
            "tolerances": {"tol_rank": 1e-10, "tol_check": 1e-9, "tol_unitary": 1e-10},
            "povm": {"format": "povmtree/povm-v1", "dimension": 2, "elements": [identity]},
            "nodes": [{"path": "", "outcome_set": [0], "cumulative_kraus": identity,
                       "cumulative_operator": identity, "node_kraus": None, "dilation": None}],
        }
        path = tmp_path / "old.tree.json"
        path.write_text(json.dumps(v1))
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "format"
        assert "povmtree/tree-v2" in str(err.value)

    def test_swapped_elements_fail_verification(self, data):
        # outcomes 1 and 2 share the parent "1", so only the leaves disagree
        elements = decode_array(data["elements"], (4, 2, 2), "elements")[[0, 2, 1, 3]]
        data["elements"] = encode_array(elements)
        with pytest.raises(TreeVerificationError) as err:
            tree_from_dict(data)
        assert err.value.path == "10"

    def test_file_holds_independent_data_only(self, tmp_path):
        d, n = 32, 64
        tree = compile_tree(random_rank_one_povm(n, d, np.random.default_rng(5)))
        path = tmp_path / "large.tree.json"
        save_tree(tree, path)
        # base64 of N POVM elements and N - 1 Kraus pairs, plus the header
        assert path.stat().st_size <= 4 * math.ceil(16 * (3 * n - 2) * d * d / 3) + 4096
