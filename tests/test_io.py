import base64
import dataclasses
import gc
import json
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from povmtree import (
    ParseError,
    QuantumState,
    ValidationError,
    VerificationError,
    compile_tree,
    node_path,
    psd_sqrt,
    random_density,
    random_povm,
    random_rank_one_povm,
    tetrad,
    validate,
    verify,
)
from povmtree import io as treeio
from povmtree.cli import main
from povmtree.io import (
    decode_matrix,
    encode_matrix,
    load_povm,
    load_state,
    load_tree,
    povm_from_dict,
    save_povm,
    save_state,
    save_tree,
    state_from_dict,
)

from conftest import (all_pairs, deflate, hermitian_parameters, read_tree_file, stored_pairs, stored_words, with_pairs,
                      words, write_tree_file)


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
        assert again.n_outcomes == tetrad_povm.n_outcomes and "n_original" not in json.loads(path.read_text())
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

    @pytest.mark.parametrize("n_original", [9, 2])
    def test_n_original_marks_only_zero_padding(self, tmp_path, tetrad_povm, n_original):
        # an n_original is what older writers stored, the element count;
        # 9 exceeds the four elements, and 2 would mark two of them padding
        path = tmp_path / "tetrad.povm.json"
        save_povm(tetrad_povm, path)
        data = json.loads(path.read_text())
        path.write_text(json.dumps(dict(data, n_original=4)))
        assert load_povm(path).params.tobytes() == tetrad_povm.params.tobytes()
        path.write_text(json.dumps(dict(data, n_original=n_original)))
        with pytest.raises(ParseError) as err:
            load_povm(path)
        assert err.value.field == "n_original"

    def test_old_padded_file_is_refused(self, tmp_path, capsys):
        # a povm-v1 file written with zero padding: 5 elements, n_original 3,
        # caller labels padded with pad<j>; the message says how to mend it
        p = validate(random_rank_one_povm(3, 2, np.random.default_rng(3)).elements, ["a", "b", "c"])
        path = tmp_path / "old.povm.json"
        data = treeio.povm_to_dict(p)
        data["elements"] += [encode_matrix(np.zeros((2, 2)))] * 2
        data.update(labels=["a", "b", "c", "pad3", "pad4"], n_original=3)
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError) as err:
            load_povm(path)
        assert err.value.field == "n_original" and "delete its zero elements" in str(err.value)
        assert main(["validate", str(path)]) == 2
        assert "field 'n_original'" in capsys.readouterr().err
        # without the padding it is the file save_povm writes
        del data["n_original"]
        data["elements"], data["labels"] = data["elements"][:3], data["labels"][:3]
        path.write_text(json.dumps(data))
        assert load_povm(path).params.tobytes() == p.params.tobytes()

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
            (povm_from_dict, {"dimension": 1, "elements": []}, "elements"),
            (povm_from_dict, {"dimension": 1, "elements": {"0": [[[1.0, 0.0]]]}}, "elements"),
            (povm_from_dict, {"dimension": 1, "elements": [[]]}, "elements[0]"),
            (povm_from_dict, {"dimension": 1, "elements": [{}]}, "elements[0]"),
            (povm_from_dict, {"format": "povmtree/state-v1"}, "format"),
            (povm_from_dict, {"format": "povmtree/povm-v9"}, "format"),
            (state_from_dict, {"format": "povmtree/povm-v1"}, "format"),
            (state_from_dict, {"format": "povmtree/state-v9"}, "format"),
        ],
        ids=["dimension-not-integer", "entry-not-number", "nan-density", "no-elements", "elements-not-a-list",
             "element-no-rows", "element-not-a-list", "state-format-read-as-povm", "povm-v9", "povm-format-read-as-state",
             "state-v9"],
    )
    def test_parse_error_names_field(self, loader, data, field):
        with pytest.raises(ParseError) as err:
            loader(data)
        assert err.value.field == field

    def test_an_invalid_density_is_a_validation_error(self):
        # the state's own check, not a parse error: exit 1, as for an invalid POVM
        with pytest.raises(ValidationError) as err:
            state_from_dict({"dimension": 2, "density": encode_matrix(np.zeros((2, 2)))})
        assert err.value.what == "trace" and err.value.field is None

    @pytest.mark.parametrize("loader", [load_povm, load_state])
    def test_top_level_value_must_be_an_object(self, tmp_path, loader):
        path = tmp_path / "file.json"
        path.write_text("[1]")
        with pytest.raises(ParseError) as err:
            loader(path)
        assert "must be an object" in str(err.value)

    @pytest.mark.parametrize("loader", [load_povm, load_state])
    def test_bytes_that_are_not_utf8(self, tmp_path, tetrad_povm, loader):
        # one \xff byte once raised a bare UnicodeDecodeError
        path = tmp_path / "file.json"
        if loader is load_povm:
            save_povm(tetrad_povm, path)
        else:
            save_state(QuantumState.basis(2, 0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:10] + b"\xff" + raw[11:])
        with pytest.raises(ParseError) as err:
            loader(path)
        assert "not UTF-8" in str(err.value) and "byte 10" in str(err.value)


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
        assert np.array_equal(again.order, tree.order)
        assert len(all_pairs(again)) == len(all_pairs(tree))
        for level in range(tree.depth):
            assert np.array_equal(tree.pairs(level), again.pairs(level))
        for level in range(tree.depth + 1):
            assert np.array_equal(tree.cumulative_kraus(level), again.cumulative_kraus(level))
            assert np.array_equal(
                tree.cumulative_operators(level), again.cumulative_operators(level)
            )
        for level in range(tree.depth):
            for index in range(1 << level):
                path_key = node_path(level, index)
                if index < len(tree.pairs(level)):  # a held pair
                    assert np.array_equal(tree.dilation(path_key), again.dilation(path_key))
                else:  # an all-padding node has no pair
                    for t in (tree, again):
                        with pytest.raises(KeyError):
                            t.dilation(path_key)

    def test_round_trip_keeps_the_parameters(self, tmp_path):
        tree = compile_tree(random_povm(5, 3, np.random.default_rng(5)))  # padded to 8
        path = tmp_path / "tree.tree"
        save_tree(tree, path)
        params = load_tree(path).povm.params
        assert params.dtype == float and not params.flags.writeable
        assert params.tobytes() == tree.povm.params.tobytes()

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

    def test_missing_kraus_level(self, tmp_path, tetrad_povm):
        path = tmp_path / "tetrad.tree"
        save_tree(compile_tree(tetrad_povm), path)
        header, order, arrays = read_tree_file(path)
        write_tree_file(path, header, order, arrays[:-1])
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "kraus[1]"

    # The header is pinned byte for byte; the arrays are compared with the
    # tree's own, since their low bits can differ between LAPACK builds, and
    # the stream decoded, since its bytes can differ between zlib builds.
    TETRAD_HEADER = b'{"format":"povmtree/tree-v13","dimension":2,"n_original":4}'
    PADDED_HEADER = b'{"format":"povmtree/tree-v13","dimension":2,"n_original":5}'
    TETRAD_ORDER = (0, 3, 1, 2)
    PADDED_ORDER = tuple(range(5))

    @pytest.mark.parametrize("which", ["tetrad", "padded"])
    def test_file_layout(self, tmp_path, tetrad_povm, which):
        if which == "tetrad":
            tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
            header, order = self.TETRAD_HEADER, self.TETRAD_ORDER
        else:
            tree = compile_tree(random_rank_one_povm(5, 2, np.random.default_rng(5)))
            header, order = self.PADDED_HEADER, self.PADDED_ORDER
        path = tmp_path / "layout.tree"
        save_tree(tree, path)
        # the order, one byte an outcome; then the float64 words of the
        # elements and of the pairs of nodes with a real leaf (at (2, 5) all
        # but the last pair of the last level), each pair above the last
        # level as its blocks' d^2 real parameters, b0's then b1's, laid out
        # as an element's: the low seven bytes of each word, then a raw deflate stream of
        # their top bytes that ends the file
        # the tree holds each level's pairs of nodes with a real leaf, as the file stores them
        assert [len(level) for level in all_pairs(tree)] == stored_pairs(tree.depth, tree.povm.n_outcomes)
        stored = words([hermitian_parameters(tree.povm.elements), *all_pairs(tree)])
        assert stored.tobytes() == b"".join(a.tobytes() for a in (tree.povm.params, *tree.levels))  # as held
        head = header + b"\n" + bytes(order) + stored[:, :7].tobytes()
        raw = path.read_bytes()
        assert raw[:len(head)] == head
        inflate = zlib.decompressobj(wbits=-9)
        assert inflate.decompress(raw[len(head):]) == stored[:, 7].tobytes()
        assert inflate.eof and not inflate.unused_data

    @pytest.mark.parametrize("d, n", [(2, 4), (2, 5), (3, 7), (32, 64), (16, 64)],
                             ids=["tetrad", "padded-2-5", "padded-3-7", "32-64", "16-64"])
    def test_file_size(self, tmp_path, tetrad_povm, d, n):
        # per element one byte of order (N <= 256) and d^2 float64 words;
        # per node with a real leaf above the last level 2 d^2, its blocks'
        # real parameters, and on the last level 4 d^2: at (2, 5) 3
        # pairs above and 3 of the 4 on the last level, at (3, 7) 3 and 4; a
        # padding leaf costs nothing.  Seven bytes of each word are raw, and
        # the stream after them holds one byte a word
        p = tetrad_povm if n == 4 else random_rank_one_povm(n, d, np.random.default_rng([d, n]))
        tree = compile_tree(p)
        path = tmp_path / "size.tree"
        save_tree(tree, path)
        with open(path, "rb") as handle:
            header = len(handle.readline())
        above, last = {4: (1, 2), 5: (3, 3), 7: (3, 4), 64: (31, 32)}[n]
        assert stored_pairs(tree.depth, n)[-1] == last and sum(stored_pairs(tree.depth, n)) == above + last
        count = d * d * n + 2 * d * d * above + 4 * d * d * last
        assert count == stored_words(d, n)
        inflate = zlib.decompressobj(wbits=-9)
        stream = path.read_bytes()[header + n + 7 * count:]
        assert len(inflate.decompress(stream)) == count and inflate.eof and not inflate.unused_data
        assert path.stat().st_size == header + n + 7 * count + len(stream)

    @pytest.mark.parametrize("depth, width", [(8, 1), (9, 2), (16, 2), (17, 4)])
    def test_order_width(self, depth, width):
        # the narrowest of 1, 2, 4 or 8 bytes that holds the largest entry,
        # n - 1, at the least and the most outcomes of a depth
        for n in ((1 << depth - 1) + 1, 1 << depth):
            assert treeio._blobs(1, n)[0] == ("order", (n,), np.dtype(f"<u{width}"))

    @pytest.mark.parametrize("held", ["complex", "pairs", "float32"])
    def test_a_tree_holds_only_the_words_its_file_stores(self, held):
        # 13 outcomes of d = 3: levels 0 to 2 hold their blocks' d^2 real
        # parameters, level 3 its blocks' complex entries as floats.  A level
        # as complex words, as (K, 2, d, d) pairs or as float32 words could
        # hold a word the file does not store, or round one: each is refused,
        # naming the level
        tree = compile_tree(random_rank_one_povm(13, 3, np.random.default_rng(13)))
        assert [level.shape for level in tree.levels] == [(1, 2, 9), (2, 2, 9), (4, 2, 9), (7, 2, 18)]
        for level in range(tree.depth):
            levels = list(tree.levels)
            levels[level] = {"complex": lambda a: a.astype(complex),
                             "pairs": lambda a: np.ascontiguousarray(tree.pairs(level).real),
                             "float32": lambda a: a.astype(np.float32)}[held](levels[level])
            with pytest.raises(ValidationError) as err:
                dataclasses.replace(tree, levels=tuple(levels))
            assert err.value.what == "shape" and f"level {level} must be a float64 array" in str(err.value)

    @pytest.mark.parametrize("chunk", [1, 5, 12, 100])
    def test_runs_of_any_length_write_and_read_the_same_bytes(self, tmp_path, monkeypatch, chunk):
        # the words are copied _CHUNK at a time: the file and the loaded tree
        # do not depend on how they are cut
        tree = compile_tree(random_povm(13, 3, np.random.default_rng(3)), partition=np.arange(13)[::-1])
        save_tree(tree, tmp_path / "default.tree")
        monkeypatch.setattr(treeio, "_CHUNK", chunk)
        save_tree(tree, tmp_path / "cut.tree")
        assert (tmp_path / "cut.tree").read_bytes() == (tmp_path / "default.tree").read_bytes()
        again = load_tree(tmp_path / "cut.tree")
        assert [a.tobytes() for a in again.levels] == [a.tobytes() for a in tree.levels]

    @pytest.mark.parametrize("n", [256, 257])
    def test_round_trip_across_the_first_width_boundary(self, tmp_path, n):
        # at d = 1, 256 outcomes fill depth 8, one byte an order entry; 257
        # take depth 9, two bytes an entry, and store no padding
        rng = np.random.default_rng(n)
        tree = compile_tree(random_povm(n, 1, rng), partition=rng.permutation(n))
        path = tmp_path / "wide.tree"
        save_tree(tree, path)
        width = 1 if n == 256 else 2
        with open(path, "rb") as handle:
            handle.readline()
            stored = np.frombuffer(handle.read(width * n), dtype=f"<u{width}")
        assert np.array_equal(stored, tree.order) and not np.array_equal(stored, np.arange(n))
        again = load_tree(path)
        assert again.order.dtype == np.intp and not again.order.flags.writeable
        assert again.order.tobytes() == tree.order.tobytes()
        assert again.povm.params.tobytes() == tree.povm.params.tobytes()
        assert [a.tobytes() for a in all_pairs(again)] == [a.tobytes() for a in all_pairs(tree)]
        save_tree(again, tmp_path / "again.tree")
        assert (tmp_path / "again.tree").read_bytes() == path.read_bytes()

    def test_padding_past_the_least_power_of_two_is_not_saved(self, tmp_path):
        # one outcome makes a tree of no level, and saves as such.  A tree
        # padded further, which a file could not describe, cannot be built
        p = validate([np.eye(2)])
        tree = compile_tree(p)
        assert (tree.depth, tree.povm.n_outcomes) == (0, 1)
        save_tree(tree, tmp_path / "one.tree")
        assert load_tree(tmp_path / "one.tree").povm.params.tobytes() == p.params.tobytes()
        deeper = compile_tree(validate([np.eye(2) / 2] * 2)).levels * 2  # two levels of one pair
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(tree, levels=deeper)
        assert err.value.what == "shape"

    @pytest.mark.parametrize("given", [False, True])
    def test_labels_are_stored_only_when_given(self, tmp_path, given):
        labels = ["a", "b", "c"] if given else None
        p = validate(random_rank_one_povm(3, 2, np.random.default_rng(3)).elements, labels)
        tree = compile_tree(p)
        path = tmp_path / "labels.tree"
        save_tree(tree, path)
        header = read_tree_file(path)[0]
        assert ("labels" in header) is given
        again = load_tree(path)
        # one label an outcome: the padding leaf has none
        assert header.get("labels") == (["a", "b", "c"] if given else None)
        expected = ("a", "b", "c") if given else ("0", "1", "2")
        assert tuple(again.povm.labels) == tuple(tree.povm.labels) == expected
        assert again.povm.labels == expected and hash(again.povm.labels) == hash(expected)
        assert isinstance(again.povm.labels, tuple) is given

    @pytest.mark.parametrize("given", [False, True])
    def test_povm_file_labels_are_stored_only_when_given(self, tmp_path, given):
        labels = ["a", "b", "c"] if given else None
        p = validate(random_rank_one_povm(3, 2, np.random.default_rng(3)).elements, labels)
        path = tmp_path / "labels.povm.json"
        save_povm(p, path)
        assert ("labels" in json.loads(path.read_text())) is given
        again = load_povm(path)
        expected = ("a", "b", "c") if given else ("0", "1", "2")
        assert again.labels == p.labels == expected and again.n_outcomes == 3
        assert isinstance(again.labels, tuple) is given
        # so a tree compiled from the file stores labels exactly when they were given
        save_tree(compile_tree(again), tmp_path / "labels.tree")
        assert ("labels" in read_tree_file(tmp_path / "labels.tree")[0]) is given


class TestTamperedTreeFiles:
    """A tree file is untrusted input: every tampering is a typed error."""

    @pytest.fixture
    def parts(self, tetrad_povm, tmp_path):
        path = tmp_path / "tetrad.tree"
        save_tree(compile_tree(tetrad_povm, partition=[0, 3, 1, 2]), path)
        return read_tree_file(path)

    @staticmethod
    def refused(path):
        """The ``ParseError`` loading ``path`` raises, and the ``tracemalloc`` peak on the way."""
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                load_tree(path)
            return err.value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_depth_must_match_outcomes(self, parts, tmp_path):
        # with depth 3 a tetrad tree once loaded and sampled (200000, 0, 0, 0)
        # on |0>; tree-v13 stores no depth but derives it from n_original, so a
        # "depth" in the header is ignored as any unknown key is, and an
        # n_original whose order, a byte or more an outcome, cannot fit in the
        # file is refused before any array is allocated
        header, order, arrays = parts
        path = tmp_path / "deep.tree"
        write_tree_file(path, dict(header, depth=3), order, arrays)
        assert load_tree(path).depth == 2
        write_tree_file(path, dict(header, n_original=1 << 40), order, arrays)
        err, peak = self.refused(path)
        assert err.field == "n_original" and f"{1 << 40} outcomes" in str(err)
        assert peak <= 64 * 1024

    @pytest.mark.parametrize("n_original, field", [(10 ** 9, "n_original"), (1 << 62, "n_original"),
                                                   (64, "elements"), (7, "kraus[2]")],
                             ids=["1000000000", "4611686018427387904", "64", "7"])
    def test_depth_is_bounded_by_the_file(self, parts, tmp_path, n_original, field):
        # the tetrad's arrays under another n_original: an order of more
        # entries than the file has bytes is refused before any array is
        # allocated; one that fits (64 or 7 bytes) leaves a blob past the
        # file's end to be refused, the 64 elements and, for 7 outcomes at
        # depth 3, the last Kraus level's 4 of 4 stored pairs (what remains
        # of the tetrad's file after the claimed first two levels' parameters,
        # stream included, is too short to hold their raw bytes)
        header, order, arrays = parts
        path = tmp_path / "deep.tree"
        write_tree_file(path, dict(header, n_original=n_original), order, arrays)
        err, peak = self.refused(path)
        assert err.field == field
        assert peak <= 64 * 1024

    def test_outcome_out_of_range(self, parts, tmp_path):
        header, order, arrays = parts
        order[1] = 7
        path = tmp_path / "order.tree"
        write_tree_file(path, header, order, arrays)
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "order"

    @pytest.mark.parametrize("index, value", [(1, 0), (3, -1), (0, 4), (2, -(1 << 63))],
                             ids=["duplicate", "negative", "out-of-range", "most-negative"])
    def test_order_blob_must_be_a_permutation(self, parts, tmp_path, index, value):
        # entries are unsigned bytes here: -1 is written as 255, -(1 << 63) as 0
        header, order, arrays = parts
        order[index] = value
        path = tmp_path / "order.tree"
        write_tree_file(path, header, order, arrays)
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "order"

    @pytest.mark.parametrize("labels", [["a", "b", "c"], ["a", "b", "c", "d", "e"],
                                        ["a", "b", "c", 3], "abcd"],
                             ids=["short", "long", "not-a-string", "not-a-list"])
    def test_labels_must_be_one_string_per_outcome(self, parts, tmp_path, labels):
        header, order, arrays = parts
        path = tmp_path / "labels.tree"
        write_tree_file(path, dict(header, labels=labels), order, arrays)
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "labels"

    @pytest.mark.parametrize("cut, field", [(3, "kraus[1]"), (8, "kraus[1]"), (259, "kraus[0]"),
                                            (387, "elements"), (451, "order"), (483, "header"),
                                            (515, "header")],
                             ids=["3", "8", "259", "387", "451", "483", "515"])
    def test_truncated_blob(self, parts, tmp_path, cut, field):
        # the tetrad's blobs hold order 4, elements 128, kraus[0] 64 (the
        # root's blocks' parameters) and kraus[1] 256 bytes of words, of
        # which the file stores 7 of each 8 raw: 112, 56 and 224.  The
        # stream and cut - cut // 8 raw bytes go, as much of the words as
        # cut bytes of them: cut 3 leaves a partial word, cut 8 one word
        # less, cut 451 1 byte of order, and cuts 483 and 515, 423 and 451
        # raw bytes, 27 and 55 bytes of the 62-byte header line as well
        path = tmp_path / "cut.tree"
        write_tree_file(path, *parts)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - len(deflate(words(parts[2])[:, 7])) - (cut - cut // 8)])
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == field

    def test_n_original_marks_only_zero_padding(self, parts, tmp_path):
        # n_original 3 would make outcome 3, not zero, padding.  The header
        # then claims 3 order bytes and element rows of the 4 the file
        # holds, and the stream is read from 29 bytes before it starts
        header, order, arrays = parts
        path = tmp_path / "padding.tree"
        write_tree_file(path, dict(header, n_original=3), order, arrays)
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "stream"
        # with the entry and row dropped the file's sizes agree; the
        # tetrad's order less its last entry holds 3, out of range, and
        # with [0, 1, 2] the tree no longer sums to its elements
        elements, *kraus = arrays
        write_tree_file(path, dict(header, n_original=3), order[:3], [elements[:3], *kraus])
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "order"
        write_tree_file(path, dict(header, n_original=3), [0, 1, 2], [elements[:3], *kraus])
        with pytest.raises(VerificationError) as err:
            load_tree(path)
        assert (err.value.what, err.value.path) == ("operator sum", "")
        # the tree's size follows n_original: 5 or 2 make it 8 or 2 leaves.
        # At 5 the last level's 3 stored pairs cannot fit in the file; at 2
        # the order is 2 bytes and one Kraus level is stored, so raw bytes
        # are read as the stream
        for n_original, field in [(5, "kraus[2]"), (2, "stream")]:
            write_tree_file(path, dict(header, n_original=n_original), order, arrays)
            with pytest.raises(ParseError) as err:
                load_tree(path)
            assert err.value.field == field

    def test_repeated_order_entry(self, tmp_path):
        # 13 outcomes on 16 leaves: entry 12, outcome 11 in index order, set
        # to 0 repeats an outcome and leaves 11 out, which no padding tail
        # could hide.  The file's sizes agree, so only the order check sees it
        path = tmp_path / "repeated.tree"
        save_tree(compile_tree(random_rank_one_povm(13, 2, np.random.default_rng(13))), path)
        header, order, arrays = read_tree_file(path)
        assert len(order) == 13
        order[12] = 0
        write_tree_file(path, header, order, arrays)
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "order" and "0..12" in str(err.value)
        assert main(["simulate", str(path)]) == 2

    def test_elements_must_sum_to_the_identity(self, tmp_path):
        # leaf 2 is outcome order[2]'s and leaf 3 padding, both below node "1".
        # Scaling that pair's b0 by c, with b1 the root of I - b0^dag b0, keeps
        # the pair complete, and scaling the element by c^2 keeps its leaf
        # reconstructed; only the unchecked padding leaf takes up the rest.
        # So every pair and every real leaf passes, and only the root's
        # operator sum sees that the stored elements no longer sum to I
        tree = compile_tree(random_povm(3, 2, np.random.default_rng(7)))
        c = np.cos(0.3)
        level = tree.pairs(1).copy()
        level[1, 0] *= c
        level[1, 1] = psd_sqrt(np.eye(2) - level[1, 0].conj().T @ level[1, 0])
        params = tree.povm.params.copy()
        params[tree.order[2]] *= c**2
        povm = dataclasses.replace(tree.povm, params=params)
        path = tmp_path / "short.tree"
        save_tree(dataclasses.replace(with_pairs(tree, 1, level), povm=povm), path)
        with pytest.raises(VerificationError) as err:
            load_tree(path)
        assert (err.value.what, err.value.path) == ("operator sum", "")
        assert err.value.residual == pytest.approx(np.linalg.norm(povm.elements.sum(axis=0) - np.eye(2)))
        assert err.value.residual == pytest.approx(0.0714, abs=1e-4)

    def test_nan_entry(self, parts, tmp_path):
        header, order, (elements, *kraus) = parts
        elements[2, 2] = float("nan")  # the real part of element 2's entry (0, 1)
        path = tmp_path / "nan.tree"
        write_tree_file(path, header, order, [elements, *kraus])
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "elements"

    @pytest.mark.parametrize("blob, scale", [("kraus[0]", 1e100), ("kraus[0]", 1e200),
                                             ("elements", 1e200)])
    def test_huge_entry(self, tmp_path, blob, scale):
        # finite entries this large once overflowed in verify, which warned
        # (4, 12 and 4 times) before it raised
        path = tmp_path / "huge.tree"
        save_tree(compile_tree(random_rank_one_povm(8, 2, np.random.default_rng(5))), path)
        header, order, (elements, *kraus) = read_tree_file(path)
        if blob == "elements":
            elements[3] *= scale
        else:
            kraus[0][0] *= scale  # the root's pair
        write_tree_file(path, header, order, [elements, *kraus])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as err:
                load_tree(path)
        assert err.value.field == blob

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
        assert treeio.TREE_FORMAT in str(err.value)

    @pytest.mark.parametrize("version", ["tree-v3", "tree-v4", "tree-v5", "tree-v6"])
    def test_v3_file_is_not_read(self, tetrad_povm, tmp_path, version):
        # tree-v3 to tree-v6 had the order and labels as JSON lists in the
        # header and no order blob; tree-v3 to tree-v5 had the tolerances
        # after the depth, tree-v3 and tree-v4 the split coefficients before
        # them; then tree-v3 had every element's d^2 complex128 entries, and
        # tree-v4 to tree-v6 the elements' parameters, as tree-v7 has
        tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        path = tmp_path / "old.tree"
        save_tree(tree, path)
        header, order, arrays = read_tree_file(path)
        old = {}
        for key, value in header.items():
            old[key] = f"povmtree/{version}" if key == "format" else value
            if key == "dimension":
                old["depth"] = tree.depth
                if version in ("tree-v3", "tree-v4"):
                    old["split_coefficients"] = [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]]
                if version != "tree-v6":
                    old["tolerances"] = {"tol_rank": 1e-10, "tol_check": 1e-9,
                                         "tol_unitary": 1e-10}
                old["order"], old["labels"] = order.tolist(), list(tree.povm.labels)
        elements = tree.povm.elements if version == "tree-v3" else arrays[0]
        with open(path, "wb") as handle:
            handle.write(json.dumps(old).encode() + b"\n")
            for a in (elements, *all_pairs(tree)):
                handle.write(a.tobytes())
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "format"
        assert f"povmtree/{version}" in str(err.value)

    @staticmethod
    def write_int64_order_file(path, header, order, arrays):
        """A file of ``header``, then ``order`` as little-endian int64, then ``arrays`` as they are."""
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for a in (np.asarray(order, dtype="<i8"), *arrays):
                handle.write(a.tobytes())

    def test_v7_file_is_not_read(self, parts, tmp_path):
        # tree-v7 had n_outcomes in its header and stored padding, so for a
        # power-of-two N its arrays are tree-v8's; the file is still refused
        # by its format, naming the one to recompile to
        header, order, arrays = parts
        v7 = {"format": "povmtree/tree-v7", "dimension": 2, "n_outcomes": 4, "depth": 2,
              "n_original": 4}
        path = tmp_path / "old.tree"
        self.write_int64_order_file(path, v7, order, arrays)
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "format"
        assert "povmtree/tree-v7" in str(err.value) and treeio.TREE_FORMAT in str(err.value)

    def test_v8_file_is_not_read(self, parts, tmp_path):
        # tree-v8 had the depth in its header and int64 order entries; its
        # other arrays were tree-v9's, and the file is refused by its format
        header, order, arrays = parts
        v8 = {"format": "povmtree/tree-v8", "dimension": 2, "depth": 2, "n_original": 4}
        path = tmp_path / "old.tree"
        self.write_int64_order_file(path, v8, order, arrays)
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "format"
        assert "povmtree/tree-v8" in str(err.value) and treeio.TREE_FORMAT in str(err.value)

    def test_v9_file_is_not_read(self, parts, tmp_path):
        # tree-v9 stored each float64 word whole, with no stream, and every
        # pair whole; its header is tree-v13's, and the file is refused by
        # its format
        header, order, arrays = parts
        path = tmp_path / "old.tree"
        with open(path, "wb") as handle:
            handle.write(json.dumps(dict(header, format="povmtree/tree-v9")).encode() + b"\n")
            handle.write(order.astype("<u1").tobytes() + b"".join(a.tobytes() for a in arrays))
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "format"
        assert "povmtree/tree-v9" in str(err.value) and treeio.TREE_FORMAT in str(err.value)

    def test_v10_file_is_not_read(self, tmp_path, capsys):
        # tree-v10 stored the order's padding tail and, with caller labels,
        # pad<j> labels: for 3 outcomes on 4 leaves one more order byte and
        # label.  Its header is otherwise tree-v13's, its pairs are stored
        # whole as tree-v11's, and it is refused by its format, exit 2,
        # naming the version to recompile to
        p = validate(random_rank_one_povm(3, 2, np.random.default_rng(3)).elements, ["a", "b", "c"])
        path = tmp_path / "old.tree"
        save_tree(compile_tree(p), path)
        header, order, arrays = read_tree_file(path)
        with open(path, "wb") as handle:
            old = dict(header, format="povmtree/tree-v10", labels=[*header["labels"], "pad3"])
            handle.write(json.dumps(old, separators=(",", ":")).encode() + b"\n")
            stored = np.frombuffer(b"".join(a.tobytes() for a in arrays), dtype=np.uint8).reshape(-1, 8)
            handle.write(np.append(order, 3).astype("<u1").tobytes() + stored[:, :7].tobytes())
            handle.write(deflate(stored[:, 7]))
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "format"
        assert "povmtree/tree-v10" in str(err.value) and treeio.TREE_FORMAT in str(err.value)
        assert main(["simulate", str(path)]) == 2
        assert treeio.TREE_FORMAT in capsys.readouterr().err

    def test_v11_file_is_not_read(self, parts, tmp_path, capsys):
        # tree-v11 stored every pair whole, the zeros below the diagonals of
        # the pairs above the last level too: the tetrad's root pair in 16
        # words, not 8.  Its header is otherwise tree-v13's, and it is
        # refused by its format, exit 2, naming the version to recompile to
        header, order, arrays = parts
        path = tmp_path / "old.tree"
        stored = np.frombuffer(b"".join(a.tobytes() for a in arrays), dtype=np.uint8).reshape(-1, 8)
        assert len(stored) == len(words(arrays)) + 8
        with open(path, "wb") as handle:
            handle.write(json.dumps(dict(header, format="povmtree/tree-v11"), separators=(",", ":")).encode() + b"\n")
            handle.write(order.astype("<u1").tobytes() + stored[:, :7].tobytes() + deflate(stored[:, 7]))
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "format"
        assert "povmtree/tree-v11" in str(err.value) and treeio.TREE_FORMAT in str(err.value)
        assert main(["simulate", str(path)]) == 2
        assert treeio.TREE_FORMAT in capsys.readouterr().err

    def test_v12_file_is_not_read(self, parts, tmp_path, capsys):
        # tree-v12 stored a pair above the last level as its blocks' upper
        # triangles, the imaginary parts of their real diagonals too: the
        # tetrad's root pair in 12 words, not 8.  Its header is otherwise
        # tree-v13's, and it is refused by its format, exit 2, naming the
        # version to recompile to
        header, order, (elements, root, last) = parts
        rows, cols = np.triu_indices(2)
        old = (elements, np.ascontiguousarray(root[:, :, rows, cols]), last)
        stored = np.frombuffer(b"".join(a.tobytes() for a in old), dtype=np.uint8).reshape(-1, 8)
        assert len(stored) == len(words(parts[2])) + 4
        path = tmp_path / "old.tree"
        with open(path, "wb") as handle:
            handle.write(json.dumps(dict(header, format="povmtree/tree-v12"), separators=(",", ":")).encode() + b"\n")
            handle.write(order.astype("<u1").tobytes() + stored[:, :7].tobytes() + deflate(stored[:, 7]))
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "format"
        assert "povmtree/tree-v12" in str(err.value) and treeio.TREE_FORMAT in str(err.value)
        assert "POVM file" in str(err.value)
        assert main(["simulate", str(path)]) == 2
        assert treeio.TREE_FORMAT in capsys.readouterr().err

    @pytest.mark.parametrize("indent, field", [(None, "format"), (1, "header")], ids=["None", "1"])
    def test_v2_file_is_not_read(self, parts, tmp_path, indent, field):
        # tree-v2 was one JSON document with base64 blobs: on one line its
        # format is named, indented its first line is not a JSON object
        header, order, arrays = parts
        v2 = dict(header, format="povmtree/tree-v2",
                  elements=base64.b64encode(arrays[0].tobytes()).decode("ascii"),
                  kraus=[base64.b64encode(a.tobytes()).decode("ascii") for a in arrays[1:]])
        path = tmp_path / "old.tree.json"
        path.write_text(json.dumps(v2, indent=indent))
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == field

    def test_header_cannot_loosen_verification(self, tmp_path):
        # tree-v5 loaded this file and verify passed it, judged at the tolerances
        # its header declared; its probabilities then summed to 1.44
        path = tmp_path / "loose.tree"
        save_tree(compile_tree(random_rank_one_povm(8, 2, np.random.default_rng(5))), path)
        header, order, (elements, *kraus) = read_tree_file(path)
        kraus[0][0] *= 1.2  # the root's pair
        header["tolerances"] = {"tol_rank": 1e-10, "tol_check": 0.9, "tol_unitary": 0.9}
        write_tree_file(path, header, order, [elements, *kraus])
        with pytest.raises(VerificationError) as err:
            load_tree(path)
        assert err.value.what == "completeness"
        assert err.value.path == ""

    def test_swapped_elements_fail_verification(self, parts, tmp_path):
        # outcomes 1 and 2 share the parent "1", so only the leaves disagree
        header, order, (elements, *kraus) = parts
        path = tmp_path / "swapped.tree"
        write_tree_file(path, header, order, [elements[[0, 2, 1, 3]], *kraus])
        with pytest.raises(VerificationError) as err:
            load_tree(path)
        assert err.value.path == "10"
        assert err.value.what == "leaf reconstruction"

    def test_real_outcomes_swapped_across_the_root(self, parts, tmp_path):
        # leaves 0 and 2, below nodes "0" and "1", swapped: the order is still
        # a leaf order and every pair complete, but leaf "00", the first
        # walked, now stands for another element
        header, order, arrays = parts
        order[[0, 2]] = order[[2, 0]]
        path = tmp_path / "swapped.tree"
        write_tree_file(path, header, order, arrays)
        with pytest.raises(VerificationError) as err:
            load_tree(path)
        assert (err.value.what, err.value.path) == ("leaf reconstruction", "00")
        assert err.value.residual == pytest.approx(3 ** -0.5)

    @pytest.mark.parametrize("tail", [b"\0", b"\n", bytes(16)])
    def test_trailing_bytes(self, parts, tmp_path, tail):
        path = tmp_path / "long.tree"
        write_tree_file(path, *parts, tail=tail)
        err, peak = self.refused(path)
        assert err.field == "stream" and f"then {len(tail)} bytes follow" in str(err)
        assert peak <= 64 * 1024

    @pytest.mark.parametrize("kind", ["cut", "cut-last-byte", "short", "long", "corrupt", "zlib-wrapped"])
    def test_stream_must_decode_to_one_top_byte_a_word(self, parts, tmp_path, kind):
        # the stream holds the tetrad's 56 top bytes: it must decode to
        # exactly them and end the file, or the file is refused on "stream"
        header, order, arrays = parts
        top = words(arrays)[:, 7].tobytes()
        stream = {"cut": deflate(top)[:len(deflate(top)) // 2], "cut-last-byte": deflate(top)[:-1],
                  "short": deflate(top[:-1]), "long": deflate(top + b"\0"),
                  "corrupt": b"\xff" * 8,  # a final block of the reserved type 3
                  "zlib-wrapped": zlib.compress(top)}[kind]
        path = tmp_path / "stream.tree"
        write_tree_file(path, header, order, arrays, stream=stream)
        err, peak = self.refused(path)
        assert err.field == "stream"
        assert {"short": "decodes to 55, then", "long": "decodes to more,",
                "corrupt": "not a deflate stream"}.get(kind, "") in str(err)
        assert peak <= 64 * 1024

    def test_header_without_newline(self, parts, tmp_path):
        path = tmp_path / "header.tree"
        path.write_bytes(json.dumps(parts[0]).encode())
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "header"

    def test_header_line_is_bounded(self, parts, tmp_path, monkeypatch):
        header, order, arrays = parts
        path = tmp_path / "big.tree"
        write_tree_file(path, dict(header, note="x" * 200), order, arrays)
        load_tree(path)  # unknown header fields are ignored
        monkeypatch.setattr(treeio, "_HEADER_LIMIT", 200)
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "header"

    def test_header_claiming_huge_arrays(self, parts, tmp_path):
        # the byte count is checked before any array is allocated
        header, order, arrays = parts
        path = tmp_path / "huge.tree"
        write_tree_file(path, dict(header, dimension=1 << 40), order, arrays)
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "elements"

    def test_file_holds_independent_data_only(self, tmp_path):
        # the words of N POVM elements and N - 1 Kraus pairs, all of whose
        # entries lie within ENTRY_BOUND, so that their top bytes deflate to
        # about a fifth: the file takes at most 0.92 times tree-v9's header
        # + N + 8 d^2 N + 32 d^2 (N - 1) bytes, which stored the words whole
        rng = np.random.default_rng(5)
        path = tmp_path / "large.tree"
        for d, n, ranks in [(32, 64, rng.integers(1, 33, 64)), (2, 1024, None)]:
            save_tree(compile_tree(random_povm(n, d, rng, ranks=ranks)), path)
            with open(path, "rb") as handle:
                header = len(handle.readline())
            assert path.stat().st_size <= 0.92 * (header + n + 8 * d * d * n + 32 * d * d * (n - 1))


class TestTreeFileMemory:
    """The tree file is written and read without a second copy of its arrays."""

    @pytest.fixture(scope="class")
    def large(self):
        return compile_tree(random_rank_one_povm(64, 32, np.random.default_rng([32, 64])))

    @staticmethod
    def peak(fn):
        gc.collect()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_save_peak(self, large, tmp_path):
        assert self.peak(lambda: save_tree(large, tmp_path / "large.tree")) <= 256 * 1024

    def test_load_peak(self, large, tmp_path):
        path = tmp_path / "large.tree"
        save_tree(large, path)
        retained = large.povm.params.nbytes + sum(a.nbytes for a in large.levels)
        verify_peak = self.peak(lambda: verify(large))
        load_peak = self.peak(lambda: load_tree(path))
        assert load_peak <= retained + verify_peak + 256 * 1024
