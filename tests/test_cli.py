import json
import re
import subprocess
import sys

import numpy as np
import pytest

import povmtree
from povmtree import (
    ParseError,
    QuantumState,
    apply_freedom,
    cli,
    compile_tree,
    complete_to_unitary,
    default_kraus,
    dilate_binary,
    direct_probabilities,
    psd_sqrt,
    split_node,
    tetrad,
    validate,
)
from povmtree.cli import main
from povmtree.cost import compare
from povmtree.io import encode_matrix, load_povm, load_tree, save_povm, save_state, save_tree

from conftest import read_tree_file, write_tree_file


@pytest.fixture
def tetrad_file(tmp_path):
    path = tmp_path / "tetrad.povm.json"
    save_povm(tetrad(), path)
    return str(path)


@pytest.fixture
def triple_file(tmp_path):
    third = np.eye(2) / 3
    path = tmp_path / "triple.povm.json"
    save_povm(validate([third, third, third]), path)
    return str(path)


class TestValidateCommand:
    def test_valid_povm(self, tetrad_file, capsys):
        assert main(["validate", tetrad_file]) == 0
        out = capsys.readouterr().out
        assert "valid" in out and "completeness residual" in out

    def test_prints_the_residuals_of_the_stored_matrices(self, tetrad_file, capsys):
        # 5e-10 more on the imaginary part of element 0's entry (0, 1), within TOL_CHECK
        with open(tetrad_file) as handle:
            data = json.load(handle)
        data["elements"][0][0][1][1] += 5e-10
        with open(tetrad_file, "w") as handle:
            json.dump(data, handle)
        assert main(["validate", tetrad_file]) == 0
        out = capsys.readouterr().out
        assert "element '0': hermiticity residual 7.071e-10" in out
        assert "element '1': hermiticity residual 0.000e+00" in out
        assert "|sum - I|_F = 5.000e-10" in out

    def test_incomplete_sum(self, tmp_path, capsys):
        path = tmp_path / "bad.povm.json"
        path.write_text(
            json.dumps(
                {
                    "dimension": 2,
                    "elements": [encode_matrix(np.eye(2)), encode_matrix(np.eye(2))],
                }
            )
        )
        assert main(["validate", str(path)]) == 1
        assert "sum" in capsys.readouterr().err

    def test_huge_entry_is_out_of_range(self, tmp_path, capsys):
        # rejected before anything is squared, so no overflow warning escapes
        path = tmp_path / "huge.povm.json"
        huge = np.diag([1e200, 0.0])
        path.write_text(json.dumps({"dimension": 2,
                                    "elements": [encode_matrix(huge), encode_matrix(np.eye(2))]}))
        assert main(["validate", str(path)]) == 1
        assert "element 0: has an entry of modulus above 2" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", [5, "a", {"0": "a"}])
    def test_labels_that_are_not_a_list_are_a_parse_error(self, tmp_path, capsys, labels):
        path = tmp_path / "labels.povm.json"
        path.write_text(json.dumps({"dimension": 1, "elements": [encode_matrix(np.eye(1))],
                                    "labels": labels}))
        assert main(["validate", str(path)]) == 2
        assert "(field 'labels')" in capsys.readouterr().err

    def test_labels_null_or_a_list_of_any_entries(self, tmp_path, capsys):
        # entries are turned into labels by str(), as before
        path = tmp_path / "labels.povm.json"
        for labels, shown in ((None, "'0'"), ([7], "'7'")):
            path.write_text(json.dumps({"dimension": 1, "elements": [encode_matrix(np.eye(1))],
                                        "labels": labels}))
            assert main(["validate", str(path)]) == 0
            assert f"element {shown}:" in capsys.readouterr().out

    def test_file_of_another_format_is_a_parse_error(self, tetrad_file, capsys):
        with open(tetrad_file, encoding="utf-8") as handle:
            data = json.load(handle)
        with open(tetrad_file, "w", encoding="utf-8") as handle:
            json.dump(dict(data, format="povmtree/state-v1"), handle)
        assert main(["validate", tetrad_file]) == 2
        assert "(field 'format')" in capsys.readouterr().err

    def test_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"dimension": 2')
        assert main(["validate", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_bytes_that_are_not_utf8(self, tetrad_file, capsys):
        # a ParseError from the reader, no longer a UnicodeDecodeError that
        # only main's ValueError net turned into exit 2
        with open(tetrad_file, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff")
        capsys.readouterr()
        assert main(["validate", tetrad_file]) == 2
        assert capsys.readouterr().err.startswith("error: not UTF-8 text: byte 10")


class TestCompileCommand:
    def test_tetrad_with_grouping(self, tetrad_file, tmp_path, capsys):
        out_path = str(tmp_path / "tetrad.tree.json")
        code = main(["compile", tetrad_file, "--grouping", "0,3|1,2", "--out", out_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "operation counts" in out
        tree = load_tree(out_path)
        assert tuple(tree.order) == (0, 3, 1, 2)

    def test_padding_warning(self, triple_file, tmp_path, capsys):
        out_path = str(tmp_path / "triple.tree.json")
        assert main(["compile", triple_file, "--out", out_path]) == 0
        out = capsys.readouterr().out
        assert "note: 3 outcomes on a tree of 4 leaves, 1 of them padding" in out and "pad3" not in out
        assert "operation counts for N=3, d=2" in out
        assert load_tree(out_path).povm.n_outcomes == 3

    def test_invalid_grouping(self, tetrad_file, tmp_path):
        out_path = str(tmp_path / "x.tree.json")
        assert main(["compile", tetrad_file, "--grouping", "0,3|1", "--out", out_path]) == 2
        assert main(["compile", tetrad_file, "--grouping", "0,3|1,a", "--out", out_path]) == 2

    @pytest.mark.parametrize("grouping", ["0,3|1", "0,3|1,a"], ids=["short", "not-a-number"])
    def test_invalid_grouping_is_a_parse_error(self, grouping):
        with pytest.raises(ParseError) as err:
            cli._parse_grouping(grouping, 4)
        assert repr(grouping) in str(err.value)

    @pytest.mark.parametrize("stored", ["unpadded", "padded"])
    @pytest.mark.parametrize("grouping, code", [("2,0|1", 0), ("2,0|1,3", 2), ("3,0|1,2", 2)])
    def test_grouping_takes_what_compile_takes(self, triple_file, tmp_path, capsys, stored, grouping,
                                               code):
        # a permutation of the 3 outcomes; any other grouping, one naming a
        # padding leaf too, is a parse error (exit 2) before anything is
        # compiled.  A POVM file that stores zero padding, as older writers
        # did, is refused whatever the grouping
        path = tmp_path / "padded.povm.json"
        with open(triple_file, encoding="utf-8") as handle:
            data = json.load(handle)
        data["elements"].append([[[0.0, 0.0]] * 2] * 2)
        path.write_text(json.dumps(dict(data, n_original=3)))
        out = tmp_path / "triple.tree"
        if stored == "padded":
            assert main(["compile", str(path), "--grouping", grouping, "--out", str(out)]) == 2
            assert "field 'n_original'" in capsys.readouterr().err and not out.exists()
            return
        assert main(["compile", triple_file, "--grouping", grouping, "--out", str(out)]) == code
        if code:
            assert repr(grouping) in capsys.readouterr().err and not out.exists()
        else:
            assert tuple(load_tree(out).order) == (2, 0, 1)

    @pytest.mark.parametrize("elements", [[np.eye(1) / 2] * 2, [np.eye(4) / 2, np.eye(4) / 4, np.eye(4) / 4]],
                             ids=["d=1", "3 outcomes, d=4"])
    def test_cost_line_only_where_the_cost_model_applies(self, tmp_path, capsys, elements):
        # N = 3 outcomes on d = 4 compile as before; a cost request needs N >= d >= 2,
        # and d = 1 once ended compile with exit 2 before the tree was written
        path = tmp_path / "small.povm.json"
        save_povm(validate(elements), path)
        assert main(["compile", str(path), "--out", str(tmp_path / "small.tree")]) == 0
        assert "operation counts" not in capsys.readouterr().out
        assert load_tree(tmp_path / "small.tree").povm.n_outcomes == len(elements)

    @pytest.mark.parametrize("command", ["simulate"])
    def test_disagreement_with_direct_probabilities_exits_3(self, tetrad_file, tmp_path, monkeypatch, capsys,
                                                             command):
        # the table is printed; the deviation beyond _AGREEMENT is the failure
        tree = str(tmp_path / "tetrad.tree")
        assert main(["compile", tetrad_file, "--out", tree]) == 0
        capsys.readouterr()

        def off(povm, state):
            return direct_probabilities(povm, state) + np.r_[2 * cli._AGREEMENT, np.zeros(povm.n_outcomes - 1)]

        monkeypatch.setattr(cli, "direct_probabilities", off)
        assert main([command, tree]) == 3
        captured = capsys.readouterr()
        assert captured.err == "tree and direct probabilities disagree\n"
        assert "2.000e-08" in captured.out

    def test_runs_no_simulation(self, tetrad_file, tmp_path, monkeypatch, capsys):
        # verify's leaf residuals bound the tree-vs-direct deviation for every state
        def refuse(*args):
            raise AssertionError("compile ran the simulator")

        monkeypatch.setattr(cli, "propagate", refuse)
        monkeypatch.setattr(cli, "direct_probabilities", refuse)
        tree = tmp_path / "tetrad.tree"
        assert main(["compile", tetrad_file, "--grouping", "0,3|1,2", "--out", str(tree)]) == 0
        assert "cross-check" not in capsys.readouterr().out
        assert tuple(load_tree(tree).order) == (0, 3, 1, 2)

    def test_seed_is_a_usage_error(self, tetrad_file, tmp_path, capsys):
        tree = tmp_path / "tetrad.tree"
        with pytest.raises(SystemExit) as exit_info:
            main(["compile", tetrad_file, "--seed", "0", "--out", str(tree)])
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err and not tree.exists()

    def test_default_output_name(self, tetrad_file, tmp_path, capsys):
        assert main(["compile", tetrad_file]) == 0
        expected = tetrad_file.replace(".json", "") + ".tree"
        assert expected in capsys.readouterr().out


class TestSimulateCommand:
    @pytest.fixture
    def tetrad_tree(self, tetrad_file, tmp_path):
        out_path = str(tmp_path / "tetrad.tree")
        assert main(["compile", tetrad_file, "--grouping", "0,3|1,2", "--out", out_path]) == 0
        return out_path

    def test_state_file_that_is_not_utf8(self, tetrad_tree, tmp_path, capsys):
        path = tmp_path / "state.json"
        save_state(QuantumState.basis(2, 0), path)
        path.write_bytes(b"\xff" + path.read_bytes()[1:])
        capsys.readouterr()
        assert main(["simulate", tetrad_tree, "--state", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: not UTF-8 text: byte 0")

    def test_invalid_state_file(self, tetrad_tree, tmp_path, capsys):
        # exit 1 with the state's own check, as for an invalid POVM file
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 2, "density": encode_matrix(np.diag([1.5, -0.5]))}))
        capsys.readouterr()
        assert main(["simulate", tetrad_tree, "--state", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid: density matrix is not positive semidefinite") and "element" not in err

    def test_pure_state(self, tetrad_tree, capsys):
        assert main(["simulate", tetrad_tree, "--state", "pure:0"]) == 0
        out = capsys.readouterr().out
        assert "0.5000000000" in out and "0.1666666667" in out

    def test_basis_index_out_of_range_is_invalid(self, tetrad_tree, capsys):
        assert main(["simulate", tetrad_tree, "--state", "pure:9"]) == 1
        assert "invalid: basis index 9 not in 0..1" in capsys.readouterr().err

    def test_basis_index_that_is_not_an_integer_is_a_parse_error(self, tetrad_tree, capsys):
        # once a bare ValueError from int(), which main caught as any ValueError
        with pytest.raises(ParseError) as err:
            cli._parse_state("pure:x", 2)
        assert "'pure:x'" in str(err.value)
        capsys.readouterr()
        assert main(["simulate", tetrad_tree, "--state", "pure:x"]) == 2
        assert capsys.readouterr().err.startswith("error: invalid state spec 'pure:x': ")

    def test_state_with_negative_dust(self, tmp_path, capsys):
        # d = 12: diag(1 + 11 delta, -delta, ...), delta = 0.99e-9, is a valid
        # state; its tree and direct probabilities agree to rounding, where
        # cutting its negative eigenvalues would put them 1.09e-8 apart
        d, delta = 12, 0.99e-9
        tree, state = str(tmp_path / "dust.tree"), str(tmp_path / "dust.json")
        save_tree(compile_tree(validate([np.diag([0.5] + [0.0] * (d - 1)), np.diag([0.5] + [1.0] * (d - 1))])), tree)
        save_state(QuantumState(np.diag([1 + (d - 1) * delta] + [-delta] * (d - 1))), state)
        assert main(["simulate", tree, "--state", state]) == 0
        deviation = re.search(r"max tree-vs-direct deviation: (\S+)", capsys.readouterr().out)
        assert float(deviation.group(1)) <= 1e-15

    def test_maximally_mixed(self, tetrad_tree, capsys):
        assert main(["simulate", tetrad_tree]) == 0
        assert "0.2500000000" in capsys.readouterr().out

    def test_sampling_deterministic(self, tetrad_tree, capsys):
        args = ["simulate", tetrad_tree, "--shots", "20000", "--seed", "42"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "sigma" in first

    @pytest.mark.parametrize("flag, value", [("--shots", "-5"), ("--seed", "-1"), ("--seed", "x")])
    def test_bad_number_is_a_usage_error_naming_its_flag(self, tetrad_tree, flag, value, capsys):
        # refused while parsing, before the tree is read
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", tetrad_tree, flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: " in captured.err and captured.out == ""

    def test_tampered_tree_fails(self, tetrad_tree, tmp_path, capsys):
        header, order, (elements, root, kraus) = read_tree_file(tetrad_tree)
        # b of node "10": outcome 0 of the pair at node "1", in the level-1 blob
        kraus[1, 0, 0, 0] += 1e-3
        bad = tmp_path / "tampered.tree"
        write_tree_file(bad, header, order, [elements, root, kraus])
        capsys.readouterr()
        assert main(["simulate", str(bad), "--state", "pure:0"]) == 3
        assert capsys.readouterr().err.startswith("verification error: node '1': completeness")

    def test_a_trillion_shots(self, tetrad_tree, capsys):
        capsys.readouterr()
        assert main(["simulate", tetrad_tree, "--shots", "1000000000000"]) == 0
        out = capsys.readouterr().out
        assert "sampling: 1000000000000 shots, seed 0" in out
        assert sum(map(int, re.findall(r"count +(\d+)", out))) == 10**12

    def test_padded_tree_prints_one_row_an_outcome(self, tmp_path, capsys):
        # 13 rank-one outcomes on 16 leaves, regrouped: every outcome has a
        # row, reached, and no padding leaf has one
        path = tmp_path / "deficient.povm.json"
        save_povm(povmtree.random_povm(13, 4, np.random.default_rng(0), [1] * 13), path)
        tree = str(tmp_path / "deficient.tree")
        assert main(["validate", str(path)]) == 0
        assert main(["compile", str(path), "--grouping", "12,0,5,7|1,2,3,4|6,8|9,10,11", "--out", tree]) == 0
        # 9 of the 15 internal nodes have a rank-deficient parent
        assert "internal nodes checked : 15 (9 rank-deficient)" in capsys.readouterr().out
        assert main(["simulate", tree, "--state", "pure:3"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if "  path " in line]
        assert [row.split()[0] for row in rows] == [str(j) for j in range(13)]
        assert "pad" not in out and "[unreached]" not in out
        assert main(["simulate", tree, "--state", "pure:3", "--shots", "100000"]) == 0
        assert out in capsys.readouterr().out


class TestCostCommand:
    def test_table(self, capsys):
        assert main(["cost", "1024", "2"]) == 0
        out = capsys.readouterr().out
        assert "523776" in out and "3066" in out and "60" in out

    def test_average_and_crossover(self, capsys):
        assert main(["cost", "16", "2", "--average", "--crossover"]) == 0
        out = capsys.readouterr().out
        assert "average 21" in out and "cheapest from N" in out

    def test_invalid(self, capsys):
        assert main(["cost", "2", "3"]) == 2


class TestExampleTetrad:
    def test_emits_files_and_values(self, tmp_path, capsys):
        out_dir = tmp_path / "demo"
        assert main(["example-tetrad", "--out", str(out_dir)]) == 0
        povm = load_povm(out_dir / "tetrad.povm.json")
        m03 = povm.elements[0] + povm.elements[3]
        assert m03[0, 1] == pytest.approx(1 / (3 * np.sqrt(2)), abs=1e-12)
        tree = load_tree(out_dir / "tetrad.tree")
        # leaf i is outcome order[i], reached by b_(i % 2) of the pair at node i // 2
        second = {j: tree.pairs(1)[i // 2, i % 2] for i, j in enumerate(tree.order)}
        b1 = second[1]
        expected = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
        assert np.linalg.norm(b1.conj().T @ b1 - expected) <= 1e-9
        b0 = second[0]
        b3 = second[3]
        closure = b0.conj().T @ b0 + b3.conj().T @ b3 - np.eye(2)
        assert np.linalg.norm(closure) <= 1e-12
        text = (out_dir / "walkthrough.txt").read_text()
        assert "B1" in text and "eigenvalues" in text
        # no sign of zero, which would flip with last-bit rounding of the Kraus pairs
        assert not re.search(r"-0\.(?!\d)", text) and "-0.j" not in text

    def test_writes_the_same_bytes_twice(self, tmp_path, capsys):
        # the example is deterministic: a second run writes the same walkthrough and tree
        for out_dir in ("first", "second"):
            assert main(["example-tetrad", "--out", str(tmp_path / out_dir)]) == 0
        for name in ("walkthrough.txt", "tetrad.tree", "tetrad.povm.json"):
            assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()


# Every exported error class, the exit code the cli docstring gives its kind
# (1 validation failure, 2 parse or usage error, 3 verification failure) and
# the keyword fields to raise it with.
EXIT_CODES = {
    "PovmTreeError": (1, {}),
    "ValidationError": (1, {"what": "hermiticity", "residual": 0.1, "index": 0}),
    "ParseError": (2, {"field": "elements"}),
    "VerificationError": (3, {"what": "completeness", "residual": 0.1, "path": "0"}),
}
PREFIXES = {1: "invalid: ", 2: "error: ", 3: "verification error: "}


def _swapped_tree_file(tmp_path):
    """A tetrad tree file whose outcomes 1 and 2 are swapped, so two leaves fail."""
    path = tmp_path / "swapped.tree"
    save_tree(compile_tree(tetrad(), partition=[0, 3, 1, 2]), path)
    header, order, (elements, *kraus) = read_tree_file(path)
    write_tree_file(path, header, order, [elements[[0, 2, 1, 3]], *kraus])
    return path


# Each kind of error that had a class of its own before the error classes
# were merged into one per exit code, by that class's name: a call that
# fails with it, and the class, ``what`` and exit code it fails with now.
# The exit code is the one that class had.
FORMER_CLASSES = {
    "NotSquareError": (lambda tmp: psd_sqrt(np.zeros((2, 3))), "ValidationError", "shape", 1),
    "NotHermitianError": (lambda tmp: validate([np.eye(2) / 2, [[0.0, 1.0], [0.0, 0.0]]]),
                          "ValidationError", "hermiticity", 1),
    "NotPsdError": (lambda tmp: validate([np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])]),
                    "ValidationError", "positivity", 1),
    "NotUnitaryError": (lambda tmp: apply_freedom(default_kraus(tetrad()), [2 * np.eye(2)] * 4),
                        "ValidationError", "unitarity", 1),
    "IncompleteSumError": (lambda tmp: validate([np.eye(2), np.eye(2)]),
                           "ValidationError", "completeness", 1),
    "DimensionMismatchError": (lambda tmp: validate([np.eye(2), np.eye(3)]),
                               "ValidationError", "shape", 1),
    "InvalidStateError": (lambda tmp: QuantumState(np.eye(2)), "ValidationError", "trace", 1),
    "InvalidDimensionsError": (lambda tmp: compare(1, 2), "ParseError", "dimensions", 2),
    "NotIsometryError": (lambda tmp: complete_to_unitary([[1.0], [1.0]]),
                         "VerificationError", "completeness", 3),
    "InconsistentChildrenError": (lambda tmp: split_node((np.eye(2), np.eye(2)), np.eye(2)),
                                  "VerificationError", "children sum", 3),
    # the children sum to the parent within TOL_CHECK, but the pair's completeness
    # residual is 0.05: the parent's small singular value amplifies the mismatch
    "CompletenessViolationError": (
        lambda tmp: split_node((np.diag([1 / np.sqrt(2), np.sqrt(1e-8 / 2 + 5e-10)]),
                                np.diag([1 / np.sqrt(2), 1e-4 / np.sqrt(2)])), np.diag([1, 1e-4])),
        "VerificationError", "completeness", 3),
    "TreeVerificationError": (lambda tmp: load_tree(_swapped_tree_file(tmp)),
                              "VerificationError", "leaf reconstruction", 3),
    "NotCompleteError": (lambda tmp: dilate_binary(np.stack([np.eye(2), np.eye(2)])),
                         "VerificationError", "completeness", 3),
}


def _raising(name, fields):
    def call(tmp):
        raise getattr(povmtree, name)("failed", **fields)
    return call


# every case as (call that fails, class, what, exit code)
CASES = {name: (_raising(name, fields), name, fields.get("what"), code)
         for name, (code, fields) in EXIT_CODES.items()} | FORMER_CLASSES


class TestExitCodes:
    def test_every_exported_error_is_listed(self):
        exported = {
            name for name in povmtree.__all__
            if isinstance(getattr(povmtree, name), type)
            and issubclass(getattr(povmtree, name), povmtree.PovmTreeError)
        }
        assert exported == set(EXIT_CODES)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exit_code(self, name, monkeypatch, capsys, tmp_path):
        fail, cls, what, code = CASES[name]
        with pytest.raises(povmtree.PovmTreeError) as err:
            fail(tmp_path)
        assert type(err.value) is getattr(povmtree, cls)
        assert err.value.what == what
        assert err.value.exit_code == code

        def raising(parsed):
            fail(tmp_path)

        monkeypatch.setattr(cli, "cmd_cost", raising)
        assert main(["cost", "4", "2"]) == code
        assert capsys.readouterr().err == f"{PREFIXES[code]}{err.value}\n"

    @pytest.mark.parametrize("error, code", [(OSError("disk full"), 2), (ValueError("a bug"), None)],
                             ids=["OSError", "ValueError"])
    def test_only_package_errors_and_os_errors_are_caught(self, error, code, monkeypatch, capsys):
        def raising(parsed):
            raise error

        monkeypatch.setattr(cli, "cmd_cost", raising)
        if code is None:  # any other exception is a bug: it is raised, not reported as an exit code
            with pytest.raises(type(error)):
                main(["cost", "4", "2"])
        else:
            assert main(["cost", "4", "2"]) == code
            assert capsys.readouterr().err == f"error: {error}\n"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "povmtree", "cost", "16", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "42" in proc.stdout
