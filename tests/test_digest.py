"""The bit-identity digest script, tests/digest.py, on its quick grid."""

import hashlib
import re

import numpy as np

import digest


def test_quick_digest_prints_one_sha256_per_kind(capsys):
    digest.main(["--quick"])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [kind for kind, _ in lines] == list(digest.KINDS)
    assert all(re.fullmatch("[0-9a-f]{64}", value) for _, value in lines)
    # every kind hashed some output
    assert hashlib.sha256().hexdigest() not in {value for _, value in lines}


def test_saved_values_compare_per_kind(tmp_path, capsys):
    old, new = tmp_path / "old.npz", tmp_path / "new.npz"
    digest.main(["--quick", "--save", str(old)])
    with np.load(old) as saved:
        arrays = dict(saved)
    assert {name.rsplit(".", 1)[0] for name in arrays} == set(digest.KINDS)
    arrays["propagate.3"] = arrays["propagate.3"] + 2.0**-40  # one probability vector moved, exactly
    arrays["tree_file.0"] = arrays["tree_file.0"] + 7  # one file 7 bytes longer
    del arrays["post_states.1"]  # and one post-state missing
    np.savez(new, **arrays)
    digest.main(["--diff", str(old), str(old)])
    digest.main(["--diff", str(old), str(new)])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    same, moved = dict(lines[: len(digest.KINDS)]), dict(lines[len(digest.KINDS) :])
    assert list(same) == list(moved) == list(digest.KINDS)
    assert set(same.values()) == {"0.000e+00"}
    assert moved.pop("propagate") == f"{2.0**-40:.3e}"
    assert (moved.pop("tree_file"), moved.pop("post_states")) == ("7.000e+00", "inf")
    assert set(moved.values()) == {"0.000e+00"}
