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
    assert arrays["tree_file.0"].dtype == np.uint8  # the file's bytes, not their count
    # one Kraus word whose real part is -0.0 in the old run and +0.0 in the new: equal values, other bits
    word = complex(-0.0, arrays["kraus.0"].flat[0].imag)
    arrays["kraus.0"].flat[0] = word
    np.savez(old, **arrays)
    arrays["kraus.0"].flat[0] = complex(0.0, word.imag)
    moved = arrays["propagate.3"].size
    arrays["propagate.3"] = arrays["propagate.3"] + 2.0**-40  # one probability vector moved, exactly
    arrays["tree_file.0"][0] += 7  # one file's first byte 7 higher, its length kept
    missing = arrays.pop("post_states.1").size  # and one post-state missing
    np.savez(new, **arrays)
    digest.main(["--diff", str(old), str(old)])
    digest.main(["--diff", str(old), str(new)])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    same = {kind: tuple(rest) for kind, *rest in lines[: len(digest.KINDS)]}
    changed = {kind: tuple(rest) for kind, *rest in lines[len(digest.KINDS) :]}
    assert list(same) == list(changed) == list(digest.KINDS)
    assert set(same.values()) == {("0.000e+00", "0")}
    assert changed.pop("kraus") == ("0.000e+00", "1")
    assert changed.pop("propagate") == (f"{2.0**-40:.3e}", str(moved))
    assert changed.pop("tree_file") == ("7.000e+00", "1")
    assert changed.pop("post_states") == ("inf", str(missing))
    assert set(changed.values()) == {("0.000e+00", "0")}
