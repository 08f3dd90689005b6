"""The bit-identity digest script, tests/digest.py, on its quick grid."""

import hashlib
import re

import digest


def test_quick_digest_prints_one_sha256_per_kind(capsys):
    digest.main(["--quick"])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [kind for kind, _ in lines] == list(digest.KINDS)
    assert all(re.fullmatch("[0-9a-f]{64}", value) for _, value in lines)
    # every kind hashed some output
    assert hashlib.sha256().hexdigest() not in {value for _, value in lines}
