"""Golden outputs: sha256 digests of exact record bytes and verify stdout.

The digests pin the bytes the commands write, so a refactor of the check
drivers cannot reorder, drop or reformat a record or a summary line
without failing here.  A deliberate output change re-captures them.
"""

import hashlib
import json

import pytest

from fqlab.cli import main

ALL_CHECKS_CONFIG = {
    "grid": [{"primes": [3, 7], "dims": [2]}, {"primes": [3], "dims": [3]}],
    "generators": ["all", "random:1t"],
    "seeds": [1, 2],
    "checks": ["spectrum", "variance", "mixing", "hinge", "main", "remark"],
}

VERIFY_ARGV = ["verify", "--q", "7", "--dim", "3", "--trials", "3", "--seed", "5"]

RECORD_DIGESTS = [
    (["sweep", "--default", "--jobs", "1"],
     "2e05b39fa1538f6307c692beacdac33112006eb54ee9c659be239669b7c228ce"),
    (["sweep", "--default", "--jobs", "1", "--format", "csv"],
     "f0c4ca9a02bf56413ef52ce0b7efd5b6243aea380a83125566080172a341ef7f"),
    (VERIFY_ARGV,
     "da6654641dbae69c09110b300b21e8b4b07201f925feaf0d6ae02324519c1e19"),
    (["spectrum", "--q", "7", "--dim", "2"],
     "12ee16aecdbc0b69c11d008bd8d55042de2f28d89126ee0999b5c5ce5ebb57a5"),
    (["fcount", "--q", "7", "--dim", "3", "--gen", "random:1t", "--seed", "2"],
     "b58d8b571f8533ca580fd52445c0af4395b51c6615730f48b00fb0b387e67a7d"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "argv,digest", RECORD_DIGESTS,
    ids=["sweep-default", "sweep-default-csv", "verify", "spectrum", "fcount"],
)
def test_record_bytes(argv, digest, tmp_path):
    out = tmp_path / "records"
    assert main([*argv, "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == digest


def test_all_checks_sweep_record_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ALL_CHECKS_CONFIG))
    out = tmp_path / "records.jsonl"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
    assert _sha256(out.read_bytes()) == (
        "231dd6746d5c47ab0bd1109fb916a1e94fb59bb476eb7185a2570b6496a0f844"
    )


def test_verify_stdout_bytes(capsys):
    assert main(VERIFY_ARGV) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == (
        "ad86068329c99d590079d1a7b71598bd87d0830c06966860d7d12229eb524d5a"
    )
