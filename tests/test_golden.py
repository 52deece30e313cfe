"""Golden outputs: sha256 pins of the files `hfon run` writes for every built-in.

A refactor that claims "same behaviour" proves it here: the trajectory CSV
and the summary JSON of each built-in must stay byte-identical.  The
example1 and example2 pins equal the ones the benchmark checks (stride 1
for example1, stride 10 for example2).  If a pin ever has to change,
CHANGES.md must say why.
"""

import hashlib

import pytest

from hfon import builtin_scenarios
from hfon.cli import main

# name -> (stride, trajectory CSV sha256, summary JSON sha256)
GOLDEN = {
    "example1-local": (
        1,
        "0bd166cad4d0a2550ce7af3cebe1bf386f52dd5c8ad8a405279e019ff6157e29",
        "3a62de939e415878958eb2f1ceb402af538282e603faba805e3a8317e5f195e9",
    ),
    "example1-leader": (
        1,
        "c4fc29777d463984fabdfe4c9e6d53ef65a218ed3aa2e95d751fcf8e44f99750",
        "50758f92e90fc6a1ab4ea3652c860ebbbafac0d7c9a9bda1712c9392823e9f99",
    ),
    "example2-3level-local": (
        10,
        "0328bcf36def552d9d7f459e49ebc274ef391b2b1bb104c5b18996e598f78142",
        "4ecffdefd7412fe62388efca331305e7fd8ce48e8b0e5caf39984e2a7dedfe73",
    ),
    "example2-3level-leader": (
        10,
        "e4ed08de6c64e1da3bfe2e5fc49e40b818a9631538f64f22cdf14dc1cc0c9153",
        "be6ffd08e47c85101e54db89651cb7c58cd871a90c04631b540be254dff57ed6",
    ),
    "example2-4level-local": (
        10,
        "b30e7ec41ef3c0c0ec66b23e6583338815cfd10a3aef460146a89e35ca6c24ef",
        "b85c444d9f8f6da43100440f2a663b3e5170931517099b4307d7275c21b3d984",
    ),
    "example2-4level-leader": (
        10,
        "48f7456984e2597e444e8d7cedd16b5f42718629b7267e5c055c76430cb31eeb",
        "16d484ebbaac3551315b1b91fffdcf8f91bac637c0e745530deb7fbc13d43aee",
    ),
    "example3": (
        1,
        "d6e9674e22fbec5388adbc50ca17f438e66599c8a232ad3be434c4b561f6d338",
        "788e55bb0709675d24759880b578c5cdf8aa46df05a4fe86cfcaccb14b85d784",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_builtin_is_pinned():
    assert sorted(GOLDEN) == sorted(builtin_scenarios())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_outputs_match_pins(name, tmp_path, capsys):
    stride, csv_sha, json_sha = GOLDEN[name]
    assert main(["run", name, "--out", str(tmp_path), "--stride", str(stride)]) == 0
    assert _sha256(tmp_path / f"{name}.trajectory.csv") == csv_sha
    assert _sha256(tmp_path / f"{name}.summary.json") == json_sha
