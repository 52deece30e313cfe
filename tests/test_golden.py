"""Golden outputs: sha256 pins of the files `hfon run` writes for every built-in.

A refactor that claims "same behaviour" proves it here: the trajectory CSV
and the summary JSON of each built-in must stay byte-identical, and so must
what `hfon clusters` prints when it reads that CSV back.  The example1 and
example2 pins equal the ones the benchmark checks (stride 1 for example1,
stride 10 for example2).  A generated 1000-agent bottom-up run, where agents
merge layer by layer, is pinned too; its pins equal the benchmark's
`emergence-seed0`.  If a pin ever has to change, CHANGES.md must say why.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from hfon import builtin_scenarios
from hfon.cli import main

# name -> (stride, trajectory CSV sha256, summary JSON sha256, `clusters` stdout sha256)
GOLDEN = {
    "example1-local": (
        1,
        "0bd166cad4d0a2550ce7af3cebe1bf386f52dd5c8ad8a405279e019ff6157e29",
        "3a62de939e415878958eb2f1ceb402af538282e603faba805e3a8317e5f195e9",
        "aee03d346c79c9e172461e761a0f4354c8f2342f769b5c8fab77c4dbef905358",
    ),
    "example1-leader": (
        1,
        "c4fc29777d463984fabdfe4c9e6d53ef65a218ed3aa2e95d751fcf8e44f99750",
        "50758f92e90fc6a1ab4ea3652c860ebbbafac0d7c9a9bda1712c9392823e9f99",
        "7128bef7f8a4a50d590e6a8613c809ae2bc40248f461f8d0478a6ce86f5512d2",
    ),
    "example2-3level-local": (
        10,
        "0328bcf36def552d9d7f459e49ebc274ef391b2b1bb104c5b18996e598f78142",
        "4ecffdefd7412fe62388efca331305e7fd8ce48e8b0e5caf39984e2a7dedfe73",
        "dc196c12239f38158fd8538db6ba4dc825fd832cc314698ef20e7d30613c1633",
    ),
    "example2-3level-leader": (
        10,
        "e4ed08de6c64e1da3bfe2e5fc49e40b818a9631538f64f22cdf14dc1cc0c9153",
        "be6ffd08e47c85101e54db89651cb7c58cd871a90c04631b540be254dff57ed6",
        "dc196c12239f38158fd8538db6ba4dc825fd832cc314698ef20e7d30613c1633",
    ),
    "example2-4level-local": (
        10,
        "b30e7ec41ef3c0c0ec66b23e6583338815cfd10a3aef460146a89e35ca6c24ef",
        "b85c444d9f8f6da43100440f2a663b3e5170931517099b4307d7275c21b3d984",
        "5f3f724b85ebd17ec0bd38f9f309a4c2faad4d44a6e55fac3098bdf2bbb45524",
    ),
    "example2-4level-leader": (
        10,
        "48f7456984e2597e444e8d7cedd16b5f42718629b7267e5c055c76430cb31eeb",
        "16d484ebbaac3551315b1b91fffdcf8f91bac637c0e745530deb7fbc13d43aee",
        "5f3f724b85ebd17ec0bd38f9f309a4c2faad4d44a6e55fac3098bdf2bbb45524",
    ),
    "example3": (
        1,
        "d6e9674e22fbec5388adbc50ca17f438e66599c8a232ad3be434c4b561f6d338",
        "788e55bb0709675d24759880b578c5cdf8aa46df05a4fe86cfcaccb14b85d784",
        "ab3f913c1bca968b7e2f4db35778cb02b1429b40d4e1156fcc2db224dcbdd9e2",
    ),
}


# 1000 uniform agents on [5, 25], five falling thresholds of 40 steps each
EMERGENCE = {
    "schema_version": 1,
    "name": "emergence",
    "kind": "bottomup",
    "n": 1000,
    "b": 0.5,
    "phases": [{"d": d, "steps": 40} for d in (0.95, 0.7, 0.45, 0.2, 0.05)],
    "initial": {"centers": "uniform", "low": 5.0, "high": 25.0, "sigma": "uniform"},
    "seed": 0,
}
EMERGENCE_PINS = (
    10,
    "8f0943cf7dc781de9785ee910828ae2fd6f564f9d12294247d7301b0cee614b0",
    "4f35c731490084d3388829e4475d8c2f8fa1d9fb19de177a5a96ffdb46614b36",
    "bb955c4dcfc86c7055b7ddb8cd2b23115a6325d4374c9c3b73303ceacc20abb6",
)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _clusters_sha256(csv_path, capsys) -> str:
    """sha256 of what `hfon clusters` prints for the CSV (the default gap)."""
    capsys.readouterr()
    assert main(["clusters", str(csv_path)]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_builtin_is_pinned():
    assert sorted(GOLDEN) == sorted(builtin_scenarios())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_outputs_match_pins(name, tmp_path, capsys):
    stride, csv_sha, json_sha, clusters_sha = GOLDEN[name]
    assert main(["run", name, "--out", str(tmp_path), "--stride", str(stride)]) == 0
    assert _sha256(tmp_path / f"{name}.trajectory.csv") == csv_sha
    assert _sha256(tmp_path / f"{name}.summary.json") == json_sha
    assert _clusters_sha256(tmp_path / f"{name}.trajectory.csv", capsys) == clusters_sha


def test_emergence_outputs_match_pins(tmp_path, capsys):
    stride, csv_sha, json_sha, clusters_sha = EMERGENCE_PINS
    doc = tmp_path / "emergence.json"
    doc.write_text(json.dumps(EMERGENCE, indent=2) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(doc), "--out", str(out), "--stride", str(stride)]) == 0
    assert _sha256(out / "emergence.trajectory.csv") == csv_sha
    assert _sha256(out / "emergence.summary.json") == json_sha
    assert _clusters_sha256(out / "emergence.trajectory.csv", capsys) == clusters_sha


def test_pins_equal_the_benchmarks():
    # bench/golden.json (read only) pins the same files; a pin changed in one place only
    # would pass here and fail only as a benchmark verdict
    bench = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text(encoding="utf-8"))
    ours = {**GOLDEN, "emergence-seed0": EMERGENCE_PINS}
    shared = sorted(set(bench) & set(ours))
    assert "emergence-seed0" in shared
    for stem in shared:
        assert dict(zip(("csv", "json", "clusters"), ours[stem][1:])) == bench[stem], stem


# numpy's dispatch limited to baseline SIMD; np.exp then gives other bits than under AVX-512
_BASELINE_SIMD = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


def test_pins_hold_under_baseline_simd():
    # the record reads closeness only through >= d, so the pins hold unless a pinned pair sits
    # within an ulp of its threshold; numpy ignores a feature name it does not know, so the
    # child's own feature table, not its exit code, tells whether the limit took
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the disabled feature names are x86-64 ones")
    env = {**os.environ, **_BASELINE_SIMD}
    probe = "from numpy._core._multiarray_umath import __cpu_features__ as f; print(f.get('X86_V3', False))"
    features = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    if features.stdout.strip() != "False":
        pytest.skip("numpy still dispatches to X86_V3 with those features disabled")
    root = Path(__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", "not baseline_simd"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stdout[-2000:] + child.stderr[-2000:]
