"""Byte-identity pins for generated inputs, simulate outputs and reports.

Each input below is written to a file, then replayed through every
scheduler with ``mtslab simulate`` in both formats, and its in-memory run
is reported with ``summarize``. Every artifact is hashed, and the hashes
are pinned: any change to an emitted byte, or a numpy scalar leaking into
a report (``json.dumps`` raises on ``np.int64``), fails this test.
"""

import contextlib
import hashlib
import io
import json

import pytest

from mtslab.adversaries import build_family, noisy_pst, random_unit_sequence
from mtslab.cli import main
from mtslab.core import TaskSequence, load_task_sequence, save_task_sequence
from mtslab.engine import run_scheduler, summarize
from mtslab.errors import ConfigurationError
from mtslab.schedulers import make_scheduler, scheduler_names

FAMILIES = {
    "reversal": ["--adversary", "reversal", "--n", "5", "--eta0", "3", "--phases", "3"],
    "rand-lb": ["--adversary", "rand-lb", "--n", "6", "--k", "4", "--phases", "3",
                "--seed", "2"],
    "lv": ["--adversary", "lv", "--n", "4", "--phases", "2",
           "--scheduler", "lv-greedy", "--seed", "1"],
    "force-det": ["--adversary", "force-det", "--n", "5", "--eta0", "4", "--phases", "2",
                  "--scheduler", "lv-greedy", "--seed", "3"],
    # The generator branches the entries above miss: force-det steering a
    # scheduler that reads no lv table, and lv steering lowest-index.
    "force-det-lps": ["--adversary", "force-det", "--n", "5", "--eta0", "4", "--phases", "2",
                      "--granularity", "7", "--scheduler", "lps", "--seed", "3"],
    "lv-lowest-index": ["--adversary", "lv", "--n", "3", "--r", "6", "--phases", "2",
                        "--scheduler", "lowest-index", "--seed", "1"],
}

PINNED = {
    "reversal/gen":
        "1cca36f8f0076ace6ddc8ace64342ef93d04b9300456c012e93b323a4e11723c",
    "reversal/lowest-index":
        "8b724189d5c0c188f3fb1a89738b6bbb20c040adf2edffc468caec67b5c04bd5",
    "reversal/lps":
        "bc9f3979a5e9f8a684c175e540ab61df796609297e8d0683322b7f79669b7e1b",
    "reversal/lv-greedy":
        "d026410a71ea966535f179748a6eb14820e07b39b2502a5fe315039a2ce0a1dc",
    "reversal/oblivious":
        "517d72234e46e0b9c33a41f3094155cb6047f58d61688b48c33fb5009bf6fa52",
    "reversal/robust-lps":
        "747dc6a4763b717cba2f599884ce422153b132e8f6c9e0362ddd9e36619a0790",
    "reversal/stay-put":
        "2ab23684e8af3d42a45edbd28626e583fa66a6ae6e446688eb0cad6282075d74",
    "rand-lb/gen":
        "c9801e3689b7624bd2df49c3e74b49beacdc83ed9fe76ee1272b9135a695dc7c",
    "rand-lb/lowest-index":
        "42f283227056d047e4d3dba99d72ef355bc0e9ce395259621428826d8986016c",
    "rand-lb/lps":
        "f003057935fc93678c688aa84df4bce5c35faef2cca93d94436c080e7532b57d",
    "rand-lb/lv-greedy":
        "d026410a71ea966535f179748a6eb14820e07b39b2502a5fe315039a2ce0a1dc",
    "rand-lb/oblivious":
        "fa742a84b7e62ce5c202286fdaf339acf2fccd8c02f5e66685b7b5f5106519fe",
    "rand-lb/robust-lps":
        "ea4cad32f5deb3d48d0612b9561cb1ee3b214a921c68bf4d31b9c2e5ab20c04e",
    "rand-lb/stay-put":
        "d0e942b846d9860758248ee913da395dc7b6373683dbc53ff214dc49264be271",
    "lv/gen":
        "6ccf7261e464d395915456a9c678b6764e7c2bc6b82156d378c75a8c870da269",
    "lv/lowest-index":
        "382250fc107105804a97961d64809031c1640b5b1a769c3450a29fe591f557af",
    "lv/lps":
        "503da9bf588ea8b13a92365db73355eb1b44dd231a29983e157ce369507b1ada",
    "lv/lv-greedy":
        "3c530b99e096857d519d9ae3e1dd5f7490b7b7efa7c1f9889cb3de9f503cc96c",
    "lv/oblivious":
        "bac6f2ca1b122fd88a976c58d0bbde3d5bbe981d49d42310ca9b5d99f11cfb31",
    "lv/robust-lps":
        "513f022bda3886c9439a94dcc4efb1a8ebb66c20fb7e270a73aeb2d8d83b8d66",
    "lv/stay-put":
        "39fcd544986b0dbe357b78cab2d16dd74e10d08766f50f746f8943fe36808d6f",
    "force-det/gen":
        "17fdb1a222f332281417d00f6d0509ed904dce4ca94aadb1d731c5a4a16914c3",
    "force-det/lowest-index":
        "07bff692dbb25cd3245aa7b8c19689b01ae590402e2bc2a5db1a197895d05264",
    "force-det/lps":
        "3e04dc0348763dfd5520032057ed49bd1d0f4bbbbfe012aa45a67177ae4c84b0",
    "force-det/lv-greedy":
        "cba6e926589b8e5e328c8e4990ab27299c5e74d8968604225b7ea41c2ebb3e81",
    "force-det/oblivious":
        "f0f336fc66e4360ed8d5e38f248a0328a9f4e863d40d77b98aeff61319bba24a",
    "force-det/robust-lps":
        "973b5f0e548813dfd192ba8cc1f87a2598e9627185396e1568ef56b33019fd59",
    "force-det/stay-put":
        "fe01de1168755770488483727d380578d544a559488d4311ab3026fdddcf5ba1",
    "random-cut/gen":
        "718db88f34a7f1f691f1f4a4a17e9ff96095a223a5bf1d4a172804aa34c20932",
    "random-cut/lowest-index":
        "9d5d14a9b47bfcb1d462a21deef041e0f82aafddfc7285778715565303bbce52",
    "random-cut/lps":
        "69d099d77119b3732a1f63efa8a066686ffba0bad047475c85c8ba2652ad0d6a",
    "random-cut/lv-greedy":
        "afc6c88a93893da70899612efa366cc169fd8ec00ffbda586a2a050dc147871c",
    "random-cut/oblivious":
        "9f0b347f61beef6c413feb1f518060898cf6bc9a179c8ed0d7b21b33cd3e5789",
    "random-cut/robust-lps":
        "8f8049ef0302a84374033395a429ab7be67d5f601e11f2b343c520b98ec3dca1",
    "random-cut/stay-put":
        "b6a2eeffccb6db83534b5ddebb096d16c67d9280577dbb7c94ff10107649775e",
    "force-det-lps/gen":
        "23866ba1f59a500f1bc6c9257fc9775f3a55a324aef550e92f64c69f95c607e9",
    "force-det-lps/lowest-index":
        "f8a2bb7c6531b048f26eb03ae6b28edc8c4050a92ed7a43ceb379a42c84002aa",
    "force-det-lps/lps":
        "1ec62b22a2958003a4ea8e37a8ce7c8d0de73f88d15c263c88ed3d6aba534469",
    "force-det-lps/lv-greedy":
        "d026410a71ea966535f179748a6eb14820e07b39b2502a5fe315039a2ce0a1dc",
    "force-det-lps/oblivious":
        "02d165a4c171786f79ccb83291632846ba07aaedd03d36dda06117bf7781cf71",
    "force-det-lps/robust-lps":
        "c6b1a88f9219527dd7f8fd3fa4f06126b3b605b0e9d28c325ee8e26ddb69d849",
    "force-det-lps/stay-put":
        "99181f627417030c6b087747ac06aff0ff2f1faf5549ab599d2749236a7e1d7a",
    "lv-lowest-index/gen":
        "33a5047cbd1235594833ee46c8893fb2b2c08a7f6b781e94934c4267e9598b99",
    "lv-lowest-index/lowest-index":
        "152bf0ccf65188c3832d0583f6f6ecd2a6394433df4502c4aa80368fc9b2817c",
    "lv-lowest-index/lps":
        "503da9bf588ea8b13a92365db73355eb1b44dd231a29983e157ce369507b1ada",
    "lv-lowest-index/lv-greedy":
        "0158a71862aa76246d3573a0c078ef493bc52f88c52174a2549962616f594d1d",
    "lv-lowest-index/oblivious":
        "6a83c727e65665dd7782d2b15a7836b32798f772957bfc9d629023d9d9ffd6a9",
    "lv-lowest-index/robust-lps":
        "513f022bda3886c9439a94dcc4efb1a8ebb66c20fb7e270a73aeb2d8d83b8d66",
    "lv-lowest-index/stay-put":
        "fe0169d9f8b88ca9086081739fceac9ae2eff26e91450bb05307f5ecc2cb6f70",

}


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return str(rc).encode(), out.getvalue().encode(), err.getvalue().encode()


def _cut_random_input(path) -> None:
    """Random unit demands with noisy predictions, cut inside the last phase."""
    base = noisy_pst(random_unit_sequence(4, 3, 3, seed=5), 3, seed=1)
    last_start = max(base.pst)
    cut = last_start + 3
    seq = TaskSequence(
        n=base.n, granularity=base.granularity, tasks=base.tasks[:cut],
        pst={s: h for s, h in base.pst.items() if s < cut}, lv=base.lv[:cut],
    )
    save_task_sequence(seq, path)


def _digests(name, tmp_path) -> dict:
    path = tmp_path / f"{name}.json"
    digests = {}
    if name in FAMILIES:
        rc, out, err = _cli(["adversary-gen", *FAMILIES[name], "--out", str(path)])
        out = out.replace(str(path).encode(), b"<out>")
        digests[f"{name}/gen"] = _sha(rc, out, err, path.read_bytes())
    else:
        _cut_random_input(path)
        digests[f"{name}/gen"] = _sha(path.read_bytes())
    seq = load_task_sequence(str(path))
    for algorithm in scheduler_names():
        randomized = make_scheduler(algorithm).uses_rng
        trials = ["--trials", "3"] if randomized else []
        parts = []
        for fmt in ("csv", "json"):
            parts.extend(_cli(["simulate", "--input", str(path), "--algorithm", algorithm,
                               "--format", fmt, *trials]))
        try:
            run = run_scheduler(seq, algorithm)
        except ConfigurationError as exc:
            parts.append(str(exc).encode())
        else:
            parts.append(json.dumps(summarize(seq, run), sort_keys=True).encode())
        digests[f"{name}/{algorithm}"] = _sha(*parts)
    return digests


@pytest.mark.parametrize("name", [*FAMILIES, "random-cut"])
def test_outputs_match_pinned_bytes(name, tmp_path):
    got = _digests(name, tmp_path)
    want = {k: v for k, v in PINNED.items() if k.startswith(f"{name}/")}
    assert got == want


# Sweeps over both sweepable families with every kernel policy. The
# rand-lb config names its family by an alias and the reversal config
# omits the seed, so the manifest pins the config as written plus the
# default seed.
SWEEPS = {
    "sweep-reversal": {"adversary": "reversal", "n": [3, 5], "eta0": [0, 2, 7],
                       "algorithms": ["lps", "robust-lps", "oblivious", "lowest-index"],
                       "phases": 3, "granularity": 6, "trials": 4},
    "sweep-rand-lb": {"adversary": "randomized-lb", "n": [4, 6], "eta0": [1, 4, 12],
                      "algorithms": ["oblivious", "lowest-index", "lps", "robust-lps"],
                      "phases": 2, "granularity": 7, "trials": 5, "seed": 3},
}

SWEEP_PINNED = {
    "sweep-reversal/stdout":
        "4bc2ad1c6b87f90af84ce5cc5cf53eb2e5c4d1c02b12e87f65ef81eb48e9f30e",
    "sweep-reversal/lowest-index.csv":
        "93ed668f4f03bf2a31211b9a7be641b7a1a9b5b7d2148648621e9d68a4abbc9e",
    "sweep-reversal/lps.csv":
        "071ad0c37c70a7ccdb1c1d099b382f2fc7fb9cda5fc5efa12ebc59ae952d2501",
    "sweep-reversal/manifest.json":
        "59d5242a166c6fe5d2cc6e42f2e61acd12f3011bd92d5755c5df90840c0ca1db",
    "sweep-reversal/oblivious.csv":
        "1aadf271dd3d9a8ded329102eb1f3ad32430bd5e6a2bf48846551a9600d07a51",
    "sweep-reversal/robust-lps.csv":
        "62dbc70159f7a302337042dcdb505e50d75762f34551aa70c1a200b4526c4ae0",
    "sweep-rand-lb/stdout":
        "7653f229ef9063d9ac58d27cdf88391f5bdca5372774632c98c84f1025ca73c8",
    "sweep-rand-lb/lowest-index.csv":
        "9cadd144bad355400705d0eecfa9e99dee27919a2937c910f49c81dd42d5fa2a",
    "sweep-rand-lb/lps.csv":
        "f8a1586f170b775306e1600d74ae0ffd0de9316ecfd09cdfbe004bed9a08ae34",
    "sweep-rand-lb/manifest.json":
        "5a8aabaca64c248c65eb1ea14132eb7dbb9923f5af416efcc880072bbeb5d24b",
    "sweep-rand-lb/oblivious.csv":
        "95752d388b9c2e1c4d4742d632e46d54f9fcdf54711fdc837cb700fe34e66cc0",
    "sweep-rand-lb/robust-lps.csv":
        "59cfd0b2495d8c9e93a28402cfb38b10c3f893b0a3a6f8dfebe2560b9d05596f",
}


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_outputs_match_pinned_bytes(name, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SWEEPS[name]))
    out_dir = tmp_path / "out"
    rc, out, err = _cli(["sweep", "--config", str(config), "--out", str(out_dir)])
    got = {f"{name}/stdout": _sha(rc, out.replace(str(out_dir).encode(), b"<out>"), err)}
    for path in sorted(out_dir.iterdir()):
        got[f"{name}/{path.name}"] = _sha(path.read_bytes())
    want = {k: v for k, v in SWEEP_PINNED.items() if k.startswith(f"{name}/")}
    assert got == want


# ``verify`` prints one line per check; the opt suite's line for the
# free-start optima stays the same whichever optimum computes them.
VERIFY_PINNED = {
    ("--suite", "all", "--seed", "0"):
        "f1cd6bbe4dc11c2f2a837beefbb7ed4c52564d8273c6805e430bb34548aa4243",
    ("--suite", "opt", "--seed", "3"):
        "ec878ce5ae83e5fa40c22e54f88cf0b550b2969d83e061c2e84ac0726ee805e3",
}


@pytest.mark.parametrize("args", VERIFY_PINNED, ids=" ".join)
def test_verify_output_matches_pinned_bytes(args):
    rc, out, err = _cli(["verify", *args])
    assert (rc, err) == (b"0", b"")
    assert hashlib.sha256(out).hexdigest() == VERIFY_PINNED[args]
