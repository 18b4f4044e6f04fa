"""Command-line surface: subcommands, formats, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import threading

import pytest

from mtslab import adversaries, cli
from mtslab.analysis import SweepRecord, max_forcible_transitions
from mtslab.cli import SWEEP_MAX_N, main
from mtslab.core import CELL_CAP, UNIT_LIMIT, load_task_sequence
from mtslab.kernels import simulate_family_trials
from mtslab.oracles import simulate_family_scalar
from mtslab.verify import VerifyResult


def _gen(tmp_path, *extra):
    out = tmp_path / "input.json"
    rc = main(["adversary-gen", "--out", str(out), *extra])
    return rc, out


def test_adversary_gen_reversal_round_trip(tmp_path, capsys):
    rc, out = _gen(tmp_path, "--adversary", "reversal", "--n", "8",
                   "--eta0", "4", "--phases", "3")
    assert rc == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out}: n=8 granularity=8 steps=24 phases=3" in stdout
    assert "m = 3" in stdout
    for i in range(3):
        assert f"phase {i}: realized error 4" in stdout
    seq = load_task_sequence(str(out))
    assert seq.n == 8 and len(seq.tasks) == 24 and len(seq.pst) == 3


def test_simulate_csv_frozen_rows(tmp_path, capsys):
    _, inp = _gen(tmp_path, "--adversary", "reversal", "--n", "8",
                  "--eta0", "4", "--phases", "3")
    capsys.readouterr()
    rows_path = tmp_path / "rows.csv"
    rc = main(["simulate", "--input", str(inp), "--algorithm", "lps",
               "--out", str(rows_path)])
    assert rc == 0
    lines = rows_path.read_text().splitlines()
    assert lines[0] == "trial,phase_index,transitions,alg_cost_units,opt_cost_units"
    assert lines[1:] == ["0,0,3,35,8", "0,1,3,35,8", "0,2,3,35,8"]
    summary = json.loads(capsys.readouterr().out)
    assert summary["mean_transitions_per_phase"] == "3.000000"
    assert summary["total_cost_units"] == 105
    assert summary["opt_cost_units"] == 24
    assert summary["mean_cost_ratio"] == "4.375000"


def test_simulate_json_to_stdout(tmp_path, capsys):
    _, inp = _gen(tmp_path, "--adversary", "reversal", "--n", "6",
                  "--eta0", "0", "--phases", "2")
    capsys.readouterr()
    rc = main(["simulate", "--input", str(inp), "--algorithm", "lps",
               "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert row["transitions"] == 1
        assert row["opt_cost_units"] == 6
    assert doc["summary"]["max_transitions_per_phase"] == 1


def test_adversary_gen_lv_and_replay(tmp_path, capsys):
    rc, inp = _gen(tmp_path, "--adversary", "lv", "--n", "4", "--r", "5",
                   "--phases", "2", "--scheduler", "lv-greedy")
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "r = 5" in stdout
    assert "realized error" not in stdout
    rows_path = tmp_path / "rows.csv"
    rc = main(["simulate", "--input", str(inp), "--algorithm", "lv-greedy",
               "--out", str(rows_path)])
    assert rc == 0
    lines = rows_path.read_text().splitlines()
    assert lines[1:] == ["0,0,3,29,5", "0,1,3,29,5"]


def test_adversary_gen_forcing_replay_hits_budget_walk(tmp_path, capsys):
    rc, inp = _gen(tmp_path, "--adversary", "force-det", "--n", "6",
                   "--eta0", "8", "--phases", "2", "--scheduler", "lps",
                   "--seed", "3")
    assert rc == 0
    assert "m = 4" in capsys.readouterr().out
    rc = main(["simulate", "--input", str(inp), "--algorithm", "lps",
               "--seed", "3", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["transitions"] for row in doc["rows"]] == [4, 4]


def test_adversary_gen_rand_lb(tmp_path, capsys):
    rc, inp = _gen(tmp_path, "--adversary", "rand-lb", "--n", "5",
                   "--k", "3", "--phases", "4", "--seed", "9")
    assert rc == 0
    assert "m = 3" in capsys.readouterr().out
    seq = load_task_sequence(str(inp))
    assert len(seq.pst) == 4


def test_simulate_trials_only_for_randomized(tmp_path, capsys):
    _, inp = _gen(tmp_path, "--adversary", "reversal", "--n", "4",
                  "--eta0", "2", "--phases", "1")
    rc = main(["simulate", "--input", str(inp), "--algorithm", "lps",
               "--trials", "3"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = main(["simulate", "--input", str(inp), "--algorithm", "oblivious",
               "--trials", "3", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert {row["trial"] for row in doc["rows"]} == {0, 1, 2}


def test_simulate_rejects_trials_past_the_row_cap(tmp_path, capsys, monkeypatch):
    import mtslab.cli as cli

    _, inp = _gen(tmp_path, "--adversary", "reversal", "--n", "4",
                  "--eta0", "2", "--phases", "2")
    capsys.readouterr()

    class Ran(Exception):
        pass

    def run_scheduler(*args, **kwargs):
        raise Ran

    monkeypatch.setattr(cli, "run_scheduler", run_scheduler)
    argv = ["simulate", "--input", str(inp), "--algorithm", "oblivious", "--trials"]
    for trials in (10**9, CELL_CAP // 2 + 1):
        assert main(argv + [str(trials)]) == 2
        assert f"--trials must be <= {CELL_CAP // 2} for 2 complete phases" in \
            capsys.readouterr().err
    with pytest.raises(Ran):
        main(argv + [str(CELL_CAP // 2)])


def test_simulate_missing_oracle_data_is_usage_error(tmp_path, capsys):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({
        "version": 1, "n": 2, "granularity": 2,
        "tasks": [[2, 1], [0, 1]],
    }))
    rc = main(["simulate", "--input", str(bare), "--algorithm", "lps"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_malformed_input_exit_code(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"version": 99}')
    rc = main(["simulate", "--input", str(broken), "--algorithm", "lps"])
    assert rc == 3
    # true == 1 and 1.0 == 1 in Python; neither is schema version 1.
    for version in ("true", "1.0"):
        broken.write_text('{"version": %s, "n": 1, "granularity": 1, "tasks": [[1]]}'
                          % version)
        rc = main(["simulate", "--input", str(broken), "--algorithm", "lowest-index"])
        assert rc == 3
    not_json = tmp_path / "not.json"
    not_json.write_text("not json at all")
    rc = main(["simulate", "--input", str(not_json), "--algorithm", "lps"])
    assert rc == 3
    capsys.readouterr()


def _simulate_from(path, tmp_path, capsys):
    """(exit code, rows file bytes, stdout, stderr) of one simulate run."""
    rows = tmp_path / "rows.csv"
    rows.unlink(missing_ok=True)
    rc = main(["simulate", "--input", str(path), "--algorithm", "lps", "--out", str(rows)])
    captured = capsys.readouterr()
    return rc, rows.read_bytes() if rows.exists() else None, captured.out, captured.err


def _fifo_holding(tmp_path, data: bytes):
    """A FIFO and the thread that writes ``data`` into it once it is opened."""
    fifo = tmp_path / "input.fifo"
    fifo.unlink(missing_ok=True)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    return fifo, writer


def _non_canonical(data: bytes) -> bytes:
    """``data`` with a space after its first comma and a bool entry: not
    canonical, and malformed."""
    return re.sub(rb"\[\[\d+", b"[[true", data.replace(b",", b", ", 1), count=1)


def test_simulate_reads_a_fifo_once(tmp_path, capsys, deadline):
    _, inp = _gen(tmp_path, "--adversary", "reversal", "--n", "6", "--eta0", "4",
                  "--phases", "3", "--seed", "5")
    capsys.readouterr()
    for data, code in ((inp.read_bytes(), 0), (_non_canonical(inp.read_bytes()), 3)):
        inp.write_bytes(data)
        regular = _simulate_from(inp, tmp_path, capsys)
        assert regular[0] == code
        fifo, writer = _fifo_holding(tmp_path, data)
        with deadline(10):
            assert _simulate_from(fifo, tmp_path, capsys) == regular
        writer.join(timeout=10)
        assert not writer.is_alive()
    assert regular[2] == "" and "must be an integer, got True" in regular[3]


def test_simulate_reads_a_pipe_once(tmp_path, capsys):
    _, inp = _gen(tmp_path, "--adversary", "rand-lb", "--n", "5", "--k", "3",
                  "--phases", "4", "--seed", "9")
    capsys.readouterr()
    for data, code in ((inp.read_bytes(), 0), (_non_canonical(inp.read_bytes()), 3)):
        inp.write_bytes(data)
        regular, piped = (subprocess.run([sys.executable, "-m", "mtslab", "simulate",
                                          "--input", path, "--algorithm", "lps"],
                                         input=data, capture_output=True, timeout=60)
                          for path in (str(inp), "/dev/stdin"))
        assert regular.returncode == code
        assert (piped.returncode, piped.stdout, piped.stderr) == \
            (regular.returncode, regular.stdout, regular.stderr)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_naming_redirected_stdout_keeps_what_follows(tmp_path, capsys):
    # With stdout redirected to a file, `--out /dev/stdout` must leave in it
    # what `--out FILE` writes to FILE, followed by what the command prints.
    _, inp = _gen(tmp_path, "--adversary", "reversal", "--n", "8",
                  "--eta0", "4", "--phases", "3")
    capsys.readouterr()

    def run(args, out, redirect):
        with open(redirect, "w") as fh:
            proc = subprocess.run([sys.executable, "-m", "mtslab", *args, "--out", str(out)],
                                  stdout=fh, stderr=subprocess.PIPE, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return redirect.read_text()

    for args in (["simulate", "--input", str(inp), "--algorithm", "lps"],
                 ["adversary-gen", "--adversary", "reversal", "--n", "8",
                  "--eta0", "4", "--phases", "3"]):
        written = tmp_path / "written.txt"
        printed = run(args, written, tmp_path / "printed.txt")
        both = run(args, "/dev/stdout", tmp_path / "both.txt")
        assert both == written.read_text() + printed.replace(str(written), "/dev/stdout")


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--input", str(tmp_path / "absent.json"),
               "--algorithm", "lps"])
    assert rc == 2
    capsys.readouterr()


def test_unreadable_input_path_is_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--input", str(tmp_path), "--algorithm", "lps"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_input_is_malformed(tmp_path, capsys):
    raw = tmp_path / "latin1.json"
    raw.write_bytes(b'{"version": 1, "n": 1, "granularity": 1, "tasks": [[1]], "x": "\xe9"}')
    rc = main(["simulate", "--input", str(raw), "--algorithm", "lowest-index"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err
    rc = main(["sweep", "--config", str(raw), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()
    capsys.readouterr()


@pytest.mark.parametrize("payload", [
    '{"version": 1, "n": 2, "granularity": 2, "tasks": [[2, 0], [0, 2]],'
    ' "pst": [{"phase_start": 0, "h": [0, NaN]}]}',
    '{"version": 1, "n": 2, "granularity": 2, "tasks": [[100000000000000000000000, 0]]}',
], ids=["nan-prediction", "huge-entry"])
def test_unsafe_numbers_are_malformed_input(tmp_path, capsys, payload):
    inp = tmp_path / "input.json"
    inp.write_text(payload)
    rc = main(["simulate", "--input", str(inp), "--algorithm", "lps"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_verify_subcommand_exit_codes(capsys, monkeypatch):
    rc = main(["verify", "--suite", "footrule", "--max-m", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[ok] footrule-max-m4" in out

    failing = VerifyResult()
    failing.add("doomed", False, "synthetic failure")
    monkeypatch.setattr("mtslab.cli.run_suite",
                        lambda *args, **kwargs: failing)
    rc = main(["verify", "--suite", "arith"])
    assert rc == 1
    assert "[FAIL] doomed" in capsys.readouterr().out


SWEEP_CONFIG = {
    "n": [4, 8],
    "eta0": [0, 2, 4],
    "algorithms": ["lps", "oblivious"],
    "adversary": "reversal",
    "phases": 4,
    "granularity": 8,
    "trials": 3,
    "seed": 1,
}


def _write_config(tmp_path, **overrides):
    config = dict(SWEEP_CONFIG, **overrides)
    for key, value in list(config.items()):
        if value is None:
            del config[key]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_sweep_produces_per_algorithm_csv_and_manifest(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    lps_lines = (out_dir / "lps.csv").read_text().splitlines()
    assert lps_lines[0].startswith("n,eta0,m,algorithm,seed,phases,")
    assert len(lps_lines) == 1 + 6
    # The prediction follower is deterministic: mean == m pointwise.
    for line in lps_lines[1:]:
        fields = line.split(",")
        m = int(fields[2])
        assert fields[3] == "lps"
        assert fields[6] == f"{m}.000000"
        assert int(fields[7]) == m
    assert (out_dir / "oblivious.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["records"] == {"lps": 6, "oblivious": 6}
    assert manifest["config"]["seed"] == 1


def test_sweep_reruns_byte_identical(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["sweep", "--config", str(cfg), "--out", str(first)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(second)]) == 0
    capsys.readouterr()
    for name in ("lps.csv", "oblivious.csv", "manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


CACHE_CONFIG = dict(SWEEP_CONFIG, n=[3, 5], eta0=[0, 1, 2, 3, 4, 8, 12, 40],
                    algorithms=["oblivious", "lps", "robust-lps", "lowest-index"],
                    adversary="rand-lb", trials=3, phases=2, granularity=6)


def _sweep_rows(out_dir, algorithm):
    return (out_dir / f"{algorithm}.csv").read_text().splitlines()


def _counted_kernel(monkeypatch):
    """Patch the sweep's kernel to record (n, m, algorithms) of every call."""
    import mtslab.cli as cli

    calls = []
    kernel = cli.simulate_family_trials

    def counted(algorithms, family, n, m, *args, **kwargs):
        calls.append((n, m, algorithms))
        return kernel(algorithms, family, n, m, *args, **kwargs)

    monkeypatch.setattr(cli, "simulate_family_trials", counted)
    return calls


ALL_POLICIES = tuple(CACHE_CONFIG["algorithms"])


def test_sweep_runs_the_kernel_once_per_distinct_cell(tmp_path, capsys, monkeypatch):
    calls = _counted_kernel(monkeypatch)
    cfg = _write_config(tmp_path, **CACHE_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    distinct = {(n, min(max_forcible_transitions(e), n))
                for n in CACHE_CONFIG["n"] for e in CACHE_CONFIG["eta0"]}
    assert len(distinct) < len(CACHE_CONFIG["n"]) * len(CACHE_CONFIG["eta0"])
    # One call per n, over every algorithm and that n's distinct tail
    # sizes, sorted.
    assert calls == [(n, tuple(sorted(m for k, m in distinct if k == n)), ALL_POLICIES)
                     for n in CACHE_CONFIG["n"]]
    covered = [(n, m, algorithm) for n, ms, algorithms in calls
               for m in ms for algorithm in algorithms]
    assert len(covered) == len(set(covered)) == len(distinct) * len(ALL_POLICIES)


# (kernel cells of room per call, as (algorithm, tail size) pairs at the
# largest n; the calls that room gives). n = 3 has tail sizes 1 to 3 and
# n = 5 has 1 to 5, and a pair at n = 3 takes 3/5 of one at n = 5.
_SPLITS = {
    # Every algorithm in each call, over 3 tail sizes at n = 3 and 2 at n = 5.
    "tail-sizes": (8, [(3, (1, 2, 3), ALL_POLICIES),
                       (5, (1, 2), ALL_POLICIES),
                       (5, (3, 4), ALL_POLICIES),
                       (5, (5,), ALL_POLICIES)]),
    # One tail size cannot hold all four algorithms: one tail size per
    # call, and as many algorithms as fit, 3 at n = 3 and 2 at n = 5.
    "algorithms": (2, [(3, (m,), group) for m in (1, 2, 3)
                       for group in (ALL_POLICIES[:3], ALL_POLICIES[3:])]
                   + [(5, (m,), group) for m in (1, 2, 3, 4, 5)
                      for group in (ALL_POLICIES[:2], ALL_POLICIES[2:])]),
}


def test_sweep_splits_kernel_calls_at_the_cell_cap(tmp_path, capsys, monkeypatch):
    import mtslab.cli as cli

    cfg = _write_config(tmp_path, **CACHE_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "whole")]) == 0
    trials, phases = CACHE_CONFIG["trials"], CACHE_CONFIG["phases"]
    calls = _counted_kernel(monkeypatch)
    for case, (pairs, expected) in _SPLITS.items():
        cap = pairs * trials * max(CACHE_CONFIG["n"])
        monkeypatch.setattr(cli, "CELL_CAP", cap)
        calls.clear()
        out = tmp_path / case
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert calls == expected, case
        for n, ms, algorithms in calls:
            # A pass holds every algorithm's counts for its tail sizes at once.
            assert len(algorithms) * len(ms) * trials * max(n, phases) <= cap
        for n in CACHE_CONFIG["n"]:
            # The algorithms are split only where one tail size cannot hold
            # them all, and then into groups as large as fit.
            group = max(len(algorithms) for k, _, algorithms in calls if k == n)
            if group < len(ALL_POLICIES):
                assert all(len(ms) == 1 for k, ms, _ in calls if k == n)
                assert (group + 1) * trials * max(n, phases) > cap
        for name in (*CACHE_CONFIG["algorithms"], "manifest"):
            suffix = "json" if name == "manifest" else "csv"
            assert (out / f"{name}.{suffix}").read_bytes() == \
                (tmp_path / "whole" / f"{name}.{suffix}").read_bytes()


def test_sweep_rows_equal_one_record_per_eta0(tmp_path, capsys):
    # The rows of eta0 values that share a tail size come from one record;
    # each must equal the record built for its own eta0 from the kernel's
    # single-policy call for that cell.
    cfg = _write_config(tmp_path, **CACHE_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    trials, phases, gran, seed = (CACHE_CONFIG[k] for k in
                                  ("trials", "phases", "granularity", "seed"))
    for algorithm in CACHE_CONFIG["algorithms"]:
        expected = [SweepRecord.csv_header()]
        for n in CACHE_CONFIG["n"]:
            for eta0 in CACHE_CONFIG["eta0"]:
                m = min(max_forcible_transitions(eta0), n)
                counts, costs = simulate_family_trials(algorithm, CACHE_CONFIG["adversary"], n,
                                                       m, phases, trials, granularity=gran,
                                                       seed=seed)
                expected.append(SweepRecord.from_counts(
                    n=n, eta0=eta0, m=m, algorithm=algorithm, seed=seed, phases=phases,
                    counts=counts, total_cost_units=int(costs.sum()),
                    opt_cost_units=trials * phases * gran,
                ).csv_row())
        assert _sweep_rows(tmp_path / "o", algorithm) == expected


def test_sweep_cache_matches_one_oracle_run_per_cell(tmp_path, capsys, monkeypatch):
    import mtslab.cli as cli

    cfg = _write_config(tmp_path, **CACHE_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "fast")]) == 0
    # The reference sweeps one (n, eta0) cell per run, so no cell can reuse
    # another's result, and each runs the per-trial oracle.
    monkeypatch.setattr(cli, "simulate_family_trials", simulate_family_scalar)
    expected = {a: [] for a in CACHE_CONFIG["algorithms"]}
    for n in CACHE_CONFIG["n"]:
        for eta0 in CACHE_CONFIG["eta0"]:
            cell_cfg = _write_config(tmp_path, **dict(CACHE_CONFIG, n=[n], eta0=[eta0]))
            out = tmp_path / f"cell-{n}-{eta0}"
            assert main(["sweep", "--config", str(cell_cfg), "--out", str(out)]) == 0
            for algorithm, rows in expected.items():
                header, row = _sweep_rows(out, algorithm)
                rows.append(row)
    capsys.readouterr()
    for algorithm, rows in expected.items():
        assert _sweep_rows(tmp_path / "fast", algorithm) == [header, *rows]


_TOO_BIG = {
    "n": {"n": [SWEEP_MAX_N + 1], "granularity": SWEEP_MAX_N + 1},
    "n-of-20-digits": {"n": [10**20], "granularity": 10**20},
    "trials-x-phases": {"trials": 1 << 12, "phases": (1 << 12) + 1},
    "phases-of-22-digits": {"phases": 10**21},
    "trials-x-n": {"n": [1 << 12], "granularity": 1 << 12, "trials": (1 << 12) + 1,
                   "phases": 1},
    "units": {"granularity": 1 << 50, "trials": 1 << 4, "phases": 1 << 4},
}


@pytest.mark.parametrize("overrides", _TOO_BIG.values(), ids=_TOO_BIG.keys())
def test_oversized_sweep_is_rejected_before_writing(tmp_path, capsys, overrides):
    cfg = _write_config(tmp_path, **overrides)
    out_dir = tmp_path / "o"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()


_HOSTILE_GEN = {
    "reversal-granularity": ["--adversary", "reversal", "--n", "3", "--eta0", "2",
                             "--granularity", str(2**70)],
    "force-det-granularity": ["--adversary", "force-det", "--n", "3", "--eta0", "2",
                              "--scheduler", "lps", "--granularity", str(2**70)],
    "lv-r": ["--adversary", "lv", "--n", "3", "--scheduler", "lowest-index",
             "--r", str(2**70)],
    "phases": ["--adversary", "reversal", "--n", "3", "--eta0", "2",
               "--phases", str(10**20)],
    "n": ["--adversary", "rand-lb", "--n", str(10**20), "--k", "3"],
    "lv-n": ["--adversary", "lv", "--n", str(1 << 12), "--scheduler", "lps"],
}


@pytest.mark.parametrize("argv", _HOSTILE_GEN.values(), ids=_HOSTILE_GEN.keys())
def test_oversized_generation_is_rejected_before_building(tmp_path, capsys, monkeypatch,
                                                          argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator ran on an oversized request")

    for name in ("reversal_sequence", "shuffled_tail_sequence", "forcing_sequence",
                 "repeat_block_sequence"):
        monkeypatch.setattr(adversaries, name, refuse)
    rc, out = _gen(tmp_path, *argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_largest_generated_unit_total_loads_back(tmp_path, capsys):
    # One state, one step: units plus granularity per step is 2 * granularity.
    rc, out = _gen(tmp_path, "--adversary", "reversal", "--n", "1", "--eta0", "0",
                   "--granularity", str(UNIT_LIMIT // 2 - 1))
    assert rc == 0
    assert load_task_sequence(str(out)).tasks.tolist() == [[UNIT_LIMIT // 2 - 1]]
    out.unlink()
    rc, out = _gen(tmp_path, "--adversary", "reversal", "--n", "1", "--eta0", "0",
                   "--granularity", str(UNIT_LIMIT // 2))
    assert rc == 2
    assert not out.exists()


def test_largest_unit_total_below_the_limit_is_accepted(tmp_path, capsys):
    # 2 * n * granularity * trials * phases = UNIT_LIMIT - 2**35, just under
    # the bound, so the sweep runs and its cost sum stays exact.
    gran = (UNIT_LIMIT >> 5) - (1 << 30)
    cfg = _write_config(tmp_path, n=[4], eta0=[2], algorithms=["lps"],
                        granularity=gran, trials=2, phases=2)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    row = _sweep_rows(tmp_path / "o", "lps")[1].split(",")
    assert int(row[9]) == 2 * 2 * gran
    assert 2 * 2 * gran < int(row[8]) < 2 * 4 * gran * 2 * 2


@pytest.mark.parametrize("overrides", [
    {"adversary": "force-det"},
    {"adversary": "unheard-of"},
    {"eta0": []},
    {"eta0": [0, -1]},
    {"granularity": 7},
    {"trials": True},
    {"phases": 0},
    {"algorithms": []},
    {"n": None},
    {"extra_key": 1},
    {"algorithms": ["lps", "lps"]},
])
def test_sweep_config_validation(tmp_path, capsys, overrides):
    cfg = _write_config(tmp_path, **overrides)
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_without_kernel_for_an_algorithm_writes_nothing(tmp_path, capsys):
    cfg = _write_config(tmp_path, algorithms=["lps", "lv-greedy"])
    out_dir = tmp_path / "o"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 2
    assert "lv-greedy" in capsys.readouterr().err
    assert not out_dir.exists()
    assert not list(tmp_path.rglob("*.csv"))


def test_sweep_that_fails_while_computing_leaves_no_output(tmp_path, capsys, monkeypatch):
    import mtslab.cli as cli

    calls = []
    kernel = cli.simulate_family_trials

    def second_call_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("kernel failed")
        return kernel(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_family_trials", second_call_fails)
    # One call per n: the pass over the second n fails.
    cfg = _write_config(tmp_path, n=[4, 8], eta0=[2], algorithms=["lps", "oblivious"])
    out_dir = tmp_path / "o"
    with pytest.raises(RuntimeError, match="kernel failed"):
        main(["sweep", "--config", str(cfg), "--out", str(out_dir)])
    assert len(calls) == 2
    assert not out_dir.exists()


def test_sweep_that_fails_while_writing_leaves_no_directory(tmp_path, capsys, monkeypatch):
    import mtslab.cli as cli

    calls = []
    write = cli.write_text

    def second_write_fails(path, text):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        write(path, text)

    monkeypatch.setattr(cli, "write_text", second_write_fails)
    cfg = _write_config(tmp_path, algorithms=["lps", "oblivious"])
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert len(calls) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    # Without the fault the same call leaves --out and nothing else.
    monkeypatch.setattr(cli, "write_text", write)
    assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "lps.csv", "manifest.json", "oblivious.csv"]


def test_sweep_into_an_existing_directory_replaces_its_files(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "lps.csv").write_text("stale\n")
    (out_dir / "notes.txt").write_text("kept\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
    fresh = tmp_path / "fresh"
    assert main(["sweep", "--config", str(cfg), "--out", str(fresh)]) == 0
    capsys.readouterr()
    assert (out_dir / "notes.txt").read_text() == "kept\n"
    for name in ("lps.csv", "oblivious.csv", "manifest.json"):
        assert (out_dir / name).read_bytes() == (fresh / name).read_bytes()


def _old_out(tmp_path):
    """An existing --out whose robust-lps.csv is a directory."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "lps.csv").write_text("old\n")
    (out_dir / "manifest.json").write_text("{}\n")
    (out_dir / "robust-lps.csv").mkdir()
    return out_dir


def _tree(folder):
    return {str(p.relative_to(folder)): p.read_bytes() if p.is_file() else None
            for p in sorted(folder.rglob("*"))}


def test_sweep_into_an_existing_directory_replaces_all_files_or_none(tmp_path, capsys):
    cfg = _write_config(tmp_path, algorithms=["lps", "robust-lps"])
    out_dir = _old_out(tmp_path)
    before = _tree(out_dir)
    assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert f"Is a directory: '{out_dir / 'robust-lps.csv'}'" in err
    assert ".tmp" not in err
    assert _tree(out_dir) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]


def test_sweep_that_fails_while_writing_keeps_an_existing_directory(tmp_path, capsys,
                                                                   monkeypatch):
    import mtslab.cli as cli

    calls = []
    write = cli.write_text

    def second_write_fails(path, text):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        write(path, text)

    monkeypatch.setattr(cli, "write_text", second_write_fails)
    cfg = _write_config(tmp_path, algorithms=["lps", "oblivious"])
    out_dir = _old_out(tmp_path)
    before = _tree(out_dir)
    assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert len(calls) == 2
    assert _tree(out_dir) == before


@pytest.mark.parametrize("command", [
    ["adversary-gen", "--adversary", "reversal", "--n", "4", "--eta0", "2", "--out"],
    ["simulate", "--algorithm", "lps", "--out"],
])
def test_an_unwritable_out_is_named_in_the_error(tmp_path, capsys, command):
    _, inp = _gen(tmp_path, "--adversary", "reversal", "--n", "4", "--eta0", "2")
    capsys.readouterr()
    if command[0] == "simulate":
        command = command[:1] + ["--input", str(inp)] + command[1:]
    target = tmp_path / "missing" / "x.json"
    assert main(command + [str(target)]) == 2
    err = capsys.readouterr().err
    assert f"No such file or directory: '{target}'" in err
    assert ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.json"]


def test_sweep_onto_a_file_names_it_in_the_error(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    target = tmp_path / "out"
    target.write_text("a file\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert f"Not a directory: '{target}'" in err and ".tmp" not in err
    assert target.read_text() == "a file\n"


def test_sweep_to_an_empty_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    import mtslab.cli as cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "simulate_family_trials", None)  # nothing may be computed
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--out", ""]) == 2
    assert capsys.readouterr().err == "error: --out must name a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_sweep_rejects_non_object_config(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("[1, 2, 3]")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    cfg.write_text("{broken")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_sweep_missing_config_file(tmp_path, capsys):
    rc = main(["sweep", "--config", str(tmp_path / "none.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    capsys.readouterr()


def test_unknown_subcommand_is_a_parse_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_main_builds_its_parser_once_and_keeps_its_usage_errors(tmp_path, capsys):
    usage_error = ["simulate", "--input", str(tmp_path / "input.json")]
    cli.build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(usage_error)
    fresh = exc.value.code, capsys.readouterr().err
    assert fresh[0] == 2 and "the following arguments are required: --algorithm" in fresh[1]

    cli.build_parser.cache_clear()
    rc, inp = _gen(tmp_path, "--adversary", "reversal", "--n", "4", "--eta0", "0")
    assert rc == 0
    assert main(["simulate", "--input", str(inp), "--algorithm", "lps"]) == 0
    assert cli.build_parser.cache_info().misses == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(usage_error)
    assert (exc.value.code, capsys.readouterr().err) == fresh
    assert cli.build_parser.cache_info().misses == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mtslab", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("mtslab ")


_HOSTILE_JSON = {
    # Past the interpreter's 4,300-digit limit, json raises ValueError.
    "long-integer": '{"version": 1, "n": 1, "granularity": 1, "tasks": [[' + "9" * 5000 + "]]}",
    # Past the recursion limit, json raises RecursionError.
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("text", _HOSTILE_JSON.values(), ids=_HOSTILE_JSON.keys())
def test_hostile_json_input_is_malformed(tmp_path, capsys, text):
    inp = tmp_path / "input.json"
    inp.write_text(text)
    rc = main(["simulate", "--input", str(inp), "--algorithm", "lps"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", _HOSTILE_JSON.values(), ids=_HOSTILE_JSON.keys())
def test_hostile_json_sweep_config_is_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _seeded_call(entry, tmp_path, seed):
    """Run one CLI entry point with ``seed``; its exit code."""
    if entry == "sweep":
        cfg = _write_config(tmp_path, n=[3], eta0=[2], granularity=3, seed=seed)
        return main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    if entry == "verify":
        return main(["verify", "--suite", "opt", "--seed", str(seed)])
    argv = ["adversary-gen", "--adversary", "rand-lb", "--n", "4", "--k", "3",
            "--out", str(tmp_path / "input.json")]
    if entry == "adversary-gen":
        return main([*argv, "--seed", str(seed)])
    assert main(argv) == 0
    return main(["simulate", "--input", str(tmp_path / "input.json"),
                 "--algorithm", "oblivious", "--trials", "2", "--seed", str(seed)])


@pytest.mark.parametrize("entry", ["adversary-gen", "simulate", "verify", "sweep"])
def test_seeds_outside_64_bits_are_usage_errors(tmp_path, capsys, entry):
    # The streams read a seed modulo 2**64: -1 and 2**64 would rerun 2**64 - 1 and 0.
    for seed in (-1, 2**64):
        assert _seeded_call(entry, tmp_path, seed) == 2
        assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert _seeded_call(entry, tmp_path, 2**64 - 1) == 0
