import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from charbox.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CONFIG = pathlib.Path(__file__).parent.parent / "configs" / "sample_survey.json"
BOX = ["minima", "--p", "31", "--n", "3", "--box", "0:3,0:3,0:2"]
FIELD_FLAGS = ["--p", "--n", "--modulus", "--basis-seed", "--seed"]
COMMAND_FLAGS = {
    "field": FIELD_FLAGS,
    "charsum": FIELD_FLAGS + ["--box", "--char-index"],
    "energy": FIELD_FLAGS + ["--box"],
    "minima": FIELD_FLAGS + ["--box", "--z-index", "--z-sweep", "--budget"],
    "burgess": FIELD_FLAGS + ["--box", "--char-index", "--epsilon"],
    "moments": FIELD_FLAGS + ["--char-index", "--interval-len", "--r"],
    "survey": ["--p", "--n", "--epsilon", "--basis-seed", "--box", "--random-boxes", "--box-regime",
               "--char-index", "--random-chars", "--seed", "--workers", "--out", "--format"],
    "pilot": ["--seed", "--out"],
    "run": ["--out"],
}


@pytest.mark.parametrize(
    "args, golden",
    [
        (["--z-index", "777"], "minima_p31_n3_z777.json"),
        (["--z-sweep", "5", "--seed", "1"], "minima_p31_n3_sweep5_seed1.json"),
    ],
)
def test_minima_json_matches_golden(capsys, args, golden):
    # lambdas, witnesses, Minkowski certificate and node count, byte for byte
    assert main(BOX + args) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


def test_rank_deficient_minima_matches_golden(capsys):
    # five minima at most 6/5 under lambda_6 = 34/5: the one shell, at
    # U = lambda_6, holds 115,214 vectors, nearly all in the span of the
    # first five witnesses
    assert main(["minima", "--p", "101", "--n", "3", "--box", "0:5,0:5,0:5", "--z-index", "552646"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "minima_p101_n3_z552646.json").read_bytes()


@pytest.mark.parametrize(
    "p, n, seed, basis_seed",
    [(31, 3, 0, 7), (101, 2, 1, 1), (7, 3, 5, 2), (13, 1, 0, 1), (4093, 2, 0, 3), (251, 3, 4, 6)],
)
def test_field_json_matches_golden(capsys, p, n, seed, basis_seed):
    # modulus search, generator and sampled basis, byte for byte; the last two
    # fields sit near the q <= 2^24 table budget
    argv = ["field", "--p", str(p), "--n", str(n), "--seed", str(seed), "--basis-seed", str(basis_seed)]
    assert main(argv) == 0
    golden = GOLDEN / f"field_p{p}_n{n}_seed{seed}_basis{basis_seed}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        # S decomposition of a box with every edge at the sqrt(p/2) cap
        (["energy", "--p", "101", "--n", "3", "--box", "0:7,0:7,0:7"], "energy_p101_n3_box777.json"),
        # |I| = 2 at eps = 0.3: tau profile, moment sum and census of the trace
        (["burgess", "--p", "127", "--n", "3", "--box", "3:7,-2:5,10:6", "--char-index", "12345"],
         "burgess_p127_n3_k12345.json"),
        # an interval longer than p wraps every row of the moment sum
        (["moments", "--p", "31", "--n", "3", "--char-index", "77", "--interval-len", "45", "--r", "2"],
         "moments_p31_n3_k77_len45_r2.json"),
        # one box character sum over an n = 3 box
        (["charsum", "--p", "31", "--n", "3", "--box", "0:3,0:4,0:2", "--char-index", "77"],
         "charsum_p31_n3_k77.json"),
        # |I| = 3 at eps = 0.45: the moment sum sweeps F_q
        (["burgess", "--p", "257", "--n", "2", "--box", "3:11,-4:11", "--char-index", "4321",
          "--epsilon", "0.45"], "burgess_p257_n2_k4321_eps045.json"),
    ],
)
def test_amplify_json_matches_golden(capsys, argv, golden):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["moments", "--p", "31", "--char-index", "3", "--interval-len", "0", "--r", "2"],
         "interval must be nonempty"),
        (["burgess", "--p", "31", "--box", "0:4,0:2", "--char-index", "3"], "edges below sqrt(p/2)"),
        (["energy", "--p", "31", "--box", "0:20,0:3"], "difference box needs 2H_i + 1 <= p"),
        (["charsum", "--p", "31", "--box", "0:40,0:3", "--char-index", "3"], "1 <= H_i <= p"),
        (["field", "--p", "33"], "p = 33 is not prime"),
        (BOX + ["--z-index", "777", "--budget", "1"], "enumeration exceeded 1 nodes"),
        (["survey", "--p", "31,x", "--n", "2", "--random-boxes", "1"],
         "--p takes comma-separated integers, got '31,x'"),
        (["field", "--p", "31", "--modulus", "1,x,1"],
         "--modulus takes comma-separated integers, got '1,x,1'"),
        (BOX, "minima needs --z-index or --z-sweep >= 1"),
        (["minima", "--p", "31", "--box", "0:3,0:3", "--z-index", "966"],
         "--z-index must lie in [0, q) = [0, 961), got 966"),
        (["minima", "--p", "31", "--box", "0:3,0:3", "--z-index", "-1"],
         "--z-index must lie in [0, q) = [0, 961), got -1"),
        (["moments", "--p", "31", "--n", "2", "--char-index", "7", "--interval-len", "2", "--r", "0"],
         "r must be at least 1, got 0"),
        (["moments", "--p", "31", "--n", "2", "--char-index", "7", "--interval-len", "2", "--r", "-1"],
         "r must be at least 1, got -1"),
        (["minima", "--p", "13", "--n", "1", "--box", "0:2", "--z-sweep", "1"],
         "z-sweep needs n >= 2: every z lies in F_p"),
        (["moments", "--p", "31", "--n", "2", "--char-index", "5", "--interval-len", "3", "--r", "100"],
         "a value past the float range"),
        # numpy seeds take no negative entropy: each command rejects a negative seed up front
        (["field", "--p", "31", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["charsum", "--p", "31", "--box", "0:3,0:3", "--char-index", "3", "--basis-seed", "-3"],
         "--basis-seed must be >= 0, got -3"),
        (["energy", "--p", "31", "--box", "0:3,0:3", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (BOX + ["--z-index", "777", "--basis-seed", "-3"], "--basis-seed must be >= 0, got -3"),
        (["burgess", "--p", "61", "--box", "4:3,-3:4", "--char-index", "17", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (["moments", "--p", "31", "--char-index", "7", "--interval-len", "3", "--r", "2", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (["survey", "--p", "31", "--n", "2", "--random-boxes", "1", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (["survey", "--p", "31", "--n", "2", "--random-boxes", "1", "--basis-seed", "-3"],
         "--basis-seed must be >= 0, got -3"),
        (["pilot", "--seed", "-1", "--out", "no-such-dir/fixtures.json"], "--seed must be >= 0, got -1"),
    ],
)
def test_input_errors_exit_2(capsys, argv, message):
    # a typed input error is a one-line message and exit 2; exit 1 means a check failed
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("workers", ["1", "2"])
def test_n3_survey_matches_golden(capsys, workers):
    # twelve n = 3 rows over the direct, subdivided and tall routes, the tall
    # ones with the degenerate-set check, byte for byte at either worker count
    argv = ["survey", "--p", "61,101", "--n", "3", "--box=0:5,3:6,-7:4", "--box=1:15,2:12,-3:18",
            "--box=4:6,-2:7,10:60", "--random-chars", "2", "--seed", "7", "--basis-seed", "3",
            "--workers", workers]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "survey_p61_101_n3_seed7.csv").read_bytes()


def test_run_without_out_prints_report(capsys):
    # a config with no `out` prints its report on stdout, as `charbox survey` does
    assert main(["run", str(CONFIG)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "sample_survey.csv").read_bytes()


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert set(re.findall(r"--[\w-]+", out)) == {"--help", *COMMAND_FLAGS[command]}
    assert command != "run" or "config" in out.splitlines()[0]


def test_python_m_charbox_runs_the_cli():
    src = pathlib.Path(__file__).parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "charbox", "field", "--p", "31"],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["q"] == 961
