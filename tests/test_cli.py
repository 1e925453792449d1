import pathlib

import pytest

from charbox.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
BOX = ["minima", "--p", "31", "--n", "3", "--box", "0:3,0:3,0:2"]


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
