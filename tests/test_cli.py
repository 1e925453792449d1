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
