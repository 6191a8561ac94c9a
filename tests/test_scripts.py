"""The scripts under ``scripts/``, run through their ``main``."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_synthetic_pairs_table(capsys):
    # Each pair's data stream is keyed_rng(seed, pair index); the first line
    # carries the wall time and is checked only up to it.
    assert _load("synthetic_pairs").main(["--pairs", "3", "--bad", "1", "--n", "400", "--B", "20"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.startswith("3 pairs (1 contaminated, lambda=0.9), n=400, family=hr, B=20  [")
    assert lines == [
        "    pair    r_hat         T         p  bonf   bh",
        "    bad0   0.8416    1.0728   0.00000  True True",
        "     ok1   0.9346    0.4654   0.65000 False False",
        "     ok2   0.8416    0.4136   0.70000 False False",
        "planted: ['bad0']  bonferroni-flagged: ['bad0']",
    ]
