"""Golden outputs: the five CSVs of three fixed-seed runs, pinned by digest.

The digests were captured before termination events and engine records
were merged into one type; any refactor that claims "same outputs" must
keep them.
"""

import hashlib
from pathlib import Path

import pytest

from adaptivecc import cli
from adaptivecc.harness import run_experiment

ROOT = Path(__file__).resolve().parent.parent

DECK = """\
lambda = 150,150,150
dt_min = 10
dt_max = 300
template = tpcc_deck
seed = 7
"""

CONFIGS = {
    "experiment": (ROOT / "demos" / "experiment.conf").read_text(encoding="utf-8"),
    "deck": DECK,
    "deck_si_only": DECK + "engine_mode = si_only\n",
}

# Header-only adaptation.csv: the deck's items are statically classed.
_NO_SWITCHES = "89f5c4c25fcfd1cb74a381de743c97a150a419fa0bad32a642d1f3692a638767"

GOLDEN = {
    "experiment": {
        "trace.csv": "c36a12049870c354691c5f3b334ff3718295604678a16975651b5604bd528991",
        "terminations.csv": "ceaff72e058a4b19b61fc105c87d9027a8dd9d508b84402766159c3537cd255b",
        "timeseries.csv": "1a91c8a110b4ba20ea0353af317108324aa070f6d18ac22fee136d884dcc5ff2",
        "summary.csv": "1b8b38c3a4c5f68fa56493d3d6eaad69c75dbd3912be8ae55e344d96a68ac469",
        "adaptation.csv": "bebe3a3a61f3ea98fc765247fc9b710a39a1eb6c52491e3ff92373f3c1281243",
    },
    "deck": {
        "trace.csv": "a4f70642dc5bcd975f5de2b862341ed656e83f738ed03f068bb441c37cc7e459",
        "terminations.csv": "adab7e23183f5c5c44db98e6c79c39f4f414aa480cdd90e1fa828504fb5448c2",
        "timeseries.csv": "947369b13e30c9859b585c05e0a1394ca44bc619cd9895d1c05e40d5740fad69",
        "summary.csv": "9877e6463b51794f09d89680a48a8263267af5ffcbbc0a9516a938cbd4363843",
        "adaptation.csv": _NO_SWITCHES,
    },
    "deck_si_only": {
        "trace.csv": "ee221dcac87a461b395d79014e6da21bd07ac48e0bc56a852d77a1f6f5d283f0",
        "terminations.csv": "6249b2a98170b9db99fd63b037ee11cf3a038345ec040f87f808e2edad106ab1",
        "timeseries.csv": "a17b75b130f1126d273990dfb1ca7a6a9fa04868bce386d8b07860c48bfaf9be",
        "summary.csv": "a626dc6660d68ba399e178ec9478ed9d1d12146d12e7c6a541c012e7e7441813",
        "adaptation.csv": _NO_SWITCHES,
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests(name, tmp_path):
    profile, adapt_config, kwargs = cli.build_run(cli.parse_config(CONFIGS[name]))
    kwargs["out_dir"] = str(tmp_path)
    run_experiment(profile, adapt_config, **kwargs)
    digests = {
        file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        for file in GOLDEN[name]
    }
    differing = sorted(f for f, digest in digests.items() if digest != GOLDEN[name][f])
    assert not differing, f"{name}: {', '.join(differing)} differ from the golden output"
