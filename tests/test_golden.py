"""Golden outputs: the README command-line walkthrough, pinned by sha256.

Every file the walkthrough writes must stay byte-identical. A pin changes only
together with a CHANGES.md note stating the intended output change.
"""
import hashlib

import pytest

import ballmapper as bm
from ballmapper.cli import main

GOLDEN = {
    "auto.svg": "9181cc5fa50f64cbe5dc7e6981a25766acadbe925a11632187b28c6597b8375d",
    "auto_results.csv": "1c18036fddbe286a92fdb2ce82eb6aed57904de49fbe0c7a98162cf0be109ce8",
    "auto_merged.csv": "55056c116f91705c20149ade34cefbea9c560fe596beb597ca16b055edd8b4ae",
    "auto_means.csv": "d9871ed5e2f2c61ec94c5f2c7b235a99a6b98b0d0aed2922e1e6879c8c477ec0",
    "price_stats.csv": "1627183520f3b464da7bbcf164dacd29b54670b76bb9ac7fc799eb788e983229",
    "price_box.svg": "82f75fb6fd7822c736f722b29cdb1089b14fcefa20afccfc0fa5f2db7fbae092",
    "x.csv": "1499cab93c9c844568fc895a424ef7b20bb6a98d8324885e3a8de62c39651010",
    "x.svg": "a2cbc9e4cdc37573875210c30abcd93f29f23e89bc3054e30ee3d78c75bdb420",
    "x_results.csv": "decaf676e84bad4df5310a0681c40894a2d9e99e06e338cae1d5fdff6a4c603f",
    "x_merged.csv": "0be6c84046abf0df29c42f54141f03880d91a19d6ff692d7bf07d2fb26bf58bd",
}


def readme_commands(d):
    return [
        ["run", "-i", bm.auto_csv_path(),
         "--axes", "mpg,trunk,weight,length,turn,displacement,gear_ratio",
         "--epsilon", "1.5", "--standardize", "--color", "foreign", "--labels",
         "--svg", d / "auto.svg",
         "--results", d / "auto_results.csv", "--merged", d / "auto_merged.csv"],
        ["ball-summary", "--merged", d / "auto_merged.csv",
         "--variables", "mpg,weight,price,foreign", "-o", d / "auto_means.csv"],
        ["variable-summary", "--merged", d / "auto_merged.csv",
         "--variable", "price", "-o", d / "price_stats.csv", "--boxplot", d / "price_box.svg"],
        ["gen", "x", "--seed", "7", "-o", d / "x.csv"],
        ["run", "-i", d / "x.csv", "--axes", "x1,x2", "-e", "1.2", "--color", "y1",
         "--svg", d / "x.svg", "--results", d / "x_results.csv", "--merged", d / "x_merged.csv"],
    ]


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for argv in readme_commands(d):
        assert main([str(a) for a in argv]) == 0, argv
    return d


def test_walkthrough_writes_exactly_the_pinned_files(walkthrough):
    assert sorted(p.name for p in walkthrough.iterdir()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_is_byte_identical(walkthrough, name):
    digest = hashlib.sha256((walkthrough / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
