"""Byte-identity of the CLI outputs for fixed inputs and seeds.

The SHA-256 digests were recorded before the random stream moved into the
package (``somrough._pcg``), when numpy's ``default_rng`` drew the initial
map weights, the split seeds and the splits; the two 40-row digests were
recorded before quantizer trainings shared their learning-rate schedules;
the ``discretize`` digests when it began writing its quantizers as JSON (its
``granulated.csv`` bytes were unchanged by that); the ``report.json`` digests
when the run settings became one flat record, which moved the three rule
constraints to the head of ``config`` (each report parsed equal to its
predecessor, and the ``rules.txt`` and ``estimate.json`` digests did not move),
and again when ``semantics`` joined them and reports stopped writing
``best.semantics`` (each report parsed equal to its predecessor without that
key; the other digests did not move).
Any change to the quantizer, the splitting or the rule layer that moves one
byte of ``report.json``, ``rules.txt`` or ``estimate.json``, or of the
``discretizers.json`` and ``granulated.csv`` that ``discretize`` writes,
fails here.
"""

import hashlib
import importlib.resources
import random

import pytest

from somrough.cli import main
from somrough.corpus import JEFFREY_OBSERVED_RATE_MS
from somrough.surrogate import (
    DECISION_NAME,
    DEFAULT_RANGES,
    SlopeParams,
    displacement_proxy,
    factor_of_safety,
)
from somrough.table import AttributeSpec, DecisionTable, dump_schema, infer_scale, to_csv

DATA_DIR = importlib.resources.files("somrough.data")
CORPUS = str(DATA_DIR.joinpath("jeffrey_runs.csv"))
SCHEMA = str(DATA_DIR.joinpath("jeffrey_schema.json"))

CRITERION7_FLAGS = (
    "--granules", "2", "--semantics", "exact", "--min_strength", "0",
    "--max_length", "3", "--max_rules", "8", "--runs", "1",
)


def slope_table(count: int, seed: int) -> DecisionTable:
    """Uniform slope parameters from ``random.Random(seed)`` and their
    displacement proxy; no numpy draw is involved."""
    rnd = random.Random(seed)
    names = list(DEFAULT_RANGES)
    rows = []
    for _ in range(count):
        params = {n: rnd.uniform(*DEFAULT_RANGES[n]) for n in names}
        proxy = displacement_proxy(factor_of_safety(SlopeParams(**params)))
        rows.append(tuple(params[n] for n in names) + (proxy,))
    specs = [AttributeSpec(n, "condition") for n in names]
    specs.append(AttributeSpec(DECISION_NAME, "decision", infer_scale([r[-1] for r in rows])))
    return DecisionTable(specs=tuple(specs), rows=tuple(rows))


def masked_table(table: DecisionTable, seed: int, rate: float = 0.05, decisions: int = 4):
    """``table`` with about ``rate`` of its condition cells and ``decisions``
    decision cells blanked, chosen by ``random.Random(seed)``."""
    rnd = random.Random(seed)
    dec = table.col_index(DECISION_NAME)
    rows = [[None if j != dec and rnd.random() < rate else v for j, v in enumerate(row)]
            for row in table.rows]
    for i in rnd.sample(range(len(rows)), decisions):
        rows[i][dec] = None
    return DecisionTable(specs=table.specs, rows=tuple(map(tuple, rows)))


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _slope_files(tmp_path, table) -> tuple[str, str]:
    """Write ``table`` and its schema under ``tmp_path``; their paths."""
    data, schema = tmp_path / "runs.csv", tmp_path / "schema.json"
    data.write_text(to_csv(table))
    schema.write_text(dump_schema(list(table.specs)))
    return str(data), str(schema)


def run_cli(tmp_path, data, schema, flags, observed) -> dict:
    """Exit codes and output digests of one ``pipeline`` + ``backanalyze``."""
    out = tmp_path / "out"
    est = tmp_path / "estimate.json"
    rc_p = main(["pipeline", "--data", data, "--schema", schema, "--out", str(out), *flags])
    rc_b = main(["backanalyze", "--report", str(out / "report.json"),
                 "--observe", repr(observed), "--out", str(est)])
    return {
        "rc": (rc_p, rc_b),
        "report.json": _sha(out / "report.json"),
        "rules.txt": _sha(out / "rules.txt"),
        "estimate.json": _sha(est) if est.exists() else None,
    }


GOLDEN = {
    "corpus-0": {
        "rc": (3, 0),
        "report.json": "c68dfb903a3fffc3ae2098dee078ea0ac92799b9236f4a535b50614ff1ee3b22",
        "rules.txt": "b03fa775349ef4528ea5e5d47bae3a23a33f8048efa1c93c1780444cd62b0989",
        "estimate.json": "bc726cebaffb1d8d80c61684c816f1f7037b082b8ec997a02508c5e28c748a56",
    },
    "corpus-2": {
        "rc": (3, 0),
        "report.json": "73f908749118f9c9546b0c4be34756a490f4f242c47c1320bcca12d46a61da01",
        "rules.txt": "91e94c5cc19d98319f072fff89160536871e15053f6e9280b02dce0b6252c039",
        "estimate.json": "4a5311986d08b492904602db475fc15835d6e16f2a88d2fc9b5d1c6b8a6e613c",
    },
    "slope200-0": {
        "rc": (3, 0),
        "report.json": "0e47ed20a137515ed4e9863e05bad6572d772b35b5328aa21dfc41307f41e043",
        "rules.txt": "58cafacc1204533b9f529093ef1ad0da4355b5ddeeab6c54f0cebd3ea8f417b9",
        "estimate.json": "4a4035deeceaa5e82bb4f7e1c7d17d42121a5f4693115899b3fed69438978168",
    },
    "slope200-masked-0": {
        "rc": (0, 0),
        "report.json": "f278ce9355506c5c09e974f4981b651aef87fe9345947c0bc42657a522b11909",
        "rules.txt": "1e004f7c8263b55d4958fe4668c27cfedd8fbf24afe943507cefe6a6bb9b6eb7",
        "estimate.json": "bbabff914ce3568c279b64a7a3ab9e5180d612a0546a61a3abd3d20d2654cc16",
    },
    "slope200-cumulative-g3-0": {
        "rc": (3, 0),
        "report.json": "e30164d187e82f3d1e4dab01e0a30133b7794f4085ffeb7df50f4bd71a3a17a7",
        "rules.txt": "d239c6929816522b68a4a66036cff8d6a5738b0cd0885485b358e5d1b7a35cfe",
        "estimate.json": "55ba1e30dfe62f6e762781e6fdbfbfd7af4bca75ed7be089c5b802b3ca7c813c",
    },
    "slope40-g4-0": {
        "rc": (3, 0),
        "report.json": "14bf21a60b28b947400853b2b79d8b33d81cb2c9dafd79fb71e1277ea8c756c9",
        "rules.txt": "d6cb58d5af7df270cbf24adb3497b4a4e35a2c26a6f62b41db3cbabd1ed78175",
        "estimate.json": "4e8fc03af6de13f45714185ff879959471130e1fd929b28fe2c0be56fb2ed01c",
    },
    "slope40-masked-g4-0": {
        "rc": (3, 0),
        "report.json": "ba0d73b10aca260126f2c12ea27e3233976cba299bceddd5938a29fdd90c2106",
        "rules.txt": "04a53023e84a6e67188b0fe81082e768f166848c4bd64b5dcdc2d284128ba55a",
        "estimate.json": "c5efe660808723cda9a0d2db4f36072185d87d959421ca575aeb5e0a8719af62",
    },
}


@pytest.mark.parametrize("seed", [0, 2])
def test_corpus_outputs_pinned(tmp_path, seed):
    got = run_cli(tmp_path, CORPUS, SCHEMA, ("--decision", "mvv", "--seed", str(seed)),
                  JEFFREY_OBSERVED_RATE_MS)
    assert got == GOLDEN[f"corpus-{seed}"]


def test_slope_table_outputs_pinned(tmp_path):
    table = slope_table(200, seed=3)
    data, schema = _slope_files(tmp_path, table)
    observed = max(table.column(DECISION_NAME))
    got = run_cli(tmp_path, data, schema, (*CRITERION7_FLAGS, "--seed", "0"), observed)
    assert got == GOLDEN["slope200-0"]


# golden key: (rows, masked, pipeline flags). The masked tables exercise
# missing condition and decision cells, the cumulative run G = 3 downward
# bands. The 40-row tables train short enough to keep their learning-rate
# schedules, at G = 4 through the general winner loop; masked, their columns
# hold 36, 37, 39 and 40 present values, four training lengths in one run.
SLOPE_VARIANTS = {
    "slope200-masked-0": (200, True, (*CRITERION7_FLAGS, "--seed", "0")),
    "slope200-cumulative-g3-0": (200, False, ("--granules", "3", "--semantics", "cumulative",
                                              "--seed", "0")),
    "slope40-g4-0": (40, False, ("--granules", "4", "--seed", "0")),
    "slope40-masked-g4-0": (40, True, ("--granules", "4", "--seed", "0")),
}


# Digests of the two files ``discretize`` writes. The 200-row table at
# G = 2 (240,000 presentations) fits its quantizers in two processes where
# a second CPU is free.
DISCRETIZE_GOLDEN = {
    "corpus-g3-0": {
        "discretizers.json": "89a99b6b36eec7df613aff0aa3a2a187180c12cebebb81c16fb337807028e85a",
        "granulated.csv": "cb003e3e6a66e644d9570a28da052811ee206e29668a21c3c4dc741e4f0df68a",
    },
    "slope200-g2-0": {
        "discretizers.json": "0ba3d6c136ad28504665266989f405bd897db73dc556e682da6e485ba4561fe8",
        "granulated.csv": "68c497c3e72b87da8599ed0decaf0498c863f81ab20d860f3e5f651d53ab8610",
    },
}


@pytest.mark.parametrize("key", sorted(DISCRETIZE_GOLDEN))
def test_discretize_outputs_pinned(tmp_path, key):
    if key.startswith("corpus"):
        data, schema, granules = CORPUS, SCHEMA, "3"
    else:
        data, schema = _slope_files(tmp_path, slope_table(200, seed=3))
        granules = "2"
    out = tmp_path / "out"
    assert main(["discretize", "--data", data, "--schema", schema, "--out", str(out),
                 "--granules", granules, "--seed", "0"]) == 0
    assert {f.name: _sha(f) for f in out.iterdir()} == DISCRETIZE_GOLDEN[key]


@pytest.mark.parametrize("key", sorted(SLOPE_VARIANTS))
def test_slope_table_variants_pinned(tmp_path, key):
    rows, masked, flags = SLOPE_VARIANTS[key]
    table = slope_table(rows, seed=3)
    if masked:
        table = masked_table(table, seed=11)
    data, schema = _slope_files(tmp_path, table)
    observed = max(v for v in table.column(DECISION_NAME) if v is not None)
    got = run_cli(tmp_path, data, schema, flags, observed)
    assert got == GOLDEN[key]
