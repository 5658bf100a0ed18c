"""Application-level benches: query engine, instruction merging,
iso-area scaling (E9)."""

import random

import pytest

from conftest import run_once
from repro.configs.catalog import build_processor
from repro.core.bitops import build_bitops_extension, run_crc32
from repro.cpu import CoreConfig, Processor
from repro.db import ColumnarTable, Eq, QueryExecutor, Range
from repro.experiments import iso_area


@pytest.fixture(scope="module")
def orders_table():
    rng = random.Random(99)
    n = 3000
    table = ColumnarTable("orders", {
        "status": [rng.randrange(4) for _ in range(n)],
        "region": [rng.randrange(8) for _ in range(n)],
        "priority": [rng.randrange(10) for _ in range(n)],
        "amount": [rng.randrange(200_000) for _ in range(n)],
    })
    for column in ("status", "region", "priority"):
        table.create_index(column)
    return table


@pytest.mark.parametrize("config", ["DBA_1LSU", "DBA_2LSU_EIS"])
def test_index_anding_query(benchmark, orders_table, config):
    executor = QueryExecutor(build_processor(config))
    predicate = Eq("status", 1) & Eq("region", 2) \
        & Range("priority", 5, 9)
    rids, stats = run_once(benchmark, executor.where, orders_table,
                           predicate)
    benchmark.extra_info["accelerator_cycles"] = stats.cycles
    benchmark.extra_info["rows"] = len(rids)


def test_order_by_query(benchmark, orders_table):
    executor = QueryExecutor(build_processor("DBA_2LSU_EIS"))
    rows, stats = run_once(benchmark, executor.select, orders_table,
                           predicate=Eq("status", 2),
                           order_by="amount", limit=10)
    benchmark.extra_info["accelerator_cycles"] = stats.cycles
    amounts = [row["amount"] for row in rows]
    assert amounts == sorted(amounts)


@pytest.mark.parametrize("hardware", [True, False],
                         ids=["crc_word", "software"])
def test_crc_instruction_merging(benchmark, hardware):
    """Section 2.2's CRC example: merged instruction vs bit loop."""
    processor = Processor(CoreConfig("bitops", dmem0_kb=16,
                                     sim_headroom_kb=0),
                          extensions=[build_bitops_extension()])
    words = list(range(1, 257))
    crc, stats = run_once(benchmark, run_crc32, processor, words,
                          hardware=hardware)
    benchmark.extra_info["cycles_per_word"] = round(
        stats.cycles / len(words), 1)


def test_iso_area_scaling(benchmark):
    result = run_once(benchmark, iso_area.run, sort_size=2048,
                      set_size=2000)
    for row in result.rows:
        if row[1].startswith("pessimistic") and "Q9550" in row[0]:
            benchmark.extra_info["pessimistic_cores"] = row[2]
            assert row[2] > 40
