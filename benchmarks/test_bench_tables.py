"""Benchmarks for Tables I-III and the storage comparison (Section VI-C)."""

from repro.experiments import tables


def test_table1(benchmark, quick):
    values = benchmark(tables.table1, quick)
    print("\nTable I (DRAM timings, ns):")
    for name, value in values.items():
        print(f"  {name:>8}: {value}")
    assert values["tRC"] == 48.0


def test_table2(benchmark, quick):
    values = benchmark(tables.table2, quick)
    print("\nTable II (baseline system):")
    for name, value in values.items():
        print(f"  {name:>20}: {value}")
    assert values["cores"] == 8


def test_table3(benchmark, quick):
    rows = benchmark(tables.table3, quick)
    print("\nTable III (scheme comparison):")
    header = ("scheme", "tON limit", "rel T*", "entries x", "in-DRAM ok")
    print("  " + "  ".join(f"{h:>12}" for h in header))
    for row in rows:
        print(
            f"  {row['scheme']:>12}  {str(row['limits_ton']):>12}  "
            f"{row['relative_threshold']:>12.2f}  "
            f"{row['entries_factor']:>12.2f}  "
            f"{str(row['in_dram_compatible']):>12}"
        )
    by_scheme = {row["scheme"]: row for row in rows}
    assert by_scheme["impress-p"]["relative_threshold"] == 1.0
    assert by_scheme["impress-p"]["entries_factor"] == 1.0
    assert by_scheme["express"]["entries_factor"] == 2.0


def test_storage(benchmark, quick):
    storage = benchmark(tables.storage, quick)
    print("\nStorage (Section VI-C / Appendix A):")
    print(f"  Graphene entries: {storage['graphene_entries']}")
    print(f"  Graphene KiB/channel: "
          f"{ {k: round(v, 1) for k, v in storage['graphene_kib_per_channel'].items()} }")
    print(f"  Mithril entries: {storage['mithril_entries']}")
    print(f"  MINT bytes: {storage['mint_bytes']}")
    assert storage["graphene_entries"]["no-rp"] == 448
    assert storage["graphene_entries"]["express_a1"] == 896
    assert storage["mithril_entries"]["no-rp"] == 383
    assert storage["mithril_entries"]["impress-n_a1"] == 1545
    # ImPress-P's storage factor is ~1.25x vs the 2x of ExPress/ImPress-N.
    assert 1.2 < storage["graphene_impress_p_storage_factor"] < 1.3
