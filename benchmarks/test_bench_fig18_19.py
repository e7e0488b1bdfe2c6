"""Benchmarks regenerating Figures 18 and 19 (attack-pattern slowdown)."""

from repro.experiments import fig18_19


def test_fig18(benchmark, quick):
    series = benchmark(fig18_19.fig18, quick)
    print("\nFig 18 (Graphene + ImPress-P slowdown vs K):")
    for trh, rows in series.items():
        values = {row["slowdown_pct"] for row in rows}
        print(f"  TRH={int(trh)}: {rows[0]['slowdown_pct']:.2f}% "
              f"(flat: {len(values) == 1})")
    # Paper: 0.2% / 0.4% / 0.8% for 4000/2000/1000, independent of K.
    assert series[4000.0][0]["slowdown_pct"] == 0.2
    assert series[2000.0][0]["slowdown_pct"] == 0.4
    assert series[1000.0][0]["slowdown_pct"] == 0.8
    for rows in series.values():
        assert len({row["slowdown_pct"] for row in rows}) == 1


def test_fig19(benchmark, quick):
    series = benchmark(fig18_19.fig19, quick)
    print("\nFig 19 (PARA + ImPress-P slowdown vs K):")
    for trh, rows in series.items():
        peak = max(row["slowdown_pct"] for row in rows)
        tail = rows[-1]["slowdown_pct"]
        print(f"  TRH={int(trh)}: peak {peak:.2f}%, K=100 {tail:.2f}%")
    # Paper: 4.76% at TRH 4000 (p=1/84), Rowhammer (K=0) most potent,
    # overhead decays once probability saturates.
    assert abs(series[4000.0][0]["slowdown_pct"] - 4.76) < 0.02
    for trh, rows in series.items():
        peak = max(row["slowdown_pct"] for row in rows)
        assert abs(rows[0]["slowdown_pct"] - peak) < 1e-9
        assert rows[-1]["slowdown_pct"] < rows[0]["slowdown_pct"] + 1e-9
