"""Benchmark regenerating the Section VI-E energy comparison."""

from conftest import run_once

from repro.experiments import energy


def test_energy(benchmark, quick):
    data = run_once(benchmark, energy.run, quick)
    share = data["baseline"]["activation_share"]
    print(f"\nEnergy (Section VI-E): baseline ACT share {share:.3f}")
    for tracker in ("graphene", "para"):
        for scheme, ratio in data[tracker].items():
            print(f"  {tracker:>8} {scheme:>10}  energy x{ratio:.3f}")
    # Paper: activations are ~11% of baseline DRAM energy; ExPress adds
    # 6-7% energy while ImPress-P adds 1-2%.
    assert 0.03 < share < 0.35
    for tracker in ("graphene", "para"):
        assert data[tracker]["express"] > data[tracker]["no-rp"]
        assert data[tracker]["impress-p"] < data[tracker]["express"]
        assert data[tracker]["impress-p"] < 1.1
