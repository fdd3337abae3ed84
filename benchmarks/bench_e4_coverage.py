"""E4 — slide 21: coverage, 751 test configurations over 16 families.

Regenerates the coverage table from the family registry against the
synthetic testbed and checks the exact per-family counts, which land in
``benchmarks/results/BENCH_e4_coverage.json``.
"""

from repro.checksuite import ALL_FAMILIES, coverage_table, total_configurations
from repro.testbed import build_grid5000

from conftest import paper_row, print_table
from perf import write_results

_PAPER_COUNTS = {
    "environments": 448,
    "refapi": 32, "oarproperties": 32, "stdenv": 32, "paralleldeploy": 32,
    "multireboot": 32, "multideploy": 32, "console": 32,
    "oarstate": 8, "cmdline": 8, "sidapi": 8, "kwapi": 8, "kavlan": 8,
    "dellbios": 18, "mpigraph": 12, "disk": 9,
}


def bench_e4_coverage(benchmark):
    testbed = build_grid5000()
    table = benchmark(coverage_table, testbed)
    rows = [paper_row(f"{name} configurations",
                      _PAPER_COUNTS.get(name, "-"), count)
            for name, count in sorted(table.items(), key=lambda kv: -kv[1])]
    total = total_configurations(testbed)
    rows.append(paper_row("TOTAL", 751, total))
    print_table("E4: test coverage (slide 21)", rows)
    write_results("e4_coverage", {
        **{f"{name}_configurations": count for name, count in table.items()},
        "total_configurations": total,
    })
    assert len(ALL_FAMILIES) == 16
    assert table == _PAPER_COUNTS
    assert total == 751
