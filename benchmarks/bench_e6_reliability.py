"""E6 — slide 23: reliability improving, "85 % of tests successful in
February -> 93 % today, despite the addition of new tests".

Consumes the shared campaign's weekly success-rate series.  Shape to hold:
the first-month rate is visibly below the last-month rate, trending up as
operators burn down the fault backlog.
"""

from conftest import paper_row, print_table


def bench_e6_reliability(benchmark, five_month_campaign):
    fw, report = five_month_campaign
    series = benchmark(fw.history.weekly_success_series,
                       report.months * 30 * 86400.0)
    rows = [
        paper_row("first-month success rate", "85%",
                  f"{report.first_month_success:.1%}"),
        paper_row("last-month success rate", "93%",
                  f"{report.last_month_success:.1%}"),
        paper_row("improvement (points)", "+8",
                  f"{(report.last_month_success - report.first_month_success) * 100:+.1f}"),
    ]
    print_table("E6: reliability trend (slide 23)", rows)
    print("  weekly series:")
    for week_start, rate in series:
        bar = "#" * int(round(rate * 40))
        print(f"    week {int(week_start // (7 * 86400)) + 1:>2}  {rate:6.1%} {bar}")
    # shape: the trend is upward (our simulated faults each hit fewer of
    # the 751 configurations than the real bug mix did, so absolute rates
    # sit higher than the paper's 85/93 — ROADMAP.md item 11 records the
    # gap measured over two 5-month seeds)
    assert report.last_month_success > report.first_month_success
    assert report.first_month_success < 0.985  # starts visibly unhealthy
