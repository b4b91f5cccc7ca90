//! Runs the complete evaluation: every reproduced table and figure, in
//! paper order. Individual binaries exist for each (see DESIGN.md §3).
//! `perf_report` is not among them: it rewrites the committed
//! `BENCH_PERF.json` gate baseline, so it is run on its own.
use std::time::Instant;

fn main() -> std::io::Result<()> {
    let t0 = Instant::now();
    #[allow(clippy::type_complexity)]
    let experiments: &[(&str, fn() -> std::io::Result<()>)] = &[
        ("fig07", at_bench::experiments::fig07::run),
        ("tab01", at_bench::experiments::tab01::run),
        ("fig09", at_bench::experiments::fig09::run),
        ("fig13", at_bench::experiments::fig13::run),
        ("fig14", at_bench::experiments::fig14::run),
        ("fig15", at_bench::experiments::fig15::run),
        ("fig16", at_bench::experiments::fig16::run),
        ("fig17", at_bench::experiments::fig17::run),
        ("fig18", at_bench::experiments::fig18::run),
        ("fig19", at_bench::experiments::fig19::run),
        ("fig20", at_bench::experiments::fig20::run),
        ("low_snr", at_bench::experiments::low_snr::run),
        ("collision", at_bench::experiments::collision::run),
        ("latency", at_bench::experiments::latency::run),
        ("heightA", at_bench::experiments::height_appendix::run),
        ("ablation", at_bench::experiments::ablation::run),
        ("baselines", at_bench::experiments::baselines::run),
        ("circular", at_bench::experiments::circular::run),
        ("elevation", at_bench::experiments::elevation::run),
        ("estimators", at_bench::experiments::estimators::run),
        ("reachability", at_bench::experiments::reachability::run),
        ("robustness", at_bench::experiments::robustness::run),
    ];
    for (name, run) in experiments {
        let t = Instant::now();
        run()?;
        eprintln!("[{name}] done in {:.1} s", t.elapsed().as_secs_f64());
    }
    eprintln!(
        "all experiments done in {:.1} s",
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}
