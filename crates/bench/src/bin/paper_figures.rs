//! `paper-figures` — regenerate every table and figure of the paper's
//! evaluation section (§7).
//!
//! ```text
//! cargo run --release -p ufilter-bench --bin paper-figures -- all
//! cargo run --release -p ufilter-bench --bin paper-figures -- fig13 --mb 1 --reps 5
//! cargo run --release -p ufilter-bench --bin paper-figures -- fig16 --quick
//! ```

use ufilter_bench as bench;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let flag = |name: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let mb = flag("--mb", 1);
    let reps = flag("--reps", 5);
    let quick = args.iter().any(|a| a == "--quick");
    let sweep: Vec<usize> = if quick {
        vec![10, 20, 50]
    } else {
        vec![50, 100, 150, 200, 250, 300, 350, 400, 450, 500]
    };

    match which {
        // Quick JSON snapshot for cross-PR comparison; redirect to
        // BENCH_seed.json (or BENCH_<rev>.json) at the repo root.
        "baseline" => print!("{}", bench::baseline_json(reps)),
        // One-at-a-time vs. batched stream checking; redirect to
        // BENCH_batch.json at the repo root.
        "batch" => print!("{}", bench::batch_json(reps)),
        // Catalog-wide fan-out: trie/linear routing vs brute force; redirect
        // to BENCH_route.json at the repo root.
        "route" => print!("{}", bench::route_json(reps)),
        // Bounded route-scale smoke for CI: trie vs linear candidate parity
        // over an --n-view signature catalog, one parsable OK line.
        "routesmoke" => {
            print!("{}", bench::route_smoke(flag("--n", 10_000), flag("--updates", 50)))
        }
        // Durable restart: warm prelude replay vs cold recompile;
        // redirect to BENCH_persist.json at the repo root.
        "persist" => print!("{}", bench::persist_json(reps)),
        "fig12" => print!("{}", bench::fig12()),
        "fig13" => print!("{}", bench::fig13(mb, reps)),
        "fig14" => print!("{}", bench::fig14(mb, reps)),
        "marking" => print!("{}", bench::marking_cost(reps.max(10))),
        "fig15" => print!("{}", bench::fig15(&sweep, reps)),
        "fig16" => print!("{}", bench::fig16(&sweep, reps)),
        "fig17" => print!("{}", bench::fig17(&sweep, reps)),
        "ablation" => {
            print!("{}", bench::ablation_star_mode());
            print!("{}", bench::ablation_planner(mb.max(10), reps));
            print!("{}", bench::ablation_materialization(mb.max(10), reps));
        }
        "all" => {
            print!("{}", bench::fig12());
            print!("{}", bench::fig13(mb, reps));
            print!("{}", bench::fig14(mb, reps));
            print!("{}", bench::marking_cost(reps.max(10)));
            let sweep = if quick { vec![10, 20, 50] } else { vec![50, 100, 200, 300, 400, 500] };
            print!("{}", bench::fig15(&sweep, reps));
            print!("{}", bench::fig16(&sweep, reps));
            print!("{}", bench::fig17(&sweep, reps));
        }
        other => {
            eprintln!(
                "unknown figure '{other}'; expected one of: \
                 baseline batch route routesmoke persist fig12 fig13 fig14 fig15 fig16 fig17 marking \
                 ablation \
                 all"
            );
            std::process::exit(2);
        }
    }
}
