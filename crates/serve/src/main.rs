//! `fluctrace-serve` binary: run the daemon, or query one.
//!
//! ```text
//! fluctrace-serve [--addr A] [--shards N] [--cores M] [--seed S]
//!                 [--window-items W] [--max-windows K]
//!                 [--mode exact|folded] [--batches B|unbounded]
//!                 [--capacity C] [--adaptive] [--drop]
//!                 [--funcs F] [--items-per-batch I]
//!                 [--samples-per-item P] [--spike-every E]
//! fluctrace-serve query <addr> <request words...>
//! ```
//!
//! The daemon prints `listening on <addr>` once the socket is bound
//! and then serves until a `quiesce` request. This binary is the one
//! sanctioned wall-clock site of the crate: it installs the obs wall
//! clock so utilization ticks measure real time; the library stays in
//! the deterministic tick domain for tests.

use fluctrace_core::online::AdaptiveConfig;
use fluctrace_core::CumulativeMode;
use fluctrace_serve::{query, Daemon, ServeConfig};

fn fail(msg: &str) -> ! {
    eprintln!("fluctrace-serve: {msg}");
    std::process::exit(2);
}

/// Parse a numeric flag's value straight into its field's type, so a
/// value the field cannot hold is a usage error, never a truncation.
fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse::<T>().ok()) {
        Some(v) => v,
        None => fail(&format!(
            "{flag} needs an unsigned integer that fits in {}",
            std::any::type_name::<T>()
        )),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let first = args.next();
    if first.as_deref() == Some("query") {
        let addr = match args.next() {
            Some(a) => a,
            None => fail("query needs an address"),
        };
        let request = args.collect::<Vec<_>>().join(" ");
        if request.is_empty() {
            fail("query needs a request line");
        }
        match query(&addr, &request) {
            Ok(response) => print!("{response}"),
            Err(e) => fail(&e),
        }
        return;
    }

    let mut addr = "127.0.0.1:0".to_string();
    let mut config = ServeConfig::new(42);
    config.max_batches = None; // daemon default: unbounded until quiesce

    let mut pending = first;
    while let Some(flag) = pending.take().or_else(|| args.next()) {
        match flag.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => fail("--addr needs a value"),
            },
            "--shards" => config.shards = parse::<usize>("--shards", args.next()).max(1),
            "--cores" => config.cores = parse::<u32>("--cores", args.next()).max(1),
            "--seed" => config.seed = parse("--seed", args.next()),
            "--window-items" => {
                config.window.window_items = parse::<u64>("--window-items", args.next()).max(1)
            }
            "--max-windows" => {
                config.window.max_windows = parse::<usize>("--max-windows", args.next()).max(1)
            }
            "--mode" => match args.next().as_deref() {
                Some("exact") => config.window.cumulative = CumulativeMode::Exact,
                Some("folded") => config.window.cumulative = CumulativeMode::Folded,
                _ => fail("--mode is exact | folded"),
            },
            "--batches" => match args.next().as_deref() {
                Some("unbounded") => config.max_batches = None,
                Some(v) => match v.parse::<u64>() {
                    Ok(n) => config.max_batches = Some(n),
                    Err(_) => fail("--batches is a count or 'unbounded'"),
                },
                None => fail("--batches needs a value"),
            },
            "--capacity" => {
                config.channel_capacity = parse::<usize>("--capacity", args.next()).max(1)
            }
            "--adaptive" => config.adaptive = AdaptiveConfig::new(),
            "--drop" => config.blocking = false,
            "--funcs" => config.funcs = parse::<usize>("--funcs", args.next()).max(1),
            "--items-per-batch" => {
                config.items_per_batch = parse::<u64>("--items-per-batch", args.next()).max(1)
            }
            "--samples-per-item" => {
                config.samples_per_item = parse::<u64>("--samples-per-item", args.next()).max(1)
            }
            "--spike-every" => config.spike_every = parse("--spike-every", args.next()),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }

    // The sanctioned wall-clock install: bins measure real time, the
    // library crates stay on the deterministic tick clock.
    fluctrace_obs::install_wall_clock();

    let daemon = match Daemon::start(config, &addr) {
        Ok(d) => d,
        Err(e) => fail(&e),
    };
    println!("listening on {}", daemon.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    daemon.join();
    println!("quiesced");
}
