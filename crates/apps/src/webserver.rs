//! An NGINX-like web server model for the motivation experiment
//! (Fig. 2): per-request elapsed time of a web server's functions.
//!
//! The paper loads NGINX's default index page (612 bytes) with 1 K
//! simultaneous connections, one worker on one core, 300 K requests in
//! 44.8 s — 149 µs per request — and shows with perf that **many of the
//! server's functions take less than 4 µs per request**, which is why
//! instrumenting every function is hopeless.
//!
//! The model reproduces that shape: a request walks a realistic
//! function inventory (accept/parse/locate/serve/log) whose mean
//! per-request costs sum to ≈149 µs, dominated by a few I/O-ish
//! functions while most functions sit in the 0.5–4 µs band.

use fluctrace_cpu::{Core, Exec, FuncId, ItemId, Machine, SymbolTable, SymbolTableBuilder};
use fluctrace_rt::stage::StageOpts;
use fluctrace_rt::timed::arrival_schedule;
use fluctrace_rt::{run_stage, Timed};
use fluctrace_sim::{Rng, SimDuration, SimTime};

/// `(name, mean_ns, size_bytes)` of every modelled function; costs sum
/// to ≈149 µs per request.
const FUNCTIONS: &[(&str, u64, u64)] = &[
    ("ngx_epoll_process_events", 38_000, 4096),
    ("ngx_event_accept", 3_500, 2048),
    ("ngx_http_wait_request_handler", 1_800, 1024),
    ("ngx_http_process_request_line", 2_400, 2048),
    ("ngx_http_process_request_headers", 3_800, 4096),
    ("ngx_http_process_request", 1_200, 1024),
    ("ngx_http_handler", 900, 512),
    ("ngx_http_core_rewrite_phase", 700, 512),
    ("ngx_http_core_find_config_phase", 1_100, 1024),
    ("ngx_http_core_access_phase", 600, 512),
    ("ngx_http_core_content_phase", 800, 512),
    ("ngx_http_static_handler", 9_500, 4096),
    ("ngx_open_cached_file", 3_200, 2048),
    ("ngx_http_discard_request_body", 500, 512),
    ("ngx_http_send_header", 4_200, 2048),
    ("ngx_http_header_filter", 2_900, 2048),
    ("ngx_output_chain", 6_500, 4096),
    ("ngx_http_write_filter", 2_100, 1024),
    ("ngx_writev", 28_000, 2048),
    ("ngx_http_finalize_request", 1_700, 1024),
    ("ngx_http_set_keepalive", 1_300, 1024),
    ("ngx_http_log_handler", 2_800, 2048),
    ("ngx_time_update", 400, 256),
    ("ngx_http_keepalive_handler", 1_600, 1024),
    ("ngx_palloc", 2_500, 512),
    ("ngx_http_parse_request_line", 1_900, 2048),
    ("ngx_http_parse_header_line", 3_100, 2048),
    ("ngx_hash_find", 800, 512),
    ("ngx_http_map_uri_to_path", 1_000, 1024),
    ("ngx_close_connection", 1_200, 1024),
    // Functions above plus this filler bring the mean to ≈149 µs.
    ("ngx_event_expire_timers", 18_000, 2048),
];

/// Worker-loop retirement rate.
const IPC_MILLI: u32 = 1_500;

/// Function handles of the web server model.
#[derive(Debug, Clone)]
pub struct WebServerFuncs {
    /// The worker's event loop (poll function for the stage runtime).
    pub worker_loop: FuncId,
    /// All request-processing functions, in call order.
    pub funcs: Vec<FuncId>,
}

/// The web server model.
pub struct WebServer {
    funcs: WebServerFuncs,
    rng: Rng,
}

impl WebServer {
    /// Build the symbol table (worker loop + the function inventory).
    pub fn symtab() -> (SymbolTable, WebServerFuncs) {
        let mut b = SymbolTableBuilder::new();
        let worker_loop = b.add("ngx_worker_process_cycle", 1024);
        let funcs = FUNCTIONS
            .iter()
            .map(|&(name, _, size)| b.add(name, size))
            .collect();
        (b.build(), WebServerFuncs { worker_loop, funcs })
    }

    /// Create the server model.
    pub fn new(funcs: WebServerFuncs, seed: u64) -> Self {
        WebServer {
            funcs,
            rng: Rng::new(seed),
        }
    }

    /// Process one request on `core`: every function runs once with
    /// ±25% deterministic jitter around its mean cost.
    pub fn process_request(&mut self, core: &mut Core) {
        let freq = core.freq();
        for (i, &(_, mean_ns, _)) in FUNCTIONS.iter().enumerate() {
            let jitter = 0.75 + self.rng.gen_f64() * 0.5;
            let ns = (mean_ns as f64 * jitter) as u64;
            let cycles = freq.dur_to_cycles(SimDuration::from_ns(ns));
            let uops = (cycles as u128 * IPC_MILLI as u128 / 1000) as u64;
            core.exec(Exec::new(self.funcs.funcs[i], uops.max(1)).ipc_milli(IPC_MILLI));
        }
    }

    /// Serve `n` requests arriving `interval` apart on machine core 0,
    /// marking each request as a data-item. Returns the egress schedule.
    pub fn run(
        machine: &mut Machine,
        funcs: WebServerFuncs,
        n: usize,
        interval: SimDuration,
        seed: u64,
    ) -> Vec<Timed<u64>> {
        let mut server = WebServer::new(funcs.clone(), seed);
        let input = arrival_schedule(SimTime::from_us(1), interval, n, |i| i as u64);
        let mut core = machine.take_core(0);
        let out = run_stage(
            &mut core,
            input,
            StageOpts::new(funcs.worker_loop),
            |core, req| {
                core.mark_item_start(ItemId(req));
                server.process_request(core);
                core.mark_item_end(ItemId(req));
                Some(req)
            },
        );
        machine.return_core(core);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluctrace_cpu::{CoreConfig, MachineConfig};

    #[test]
    fn inventory_sums_to_paper_request_time() {
        // 149 µs ± 5 µs.
        let total: u64 = FUNCTIONS.iter().map(|&(_, ns, _)| ns).sum();
        assert!(
            (144_000..=154_000).contains(&total),
            "inventory sums to {total} ns"
        );
    }

    #[test]
    fn most_functions_are_under_4us() {
        let under = FUNCTIONS.iter().filter(|&&(_, ns, _)| ns < 4_000).count();
        assert!(
            under * 2 > FUNCTIONS.len(),
            "{under}/{} functions under 4 µs",
            FUNCTIONS.len()
        );
    }

    #[test]
    fn request_takes_about_149us() {
        let (symtab, funcs) = WebServer::symtab();
        let mut machine = Machine::new(MachineConfig::new(1, CoreConfig::bare()), symtab);
        let mut server = WebServer::new(funcs, 7);
        let mut core = machine.take_core(0);
        let n = 50;
        let t0 = core.now();
        for _ in 0..n {
            server.process_request(&mut core);
        }
        let mean_us = core.now().since(t0).as_us_f64() / n as f64;
        assert!(
            (135.0..=165.0).contains(&mean_us),
            "mean request time {mean_us:.1} µs"
        );
    }

    #[test]
    fn run_marks_every_request() {
        let (symtab, funcs) = WebServer::symtab();
        let mut machine = Machine::new(MachineConfig::new(1, CoreConfig::bare()), symtab);
        let out = WebServer::run(&mut machine, funcs, 20, SimDuration::from_us(200), 3);
        assert_eq!(out.len(), 20);
        let (bundle, _) = machine.collect();
        assert_eq!(bundle.marks.len(), 40);
    }

    #[test]
    fn jitter_makes_requests_differ_but_not_wildly() {
        let (symtab, funcs) = WebServer::symtab();
        let core_cfg = CoreConfig::bare().with_ground_truth();
        let mut machine = Machine::new(MachineConfig::new(1, core_cfg), symtab);
        WebServer::run(&mut machine, funcs, 30, SimDuration::from_us(200), 11);
        let gt = machine.core_mut(0).take_ground_truth();
        let mut per_item = std::collections::BTreeMap::new();
        for g in &gt {
            if let Some(item) = g.item {
                *per_item.entry(item.0).or_insert(0.0) += g.wall.as_us_f64();
            }
        }
        let times: Vec<f64> = per_item.values().copied().collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "jitter present");
        assert!(max / min < 1.4, "jitter bounded: {min:.1}..{max:.1}");
    }
}
