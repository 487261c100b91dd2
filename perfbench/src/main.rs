//! Two-clock benchmark of the Precursor reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-b32 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one thread. It builds the system, drives it directly
//! through the public `TrustedKv` calls for wall-clock numbers, then runs
//! the same workload through the YCSB replay driver for virtual-time
//! numbers. Every metric is printed by name and unit; the last line of
//! standard output is one JSON object. Any failed check makes the exit
//! code non-zero. `NOTES.md` lists the metrics and workloads.

mod direct;
mod probes;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use precursor_sim::CostModel;

use crate::direct::LoopResult;
use crate::probes::Probes;
use crate::replay::Replay;
use crate::stats::{median, percentile};
use crate::trace::{Trace, ROOT};
use crate::workloads::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Metrics in print order: name, value, unit, clock.
#[derive(Default)]
struct Report {
    rows: Vec<(&'static str, f64, &'static str, &'static str)>,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, clock: &'static str) {
        self.rows.push((name, value, unit, clock));
    }

    fn print(&self, title: &str) {
        println!("== {title}");
        for (name, value, unit, clock) in &self.rows {
            println!("{name:<36} {value:>16.4} {unit:<12} {clock}");
        }
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit, _)) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push('}');
        s
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn list(values: &[f64], digits: usize) -> String {
    values
        .iter()
        .map(|v| format!("{v:.digits$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Everything one run measured.
struct Run {
    setup_s: Vec<f64>,
    /// Pool bytes in use ÷ loaded value bytes, after set-up.
    pool_ratio: f64,
    lp: LoopResult,
    /// Durable workload: restart-check recovery seconds, or why it failed.
    restart: Option<Result<f64, String>>,
    rp: Replay,
    probes: Option<Probes>,
    /// Host probe at the start and the end.
    host: [f64; 2],
    rss_mib: f64,
}

impl Run {
    fn attempted(&self) -> u64 {
        self.lp.ops + self.rp.ops
    }

    fn verify_fail(&self) -> u64 {
        self.lp.verify_fail + self.rp.verify_fail
    }

    fn failed(&self) -> u64 {
        (self.lp.failed + self.rp.failed + self.verify_fail()).min(self.attempted())
    }
}

/// Runs every phase in order: host probe, repeated set-up, replay build,
/// direct-loop segments alternating with replay windows, restart check,
/// probes (traced only), host probe.
fn measure(w: &Workload, args: &Args, cost: &CostModel, trace: &mut Trace) -> Result<Run, String> {
    let host_start = stats::host_ref_ns();
    let mut setup_s = Vec::with_capacity(w.setup_reps);
    let mut sys = None;
    for _ in 0..w.setup_reps {
        drop(sys.take());
        let t = Instant::now();
        let built = trace.scope("setup", ROOT, |tr, span| {
            direct::setup(w, args.seed, cost, tr, span)
        })?;
        setup_s.push(t.elapsed().as_secs_f64());
        sys = Some(built);
    }
    let mut sys = sys.ok_or("no set-up ran")?;
    let pool_ratio = sys.kv().server().pool_stats().bytes_in_use as f64
        / (w.keys() as f64 * w.value_size() as f64);

    // The replay session is built up front so its windows can interleave
    // with segments of the direct loop: a slow burst of the host then has
    // to span the whole run to slow every replay window.
    let mut replay = replay::Session::build(w, args.seed, cost, trace);
    let mut lp = LoopResult::default();
    for _ in 0..replay::WINDOWS {
        sys.run(w, args.seconds / replay::WINDOWS as f64, trace, &mut lp);
        replay.measure(w, trace);
    }
    let restart = w
        .durable
        .then(|| trace.scope("journal.recover", ROOT, |_, _| sys.restart_check(cost)));
    drop(sys);
    let rp = replay.finish(w);
    let probes = args.trace.then(|| probes::run(w, args.seed, trace));
    Ok(Run {
        setup_s,
        pool_ratio,
        lp,
        restart,
        rp,
        probes,
        host: [host_start, stats::host_ref_ns()],
        rss_mib: stats::rss_peak_mib(),
    })
}

/// Every failed check, as a sentence.
fn problems(w: &Workload, r: &Run) -> Vec<String> {
    let mut out = Vec::new();
    if r.lp.failed > 0 {
        out.push(format!(
            "{} direct ops failed ({} wrong values)",
            r.lp.failed, r.lp.wrong
        ));
    }
    if r.verify_fail() > 0 {
        out.push(format!("client.verify_fail = {}", r.verify_fail()));
    }
    if r.rp.failed > 0 {
        out.push(format!(
            "{} replay ops failed (status.* deltas)",
            r.rp.failed
        ));
    }
    if let Some(Err(e)) = &r.restart {
        out.push(format!("restart check: {e}"));
    }
    if r.lp.get_ns.is_empty() || (w.spec.read_ratio < 1.0 && r.lp.put_ns.is_empty()) {
        out.push("the direct loop measured no gets or no puts".into());
    }
    out
}

/// The end-to-end metrics (reported by the untraced run).
fn end_to_end(r: &Run) -> Report {
    let v = r.rp.virt();
    let mut m = Report::default();
    m.add("virt_ops_per_s", v.ops_per_s, "ops/s", "virtual");
    m.add("virt_p50_us", v.p50_us, "us", "virtual");
    m.add("virt_p99_us", v.p99_us, "us", "virtual");
    m.add("ops_per_s", r.lp.quiet_ops_per_s(), "ops/s", "wall");
    for (name, puts, p) in [
        ("get_p50_us", false, 50.0),
        ("get_p90_us", false, 90.0),
        ("put_p50_us", true, 50.0),
        ("put_p90_us", true, 90.0),
    ] {
        m.add(name, us(r.lp.quiet_percentile(puts, p)), "us", "wall");
    }
    let replay_rate = r.rp.run.ops as f64 / r.rp.fastest_measure_s();
    m.add("replay_ops_per_s", replay_rate, "ops/s", "wall");
    m.add("setup_s", median(&r.setup_s), "s", "wall");
    m.add("rss_peak_mib", r.rss_mib, "MiB", "-");
    m
}

/// Share of an `op` span its child spans must cover.
const COVER_SHARE: f64 = 0.95;

/// Median of one layer's spans, over the ops of one type.
fn span_median(trace: &Trace, lp: &LoopResult, name: &str, puts: bool) -> f64 {
    let keep = |op| lp.is_put(op) == Some(puts);
    let d: Vec<f64> = trace
        .durations(name, keep)
        .into_iter()
        .map(|x| x as f64)
        .collect();
    median(&d)
}

/// Median over traced chunks of the chunk's get p50 against the mean of its
/// untraced neighbours, minus one.
fn trace_overhead(chunks: &[(bool, f64)]) -> f64 {
    let ratios: Vec<f64> = chunks
        .windows(3)
        .filter(|c| c[1].0 && !c[0].0 && !c[2].0 && c[0].1 > 0.0 && c[2].1 > 0.0)
        .map(|c| 2.0 * c[1].1 / (c[0].1 + c[2].1))
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        median(&ratios) - 1.0
    }
}

/// The per-layer metrics (reported by the traced run).
fn per_layer(w: &Workload, r: &Run, trace: &Trace) -> Report {
    let (lp, v) = (&r.lp, r.rp.virt());
    let per_op = |n: u64| n as f64 / lp.ops.max(1) as f64;
    let mut m = Report::default();
    m.add(
        "client.submit_ns",
        span_median(trace, lp, "client.submit", true),
        "ns",
        "wall",
    );
    m.add(
        "client.submit_ns.get",
        span_median(trace, lp, "client.submit", false),
        "ns",
        "wall",
    );
    m.add(
        "client.reply_ns",
        span_median(trace, lp, "client.reply", false),
        "ns",
        "wall",
    );
    m.add("client.verify_fail", r.verify_fail() as f64, "count", "-");
    m.add("client.retransmits", lp.retransmits as f64, "count", "-");
    m.add(
        "server.poll_ns",
        span_median(trace, lp, "server.poll", false),
        "ns",
        "wall",
    );
    m.add(
        "server.poll_ns.put",
        span_median(trace, lp, "server.poll", true),
        "ns",
        "wall",
    );
    m.add(
        "server.rings_swept_per_op",
        per_op(lp.rings_swept),
        "rings/op",
        "-",
    );
    m.add(
        "server.handoffs_per_op",
        per_op(lp.handoffs),
        "handoffs/op",
        "-",
    );
    m.add(
        "server.credit_writes_per_op",
        per_op(lp.credit_writes),
        "writes/op",
        "-",
    );
    m.add("journal.compactions", lp.compactions as f64, "count", "-");
    let compact_share = lp.compact_ns as f64 / (lp.wall_s * 1e9);
    m.add("journal.compact_share", compact_share, "ratio", "wall");
    let user_bytes = (lp.puts * w.value_size() as u64).max(1) as f64;
    let written = (lp.journal_bytes + lp.snapshot_bytes) as f64;
    m.add(
        "journal.bytes_per_user_byte",
        written / user_bytes,
        "ratio",
        "-",
    );
    let flushes = lp.journal_flushes as f64 / lp.puts.max(1) as f64;
    m.add("journal.flushes_per_put", flushes, "flushes/put", "-");
    let pr = r.probes.unwrap_or_default();
    m.add("crypto.gcm_seal_ns.ctrl", pr.gcm_seal_ctrl_ns, "ns", "wall");
    m.add("crypto.gcm_open_ns.ctrl", pr.gcm_open_ctrl_ns, "ns", "wall");
    m.add("crypto.salsa20_ns.value", pr.salsa20_value_ns, "ns", "wall");
    m.add("crypto.cmac_ns.value", pr.cmac_value_ns, "ns", "wall");
    m.add("crypto.gcm_mb_s.bulk", pr.gcm_bulk_mb_s, "MB/s", "wall");
    m.add("storage.table_get_ns", pr.table_get_ns, "ns", "wall");
    m.add(
        "storage.ring_push_pop_ns",
        pr.ring_push_pop_ns,
        "ns",
        "wall",
    );
    m.add(
        "storage.pool_bytes_per_value_byte",
        r.pool_ratio,
        "ratio",
        "-",
    );
    m.add("sim.queue_push_pop_ns", pr.queue_push_pop_ns, "ns", "wall");
    m.add("ycsb.build_s", r.rp.build_s, "s", "wall");
    let measure_ns = r.rp.fastest_measure_s() * 1e9 / r.rp.run.ops as f64;
    m.add("ycsb.measure_ns_per_op", measure_ns, "ns", "wall");
    m.add("ycsb.generator_new_us", pr.generator_new_us, "us", "wall");
    m.add("virt.client_cpu_ns", v.client_cpu_ns, "ns", "virtual");
    m.add(
        "virt.server_critical_ns",
        v.server_critical_ns,
        "ns",
        "virtual",
    );
    m.add(
        "virt.server_overhead_ns",
        v.server_overhead_ns,
        "ns",
        "virtual",
    );
    m.add("virt.enclave_ns", v.enclave_ns, "ns", "virtual");
    m.add("virt.avg_network_ns", v.avg_network_ns, "ns", "virtual");
    m.add(
        "virt.server_utilization",
        v.server_utilization,
        "ratio",
        "virtual",
    );
    m.add(
        "virt.clients_active",
        v.clients_active as f64,
        "count",
        "virtual",
    );
    m.add("sgx.epc_pages", v.epc_pages as f64, "count", "virtual");
    m.add(
        "sgx.transitions_per_op",
        v.transitions_per_op,
        "ratio",
        "virtual",
    );
    m.add(
        "op.get_p99_us",
        us(percentile(&mut lp.get_ns.clone(), 99.0)),
        "us",
        "wall",
    );
    m.add(
        "op.put_p99_us",
        us(percentile(&mut lp.put_ns.clone(), 99.0)),
        "us",
        "wall",
    );
    m.add("host.ref_ns", median(&r.host), "ns", "wall");
    m.add(
        "trace.overhead_frac",
        trace_overhead(&lp.chunk_get_p50),
        "ratio",
        "wall",
    );
    let c = trace.coverage("op", COVER_SHARE);
    let covered_frac = c.covered as f64 / c.spans.max(1) as f64;
    m.add("trace.ops_covered_frac", covered_frac, "ratio", "wall");
    m
}

/// The raw figures behind the metrics, for a reader of the output.
fn print_details(r: &Run) {
    let lp = &r.lp;
    println!(
        "direct: {} ops ({} gets, {} puts) in {:.3} s; {} failed, {} wrong values",
        lp.ops,
        lp.ops - lp.puts,
        lp.puts,
        lp.wall_s,
        lp.failed,
        lp.wrong
    );
    println!(
        "direct windows: {} ({} quiet), compaction cycles: {}; whole loop {:.1} ops/s, get p50 {:.3} us, put p50 {:.3} us",
        lp.windows.len(),
        direct::quiet(&lp.windows).len(),
        lp.cycles.len(),
        lp.ops as f64 / lp.wall_s,
        us(percentile(&mut lp.get_ns.clone(), 50.0)),
        us(percentile(&mut lp.put_ns.clone(), 50.0))
    );
    println!(
        "replay: {} x {} ops ({} latency samples in the first), build {:.3} s, measure {} s, {} failed",
        r.rp.measure_s.len(),
        r.rp.run.ops,
        r.rp.virt().samples,
        r.rp.build_s,
        list(&r.rp.measure_s, 3),
        r.rp.failed
    );
    println!("setup_s runs: {}", list(&r.setup_s, 4));
    println!("host.ref_ns start {:.0} end {:.0}", r.host[0], r.host[1]);
    println!(
        "fail_frac {:.6} ratio ({} failed of {} attempted, both phases)",
        r.failed() as f64 / r.attempted().max(1) as f64,
        r.failed(),
        r.attempted()
    );
    if lp.compactions > 0 {
        println!(
            "journal.compact_ms {:.4} ms (mean of {})",
            lp.compact_ns as f64 / 1e6 / lp.compactions as f64,
            lp.compactions
        );
    }
    if let Some(Ok(s)) = r.restart {
        println!("journal.recover_s {s:.6} s (restart check: digests equal)");
    }
}

/// Self time per span name, op coverage, and the span file.
fn print_trace(w: &Workload, args: &Args, trace: &Trace) {
    println!("== self time per layer (traced spans)");
    let total: u64 = trace
        .spans()
        .filter(|s| s.parent == ROOT)
        .map(|s| s.dur())
        .sum();
    for (name, l) in trace.layer_times() {
        println!(
            "{name:<20} {:>9} spans {:>12.3} ms self {:>7.2} % of root time",
            l.count,
            l.self_ns as f64 / 1e6,
            100.0 * l.self_ns as f64 / total.max(1) as f64
        );
    }
    let c = trace.coverage("op", COVER_SHARE);
    println!(
        "op spans: {} traced; children cover >= 95 % of {}, least covered {:.1} %",
        c.spans,
        c.covered,
        100.0 * c.least
    );
    let path = PathBuf::from("perfbench/traces").join(format!("{}-seed{}.tsv", w.name, args.seed));
    match trace.write(&path) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => println!("trace not written ({}): {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::by_name(&args.workload) else {
        let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (known: {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} clients={} keys={} value={}B",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.clients,
        w.keys(),
        w.value_size()
    );
    let mut trace = Trace::new(args.trace);
    let run = match measure(&w, &args, &CostModel::default(), &mut trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let problems = problems(&w, &run);
    print_details(&run);
    let e2e = end_to_end(&run);
    e2e.print("end-to-end");
    let metrics = if args.trace {
        let layers = per_layer(&w, &run, &trace);
        layers.print("per-layer");
        print_trace(&w, &args, &trace);
        layers.json()
    } else {
        e2e.json()
    };
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        problems.is_empty(),
        run.attempted(),
        run.failed()
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
