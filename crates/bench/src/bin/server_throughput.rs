//! Server front-end scaling benchmark: the library's event-driven readiness
//! loop vs a thread-per-connection blocking baseline that lives only here.
//!
//! Simulates fleets of tuning clients as open TCP connections issuing
//! `status` pings: per stage it reports sustained requests/s over pipelined
//! sweeps (every connection writes, then every connection reads), round-trip
//! p50/p95/p99 latency, and the resident-memory cost per held connection —
//! for the blocking core at `--baseline` connections and the event core at
//! each `--clients` stage (default 1000,10000).
//!
//! Writes `BENCH_server_throughput.json` (override with `--out PATH`). The
//! headline criteria assert the event core holds ≥5× the baseline's
//! connection count at no worse memory per connection, while staying
//! responsive at both fleet sizes. The scaling criteria are only emitted on
//! a full-size run (baseline ≥500 and top stage ≥5000); the CI smoke run
//! (`--clients 100,400 --baseline 50 --sweeps 3`) checks responsiveness
//! only.
//!
//! Run with: `cargo run --release -p baco-bench --bin server_throughput`

use baco::server::{raise_nofile_limit, ServerHandle, ServerOptions};
use baco_bench::emit;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const REQUEST: &[u8] = b"{\"op\":\"status\",\"id\":1}\n";

/// The thread-per-connection baseline: one accept thread, one handler
/// thread per connection over [`ServerHandle::handle_line`], and past
/// `max_connections` a hard `busy` refusal (one line, then close).
struct BlockingServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl BlockingServer {
    fn start(handle: &ServerHandle, max_connections: usize) -> BlockingServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local_addr");
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let (handle, stop2) = (handle.clone(), Arc::clone(&stop));
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = conn else {
                    // Persistent accept errors (fd exhaustion) must not
                    // busy-spin the core that connection teardown needs.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    continue;
                };
                if active.fetch_add(1, Ordering::SeqCst) >= max_connections {
                    active.fetch_sub(1, Ordering::SeqCst);
                    let busy =
                        r#"{"ok":false,"error":{"kind":"busy","msg":"connection limit reached"}}"#;
                    let _ = writeln!(stream, "{busy}");
                    continue; // dropped → closed
                }
                let (handle, active) = (handle.clone(), Arc::clone(&active));
                std::thread::spawn(move || {
                    serve_connection(&handle, stream);
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        BlockingServer { addr, stop, accept }
    }

    /// Stops accepting; connections already served run until their client
    /// disconnects.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the listener so the blocking accept observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
    }
}

/// One baseline connection: request line in, reply line out, until EOF or
/// an I/O error.
fn serve_connection(handle: &ServerHandle, stream: TcpStream) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        if matches!(reader.read_until(b'\n', &mut buf), Ok(0) | Err(_)) {
            break;
        }
        let line = String::from_utf8_lossy(&buf);
        let reply = handle.handle_line(line.trim_end_matches(['\n', '\r']));
        if writeln!(writer, "{reply}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
    }
}

struct Args {
    clients: Vec<usize>,
    baseline: usize,
    sweeps: usize,
    out: String,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let val = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let clients = val("--clients")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--clients takes N,N,..."))
                .collect()
        })
        .unwrap_or_else(|| vec![1_000, 10_000]);
    Args {
        clients,
        baseline: val("--baseline")
            .map(|v| v.parse().expect("--baseline N"))
            .unwrap_or(1_000),
        sweeps: val("--sweeps")
            .map(|v| v.parse().expect("--sweeps N"))
            .unwrap_or(5),
        out: val("--out").unwrap_or_else(|| "BENCH_server_throughput.json".to_string()),
    }
}

/// Resident-set size of this process in bytes (client + server side — both
/// cores pay the identical client cost, so stage deltas compare server cost).
fn rss_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0)
}

struct Fleet {
    // One buffered stream per connection (write side via `get_mut`), so a
    // simulated client costs exactly one fd here and one on the server.
    conns: Vec<BufReader<TcpStream>>,
}

impl Fleet {
    fn connect(addr: SocketAddr, n: usize) -> Fleet {
        let mut conns = Vec::with_capacity(n);
        for i in 0..n {
            let s =
                TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i}/{n} failed: {e}"));
            let _ = s.set_nodelay(true);
            conns.push(BufReader::new(s));
            if i % 512 == 511 {
                // Let the accept side drain so the listen queue never
                // overflows into connect timeouts.
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        Fleet { conns }
    }

    /// One pipelined sweep: every connection writes the ping, then every
    /// connection reads its reply. Returns the number of requests served.
    fn sweep(&mut self) -> usize {
        for c in &mut self.conns {
            c.get_mut().write_all(REQUEST).expect("write ping");
        }
        let mut line = String::new();
        for c in &mut self.conns {
            line.clear();
            c.read_line(&mut line).expect("read reply");
            assert!(line.contains("\"ok\":true"), "ping failed: {line}");
        }
        self.conns.len()
    }

    /// Individual round-trip latencies, one per connection, in milliseconds.
    fn round_trips_ms(&mut self) -> Vec<f64> {
        let mut samples = Vec::with_capacity(self.conns.len());
        let mut line = String::new();
        for c in &mut self.conns {
            let t = Instant::now();
            c.get_mut().write_all(REQUEST).expect("write ping");
            line.clear();
            c.read_line(&mut line).expect("read reply");
            samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
        samples
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct StageResult {
    core: &'static str,
    conns: usize,
    rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    rss_per_conn: f64,
}

/// Holds `conns` open connections against a freshly started server of the
/// given core and measures throughput, latency and resident cost.
fn run_stage(core: &'static str, conns: usize, sweeps: usize) -> StageResult {
    // A pipelined sweep has the whole fleet outstanding at once by design;
    // size the shed threshold to the fleet so the stage measures the core's
    // capacity, not the load-shedding policy.
    let handle = ServerHandle::new(ServerOptions {
        max_connections: conns + 64,
        max_outstanding: conns + 64,
        ..ServerOptions::default()
    });
    let (addr, stop): (SocketAddr, Box<dyn FnOnce()>) = if core == "event" {
        let tcp = handle.serve("127.0.0.1:0").expect("serve");
        (tcp.addr(), Box::new(move || tcp.stop()))
    } else {
        let blocking = BlockingServer::start(&handle, conns + 64);
        (blocking.addr, Box::new(move || blocking.stop()))
    };

    let rss_before = rss_bytes();
    let mut fleet = Fleet::connect(addr, conns);
    fleet.sweep(); // warm-up: faults in every buffer/thread before measuring
    let rss_open = rss_bytes();

    let t = Instant::now();
    let mut served = 0usize;
    for _ in 0..sweeps {
        served += fleet.sweep();
    }
    let rps = served as f64 / t.elapsed().as_secs_f64();

    let mut lat = fleet.round_trips_ms();
    lat.sort_by(f64::total_cmp);
    let result = StageResult {
        core,
        conns,
        rps,
        p50_ms: percentile(&lat, 0.50),
        p95_ms: percentile(&lat, 0.95),
        p99_ms: percentile(&lat, 0.99),
        rss_per_conn: (rss_open - rss_before).max(0.0) / conns as f64,
    };
    println!(
        "{core:>8} core  {conns:>6} conns  {rps:>9.0} req/s  p50 {:>7.3} ms  p95 {:>7.3} ms  p99 {:>7.3} ms  {:>7.0} B/conn",
        result.p50_ms, result.p95_ms, result.p99_ms, result.rss_per_conn
    );
    drop(fleet);
    stop();
    result
}

fn main() {
    let mut args = parse_args();

    // Both connection ends live in this process: clamp stages to the fd
    // budget we can actually obtain.
    let top = args
        .clients
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(args.baseline);
    let limit = raise_nofile_limit(2 * top as u64 + 2_000);
    let cap = (limit.saturating_sub(1_000) / 2) as usize;
    for n in args
        .clients
        .iter_mut()
        .chain(std::iter::once(&mut args.baseline))
    {
        if *n > cap {
            println!("note: fd limit {limit} caps a {n}-connection stage to {cap}");
            *n = cap;
        }
    }

    println!(
        "server front-end scaling: blocking baseline at {} conns, event core at {:?} conns, {} sweeps\n",
        args.baseline, args.clients, args.sweeps
    );
    let baseline = run_stage("blocking", args.baseline, args.sweeps);
    let stages: Vec<StageResult> = args
        .clients
        .iter()
        .map(|&n| run_stage("event", n, args.sweeps))
        .collect();

    let low = stages.first().expect("at least one --clients stage");
    let high = stages.last().expect("at least one --clients stage");

    // Responsiveness always; the scaling claims only when the run is big
    // enough to mean anything (the CI smoke is not).
    let mut checks = vec![
        emit::Check::ge("event_rps_at_low_stage", low.rps, 2_000.0),
        emit::Check::le("event_p99_ms_at_low_stage", low.p99_ms, 1_000.0),
        emit::Check::le("event_p99_ms_at_high_stage", high.p99_ms, 10_000.0),
    ];
    if args.baseline >= 500 && high.conns >= 5_000 {
        checks.push(emit::Check::ge(
            "event_vs_blocking_connection_ratio",
            high.conns as f64 / baseline.conns as f64,
            5.0,
        ));
        checks.push(emit::Check::ge(
            "blocking_vs_event_memory_per_conn_ratio",
            baseline.rss_per_conn / high.rss_per_conn.max(1.0),
            1.0,
        ));
    }

    let mut json = String::from("{\n  \"benchmark\": \"server_throughput\",\n");
    json.push_str(&format!(
        "  \"sweeps\": {},\n  \"stages\": [\n",
        args.sweeps
    ));
    let all: Vec<&StageResult> = std::iter::once(&baseline).chain(stages.iter()).collect();
    for (i, s) in all.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"core\": \"{}\", \"conns\": {}, \"rps\": {:.0}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"rss_per_conn_bytes\": {:.0}}}{}\n",
            s.core,
            s.conns,
            s.rps,
            s.p50_ms,
            s.p95_ms,
            s.p99_ms,
            s.rss_per_conn,
            if i + 1 < all.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&emit::criteria_block(&checks));
    json.push_str("}\n");
    std::fs::write(&args.out, &json).unwrap();
    println!("\nwrote {}", args.out);
    emit::print_criteria(&checks);
}
