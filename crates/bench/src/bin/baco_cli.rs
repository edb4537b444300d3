//! `baco-cli` — the journaled tuning driver.
//!
//! Runs any taco-sim / gpu-sim / fpga-sim benchmark through the BaCO tuner
//! with crash-safe run journaling, resumes interrupted runs, and doubles as
//! the golden-fixture generator for `tests/golden_trajectories.rs`.
//!
//! ```text
//! baco-cli list [--scale test|small|large] [--journal-dir DIR]
//! baco-cli tune --bench NAME --journal PATH [--resume] [--budget N]
//!          [--doe N] [--seed S] [--batch Q] [--threads T]
//!          [--scale test|small|large] [--crash-after K]
//!          [--transfer] [--transfer-from DIR]
//! baco-cli best --bench NAME --journal PATH [--scale ...]
//! ```
//!
//! `list --journal-dir DIR` additionally scans the journal corpus at `DIR`:
//! healthy archived sessions are listed with their space fingerprint and
//! best value, while torn, corrupt, foreign or future-format files each get
//! one typed warning line on stderr — the scan never aborts on a bad file.
//!
//! `tune --transfer` mines a journal corpus for structurally-compatible
//! archived runs and seeds the new run from them (warm-started DoE order
//! plus a fleet prior mean for the GP). The corpus defaults to the
//! `--journal` file's directory — the fleet layout, where every session
//! journals into one shared directory — and `--transfer-from DIR` points
//! elsewhere. `client --transfer` requests the same server-side, against
//! the server's `--journal-dir`.
//!
//! `--crash-after K` aborts the process (exit 137, like a SIGKILL) as soon
//! as the black box is asked for its (K+1)-th evaluation — the journal then
//! ends exactly as a crash would leave it, which is what the CI
//! kill-and-resume smoke test exercises:
//!
//! ```text
//! baco-cli tune --bench BFS --journal run.jsonl --budget 20 --crash-after 9
//! baco-cli tune --bench BFS --journal run.jsonl --budget 20 --resume
//! baco-cli best --bench BFS --journal run.jsonl
//! ```
//!
//! `serve` / `client` are the end-to-end face of the multi-tenant tuning
//! server (`baco::server`): `serve` hosts journaled sessions behind the JSONL
//! TCP protocol, `client` drives one named session against a local `*-sim`
//! black box — evaluations run client-side, proposals and bookkeeping
//! server-side. Kill the server (even `kill -9`) and a restarted one resumes
//! every session from its journal:
//!
//! ```text
//! baco-cli serve --addr 127.0.0.1:7777 --journal-dir runs/
//! baco-cli client --addr 127.0.0.1:7777 --bench BFS --session bfs0 \
//!          --budget 20 [--batch Q] [--evals K] [--resume]
//! ```

use baco::benchmark::Benchmark;
use baco::journal::json::{self, Json};
use baco::journal::Journal;
use baco::server::{raise_nofile_limit, ServerHandle, ServerOptions};
use baco::tuner::{Baco, BlackBox, Evaluation};
use baco::Configuration;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use taco_sim::benchmarks::TacoScale;

struct Opts {
    bench: Option<String>,
    journal: Option<PathBuf>,
    resume: bool,
    budget: Option<usize>,
    doe: Option<usize>,
    seed: u64,
    batch: usize,
    threads: usize,
    scale: TacoScale,
    crash_after: Option<usize>,
    addr: Option<String>,
    session: Option<String>,
    journal_dir: Option<PathBuf>,
    max_conn: usize,
    evals: Option<usize>,
    transfer: bool,
    transfer_from: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  baco-cli list [--scale test|small|large] [--journal-dir DIR]\n  baco-cli tune --bench NAME --journal PATH [--resume] [--budget N] [--doe N]\n           [--seed S] [--batch Q] [--threads T] [--scale test|small|large]\n           [--crash-after K] [--transfer] [--transfer-from DIR]\n  baco-cli best --bench NAME --journal PATH [--scale test|small|large]\n  baco-cli serve --addr HOST:PORT [--journal-dir DIR] [--max-conn N]\n  baco-cli client --addr HOST:PORT --bench NAME --session ID [--budget N]\n           [--doe N] [--seed S] [--batch Q] [--evals K] [--resume] [--transfer]\n           [--scale test|small|large]"
    );
    std::process::exit(2);
}

fn parse(mut args: std::env::Args) -> (String, Opts) {
    let Some(cmd) = args.next() else { usage() };
    let mut o = Opts {
        bench: None,
        journal: None,
        resume: false,
        budget: None,
        doe: None,
        seed: 0,
        batch: 1,
        threads: 1,
        scale: TacoScale::Test,
        crash_after: None,
        addr: None,
        session: None,
        journal_dir: None,
        max_conn: 8192,
        evals: None,
        transfer: false,
        transfer_from: None,
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        let mut need = |flag: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        let parse_num = |flag: &str, v: String| -> usize {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} must be a non-negative integer");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--bench" => o.bench = Some(need("--bench")),
            "--journal" => o.journal = Some(PathBuf::from(need("--journal"))),
            "--resume" => o.resume = true,
            "--budget" => o.budget = Some(parse_num("--budget", need("--budget"))),
            "--doe" => o.doe = Some(parse_num("--doe", need("--doe"))),
            "--seed" => o.seed = parse_num("--seed", need("--seed")) as u64,
            "--batch" => o.batch = parse_num("--batch", need("--batch")).max(1),
            "--threads" => o.threads = parse_num("--threads", need("--threads")),
            "--crash-after" => {
                o.crash_after = Some(parse_num("--crash-after", need("--crash-after")))
            }
            "--addr" => o.addr = Some(need("--addr")),
            "--session" => o.session = Some(need("--session")),
            "--journal-dir" => o.journal_dir = Some(PathBuf::from(need("--journal-dir"))),
            "--max-conn" => o.max_conn = parse_num("--max-conn", need("--max-conn")).max(1),
            "--evals" => o.evals = Some(parse_num("--evals", need("--evals"))),
            "--transfer" => o.transfer = true,
            "--transfer-from" => {
                o.transfer = true;
                o.transfer_from = Some(PathBuf::from(need("--transfer-from")));
            }
            "--scale" => {
                o.scale = match need("--scale").as_str() {
                    "test" => TacoScale::Test,
                    "small" => TacoScale::Small,
                    "large" => TacoScale::Large,
                    other => {
                        eprintln!("unknown scale `{other}` (test|small|large)");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    (cmd, o)
}

/// Wraps a benchmark's black box so the process aborts — simulating a
/// SIGKILL — when evaluation `limit` would start.
struct CrashingBox<'a> {
    inner: &'a (dyn BlackBox + Send + Sync),
    evals: AtomicUsize,
    limit: usize,
}

impl BlackBox for CrashingBox<'_> {
    fn evaluate(&self, cfg: &Configuration) -> Evaluation {
        let n = self.evals.fetch_add(1, Ordering::SeqCst);
        if n >= self.limit {
            eprintln!("baco-cli: simulated crash before evaluation {}", n + 1);
            // Hard exit: no destructors, no flushing — the journal must
            // already be durable, exactly as under a real SIGKILL.
            std::process::exit(137);
        }
        self.inner.evaluate(cfg)
    }
}

fn lookup(o: &Opts) -> Benchmark {
    let Some(name) = o.bench.as_deref() else {
        eprintln!("--bench is required");
        usage();
    };
    let mut found = baco_bench::all_benchmarks_with_pareto(o.scale)
        .into_iter()
        .find(|b| b.name == name);
    if found.is_none() {
        // Convenience: case-insensitive and underscore/space tolerant.
        let canon = |s: &str| s.to_lowercase().replace([' ', '_', '-'], "");
        found = baco_bench::all_benchmarks_with_pareto(o.scale)
            .into_iter()
            .find(|b| canon(&b.name) == canon(name));
    }
    found.unwrap_or_else(|| {
        eprintln!("unknown benchmark `{name}`; try `baco-cli list`");
        std::process::exit(2);
    })
}

fn build_tuner(bench: &Benchmark, o: &Opts) -> Baco {
    let Some(journal) = o.journal.clone() else {
        eprintln!("--journal is required");
        usage();
    };
    // The corpus defaults to the journal's own directory — the fleet layout,
    // where every session journals into one shared directory.
    let corpus = o.transfer.then(|| {
        o.transfer_from.clone().unwrap_or_else(|| {
            let parent = journal
                .parent()
                .unwrap_or_else(|| std::path::Path::new("."));
            if parent.as_os_str().is_empty() {
                PathBuf::from(".")
            } else {
                parent.to_path_buf()
            }
        })
    });
    let mut builder = Baco::builder(bench.space.clone())
        .budget(o.budget.unwrap_or(bench.budget))
        .doe_samples(o.doe.unwrap_or(10))
        .seed(o.seed)
        .batch_size(o.batch)
        .eval_threads(o.threads)
        .objectives(bench.n_objectives())
        .journal_path(journal)
        .resume(o.resume);
    if let Some(dir) = corpus {
        builder = builder.transfer(dir);
    }
    if let Some(r) = bench.reference_point.clone() {
        builder = builder.reference_point(r);
    }
    builder.build().unwrap_or_else(|e| {
        eprintln!("tuner construction failed: {e}");
        std::process::exit(1);
    })
}

/// Lists the journal corpus at `dir`: one line per healthy archived session,
/// one typed warning per torn/corrupt/foreign/future-format file. A bad file
/// never aborts the listing — that is the corpus scan's contract.
fn list_corpus(dir: &Path) {
    let corpus = match baco::journal::corpus::scan(dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot scan journal corpus {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    println!(
        "corpus {}: {} archived session(s), {} skipped",
        dir.display(),
        corpus.entries.len(),
        corpus.skipped.len()
    );
    for e in &corpus.entries {
        let best = match e.best {
            Some(v) => v.to_string(),
            None => "-".to_string(),
        };
        println!(
            "{:22} fingerprint={:016x} objectives={} trials={:4} best={}",
            e.session, e.fingerprint, e.objectives, e.trials, best
        );
    }
    for (file, why) in &corpus.skipped {
        eprintln!("warning: skipped {file}: {why}");
    }
}

fn print_best(report: &baco::TuningReport) {
    if report.n_objectives() > 1 {
        // Multi-objective runs have no single incumbent: `best` is the
        // Pareto front (plus its hypervolume when a reference point is
        // journaled with the run).
        let front = report.pareto_front();
        if front.is_empty() {
            println!("no feasible evaluation in {} trials", report.len());
            return;
        }
        println!(
            "pareto front of {} points after {} evaluations",
            front.len(),
            report.len()
        );
        for t in front {
            let objs = t.objectives().expect("front trials are measured");
            let rendered: Vec<String> = objs.iter().map(|v| v.to_string()).collect();
            println!("pareto [{}] at {}", rendered.join(", "), t.config);
        }
        if let Some(hv) = report.hypervolume_vs_ref() {
            println!("hypervolume {hv}");
        }
        return;
    }
    match report.best() {
        Some(t) => println!(
            "best {} after {} evaluations at {}",
            t.value.expect("best is feasible"),
            report.len(),
            t.config
        ),
        None => println!("no feasible evaluation in {} trials", report.len()),
    }
}

/// One line-oriented protocol connection to a tuning server.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Jitter state for the `overloaded` retry backoff.
    rng: u64,
}

/// Retry budget when the server sheds load: 10 attempts spanning roughly
/// 25 ms … 6 s of cumulative jittered backoff.
const OVERLOAD_RETRIES: u32 = 10;

/// True when a reply is the server's typed load-shed error — the one wire
/// error that means "try again", not "give up".
fn is_overloaded(reply: &Json) -> bool {
    reply
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        == Some("overloaded")
}

/// Full-jitter exponential backoff: attempt `n` sleeps a uniform-random
/// slice of `[base/2, base]` where `base = 25ms · 2ⁿ`, capped at 2 s — so a
/// thundering herd of shed clients decorrelates instead of re-stampeding.
fn backoff_delay(attempt: u32, rng: &mut u64) -> std::time::Duration {
    let base_ms = 25u64.saturating_mul(1 << attempt.min(8)).min(2_000);
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let jitter = (*rng >> 33) % (base_ms / 2 + 1);
    std::time::Duration::from_millis(base_ms / 2 + jitter)
}

impl Conn {
    /// Connects with retries, so a client started alongside `serve` waits
    /// for the listener instead of flaking.
    fn connect(addr: &str) -> Conn {
        let mut last = None;
        for _ in 0..40 {
            match TcpStream::connect(addr) {
                Ok(s) => return Conn::over(s),
                Err(e) => last = Some(e),
            }
            std::thread::sleep(std::time::Duration::from_millis(250));
        }
        eprintln!(
            "cannot connect to {addr}: {}",
            last.expect("at least one attempt")
        );
        std::process::exit(1);
    }

    /// Wraps an established stream with Nagle's algorithm off (each request
    /// is one small write answered by one reply); the backoff jitter is
    /// seeded from the local port so concurrent clients desynchronize.
    fn over(s: TcpStream) -> Conn {
        if let Err(e) = s.set_nodelay(true) {
            eprintln!("warning: cannot set TCP_NODELAY: {e}");
        }
        let seed = 0x5ca1ab1eu64 ^ s.local_addr().map(|a| u64::from(a.port())).unwrap_or(1) << 17;
        let reader = BufReader::new(s.try_clone().unwrap_or_else(|e| {
            eprintln!("cannot clone stream: {e}");
            std::process::exit(1);
        }));
        Conn {
            reader,
            writer: s,
            rng: seed,
        }
    }

    /// One request line out, one reply line in. `overloaded` replies — the
    /// server shedding load — are retried with jittered exponential backoff
    /// instead of aborting the run; transport errors and every other
    /// `ok: false` reply still exit.
    fn request(&mut self, req: &Json) -> Json {
        for attempt in 0..=OVERLOAD_RETRIES {
            let reply = self.round_trip(req);
            if reply.get("ok") == Some(&Json::Bool(true)) {
                return reply;
            }
            if is_overloaded(&reply) && attempt < OVERLOAD_RETRIES {
                let pause = backoff_delay(attempt, &mut self.rng);
                eprintln!(
                    "server overloaded; retrying in {}ms (attempt {}/{OVERLOAD_RETRIES})",
                    pause.as_millis(),
                    attempt + 1
                );
                std::thread::sleep(pause);
                continue;
            }
            eprintln!("server error: {}", reply.to_line());
            std::process::exit(1);
        }
        unreachable!("retry loop returns or exits");
    }

    /// The raw write-line/read-line exchange behind [`Conn::request`].
    fn round_trip(&mut self, req: &Json) -> Json {
        // One write per request: the line and its newline leave in a single
        // segment, so no half-sent request waits on a delayed ACK.
        let mut out = req.to_line();
        out.push('\n');
        if self.writer.write_all(out.as_bytes()).is_err() {
            eprintln!("server connection lost (is the server still running?)");
            std::process::exit(1);
        }
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => {
                eprintln!("server closed the connection");
                std::process::exit(1);
            }
        }
        json::parse(line.trim_end()).unwrap_or_else(|e| {
            eprintln!("malformed server reply: {e}");
            std::process::exit(1);
        })
    }
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn run_serve(o: &Opts) {
    let Some(addr) = o.addr.as_deref() else {
        eprintln!("--addr is required");
        usage();
    };
    if let Some(dir) = &o.journal_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --journal-dir {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    // Ask for enough descriptors to actually hold --max-conn sockets (plus
    // listener/waker/journal headroom); shrink the guard to what we got.
    let fds = raise_nofile_limit(o.max_conn as u64 + 256);
    let max_connections = o.max_conn.min((fds.saturating_sub(128)) as usize).max(1);
    if max_connections < o.max_conn {
        eprintln!(
            "note: fd limit {fds} caps --max-conn {} to {max_connections}",
            o.max_conn
        );
    }
    let handle = ServerHandle::new(ServerOptions {
        journal_dir: o.journal_dir.clone(),
        max_connections,
        ..ServerOptions::default()
    });
    let tcp = handle.serve(addr).unwrap_or_else(|e| {
        eprintln!("cannot serve on {addr}: {e}");
        std::process::exit(1);
    });
    println!("baco-server listening on {}", tcp.addr());
    let _ = std::io::stdout().flush();
    tcp.join(); // serve until killed
}

fn run_client(o: &Opts) {
    let Some(addr) = o.addr.as_deref() else {
        eprintln!("--addr is required");
        usage();
    };
    let Some(session) = o.session.as_deref() else {
        eprintln!("--session is required");
        usage();
    };
    let bench = lookup(o);
    let mut conn = Conn::connect(addr);

    let mut create_fields = vec![
        ("op", Json::Str("create_session".into())),
        ("session", Json::Str(session.into())),
        ("space", baco::journal::space_spec(&bench.space)),
        ("budget", Json::Num(o.budget.unwrap_or(bench.budget) as f64)),
        ("doe_samples", Json::Num(o.doe.unwrap_or(10) as f64)),
        ("seed", Json::Str(o.seed.to_string())),
        ("resume", Json::Bool(o.resume)),
    ];
    if o.transfer {
        create_fields.push(("transfer", Json::Bool(true)));
    }
    if bench.n_objectives() > 1 {
        create_fields.push(("objectives", Json::Num(bench.n_objectives() as f64)));
        if let Some(r) = &bench.reference_point {
            create_fields.push((
                "reference_point",
                Json::Arr(r.iter().map(|&v| Json::Num(v)).collect()),
            ));
        }
    }
    let created = conn.request(&obj(create_fields));
    let mut len = created.get("len").and_then(Json::as_f64).unwrap_or(0.0) as usize;
    if let Some(donors) = created.get("transfer_donors").and_then(Json::as_f64) {
        let trials = created
            .get("donor_trials")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        println!(
            "transfer: {donors} donor session(s), {trials} archived trial(s) seeding session {session}"
        );
    }
    if created.get("resumed") == Some(&Json::Bool(true)) {
        println!("resumed session {session} with {len} evaluations on record");
    } else if o.resume {
        // The server refuses --resume outright when it has no journal dir;
        // reaching here means there was simply no journal yet.
        eprintln!("note: no journal for session {session} on the server — starting fresh");
    }

    'drive: loop {
        if o.evals.is_some_and(|k| len >= k) {
            println!("pausing session {session} after {len} evaluations");
            break;
        }
        let round = conn.request(&obj(vec![
            ("op", Json::Str("suggest_batch".into())),
            ("session", Json::Str(session.into())),
            ("q", Json::Num(o.batch as f64)),
        ]));
        let configs = round
            .get("configs")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .to_vec();
        if configs.is_empty() {
            break;
        }
        for cfg_json in configs {
            let cfg = baco::journal::decode_config(&bench.space, &cfg_json).unwrap_or_else(|e| {
                eprintln!("server proposed an undecodable configuration: {e}");
                std::process::exit(1);
            });
            let eval = bench.blackbox.evaluate(&cfg);
            let mut fields = vec![
                ("op", Json::Str("report".into())),
                ("session", Json::Str(session.into())),
                ("config", cfg_json),
            ];
            // encode_value keeps non-finite objectives tagged instead of
            // collapsing them to null; the server records anything
            // non-finite as a failed evaluation. Multi-objective
            // measurements travel as a `values` vector.
            match eval.values() {
                Some([v]) => fields.push(("value", baco::journal::encode_value(Some(*v)))),
                Some(vs) => fields.push((
                    "values",
                    Json::Arr(
                        vs.iter()
                            .map(|&v| baco::journal::encode_value(Some(v)))
                            .collect(),
                    ),
                )),
                None => fields.push(("feasible", Json::Bool(false))),
            }
            let reply = conn.request(&obj(fields));
            len = reply
                .get("len")
                .and_then(Json::as_f64)
                .unwrap_or(len as f64) as usize;
            if o.evals.is_some_and(|k| len >= k) {
                println!("pausing session {session} after {len} evaluations");
                break 'drive;
            }
        }
    }

    let best = conn.request(&obj(vec![
        ("op", Json::Str("best".into())),
        ("session", Json::Str(session.into())),
    ]));
    if let Some(front) = best.get("front").and_then(Json::as_arr) {
        println!(
            "pareto front of {} points after {len} evaluations",
            front.len()
        );
        for point in front {
            let values = point.get("values").map(Json::to_line).unwrap_or_default();
            let config = point.get("config").map(Json::to_line).unwrap_or_default();
            println!("pareto {values} at {config}");
        }
        if let Some(hv) = best.get("hypervolume").and_then(Json::as_f64) {
            println!("hypervolume {hv}");
        }
        return;
    }
    let value = best
        .get("value")
        .and_then(|v| baco::journal::decode_value(v).ok())
        .flatten();
    match (value, best.get("config")) {
        (Some(v), Some(cfg)) if *cfg != Json::Null => {
            println!("best {v} after {len} evaluations at {}", cfg.to_line());
        }
        _ => println!("no feasible evaluation in {len} trials"),
    }
}

fn main() {
    let mut args = std::env::args();
    args.next(); // argv[0]
    let (cmd, o) = parse(args);
    match cmd.as_str() {
        "serve" => run_serve(&o),
        "client" => run_client(&o),
        "list" => {
            for b in baco_bench::all_benchmarks_with_pareto(o.scale) {
                println!(
                    "{:22} {:14} dims={:2} budget={:3} kinds={:5} objectives={}",
                    b.name,
                    b.group.to_string(),
                    b.space.len(),
                    b.budget,
                    b.param_kinds(),
                    b.objective_names.join("+")
                );
            }
            if let Some(dir) = &o.journal_dir {
                list_corpus(dir);
            }
        }
        "tune" => {
            let bench = lookup(&o);
            let tuner = build_tuner(&bench, &o);
            let crashing;
            let bb: &(dyn BlackBox + Sync) = match o.crash_after {
                Some(k) => {
                    crashing = CrashingBox {
                        inner: bench.blackbox.as_ref(),
                        evals: AtomicUsize::new(0),
                        limit: k,
                    };
                    &crashing
                }
                None => bench.blackbox.as_ref(),
            };
            let report = if o.batch > 1 {
                tuner.run_batched(bb)
            } else {
                tuner.run(bb)
            }
            .unwrap_or_else(|e| {
                eprintln!("tuning failed: {e}");
                std::process::exit(1);
            });
            print_best(&report);
        }
        "best" => {
            let bench = lookup(&o);
            let Some(path) = o.journal.as_deref() else {
                eprintln!("--journal is required");
                usage();
            };
            let journal = Journal::load(path, &bench.space).unwrap_or_else(|e| {
                eprintln!("cannot read journal: {e}");
                std::process::exit(1);
            });
            let mut report = baco::TuningReport::new("BaCO");
            report.set_reference_point(bench.reference_point.clone());
            for tr in &journal.trials {
                report.push(tr.to_trial());
            }
            print_best(&report);
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A scripted server: accepts one connection and answers each request
    /// line with the next canned reply, echoing nothing, thinking never.
    fn scripted(replies: Vec<String>) -> (std::net::SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut w = s;
            let mut served = 0usize;
            for reply in replies {
                let mut line = String::new();
                if r.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                writeln!(w, "{reply}").unwrap();
                served += 1;
            }
            served
        });
        (addr, h)
    }

    #[test]
    fn client_retries_through_overloaded_replies() {
        let shed = r#"{"id":7,"ok":false,"error":{"kind":"overloaded","msg":"busy"}}"#.to_string();
        let ok = r#"{"id":7,"ok":true,"sessions":0}"#.to_string();
        let (addr, server) = scripted(vec![shed.clone(), shed.clone(), shed, ok]);
        let mut conn = Conn::over(TcpStream::connect(addr).unwrap());
        let reply = conn.request(&obj(vec![
            ("op", Json::Str("status".into())),
            ("id", Json::Num(7.0)),
        ]));
        // The three shed replies were absorbed by backoff-and-retry; the
        // caller only ever sees the eventual success.
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        drop(conn);
        assert_eq!(
            server.join().unwrap(),
            4,
            "three retries plus the served attempt"
        );
    }

    #[test]
    fn overloaded_detection_is_kind_exact() {
        let shed = json::parse(r#"{"ok":false,"error":{"kind":"overloaded","msg":"x"}}"#).unwrap();
        let tuner = json::parse(r#"{"ok":false,"error":{"kind":"tuner","msg":"x"}}"#).unwrap();
        let ok = json::parse(r#"{"ok":true}"#).unwrap();
        assert!(is_overloaded(&shed));
        assert!(!is_overloaded(&tuner), "other failures are not retryable");
        assert!(!is_overloaded(&ok));
    }

    #[test]
    fn backoff_grows_exponentially_within_jitter_bounds() {
        let mut rng = 42u64;
        for attempt in 0..12 {
            let base = 25u64.saturating_mul(1 << attempt.min(8)).min(2_000);
            let d = backoff_delay(attempt, &mut rng).as_millis() as u64;
            assert!(
                d >= base / 2 && d <= base,
                "attempt {attempt}: {d}ms outside [{}, {base}]",
                base / 2
            );
        }
        // Jitter actually varies across states.
        let (mut a, mut b) = (1u64, 2u64);
        let draws: Vec<u64> = (0..8)
            .map(|_| backoff_delay(6, &mut a).as_millis() as u64)
            .collect();
        let other: Vec<u64> = (0..8)
            .map(|_| backoff_delay(6, &mut b).as_millis() as u64)
            .collect();
        assert_ne!(
            draws, other,
            "two clients must not share a backoff schedule"
        );
    }
}
