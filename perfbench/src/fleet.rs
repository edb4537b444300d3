//! `hpvm_fleet_tcp`: fpga-sim BFS, PreEuler and Audio sessions served by
//! the epoll server (`ServerHandle::serve`) over loopback. One client
//! thread holds two `TCP_NODELAY` connections; sessions are split between
//! them and served round-robin, one ask/report at a time, so every request
//! is a closed loop. Each unit (fleet) starts a fresh server.
//!
//! Fleet 0 is the durability check: its server journals every session to
//! the working directory, and each journal is reloaded and compared with
//! what the client saw. It is not timed, because every append there pays an
//! `fdatasync` on whatever disk the working directory is on. Every other
//! fleet is served from memory and timed.
//!
//! Traced timed fleets additionally mirror every request on an in-process
//! `ServerHandle` twin (pairing TCP against in-process cost) and replay each
//! round's model work locally; the traced durability fleet replays its
//! journals through a fresh `JournalWriter`.

use crate::ledger::{Obs, Replayer};
use crate::stats::{derive_seed, ms, us, Digest};
use crate::{drive, sys, Args, Outcome, SETUP_REPS};
use baco::benchmark::Benchmark;
use baco::journal::json::{self, Json};
use baco::journal::{self as journal, Journal, JournalWriter, Record};
use baco::search::FeasibleSampler;
use baco::server::{ServerHandle, ServerOptions, TcpServer};
use baco::tuner::Baco;
use baco::Configuration;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sessions per benchmark in one fleet.
const SEEDS_PER_BENCH: usize = 2;
/// Fleets in the fixed quality panel: the durability fleet and two timed.
const PANEL: usize = 3;
/// Client connections (the box has two cores).
const CONNS: usize = 2;
/// `status` pings per unit on an idle connection.
const STATUS_PINGS: usize = 100;

/// One benchmark of the fleet with its precomputed reference.
struct Kind {
    tag: &'static str,
    bench: Benchmark,
    default: f64,
}

/// One client-side session: what was proposed and measured.
struct Tenant {
    name: String,
    kind: usize,
    conn: usize,
    tuner: Baco,
    create: String,
    hist: Vec<Obs>,
    seen: HashSet<Configuration>,
    digest: Digest,
    replay: Option<Replayer>,
}

/// A line-oriented, Nagle-free client connection: each request goes out
/// in a single `write`.
struct Conn(BufReader<TcpStream>);

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(Conn(BufReader::new(s)))
    }

    /// One request/reply round trip: the parsed reply and its latency (ms).
    fn request(&mut self, line: &str) -> Result<(Json, f64), String> {
        let framed = format!("{line}\n");
        let mut reply = String::new();
        let t = Instant::now();
        self.0
            .get_mut()
            .write_all(framed.as_bytes())
            .map_err(|e| e.to_string())?;
        self.0.read_line(&mut reply).map_err(|e| e.to_string())?;
        let d = ms(t.elapsed());
        let j = json::parse(reply.trim_end()).map_err(|e| format!("bad reply `{reply}`: {e}"))?;
        Ok((j, d))
    }
}

fn is_ok(j: &Json) -> bool {
    j.get("ok") == Some(&Json::Bool(true))
}

fn value_json(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| format!("{v}"))
}

/// A running server with its client connections.
struct Served {
    tcp: TcpServer,
    conns: Vec<Conn>,
    /// The journal directory, for the durability fleet.
    dir: Option<PathBuf>,
}

pub fn run(args: &Args, out: &mut Outcome) {
    let mut kinds = Vec::new();
    for (tag, make) in [
        ("bfs", fpga_sim::benchmarks::bfs as fn() -> Benchmark),
        ("preeuler", fpga_sim::benchmarks::preeuler),
        ("audio", fpga_sim::benchmarks::audio),
    ] {
        let bench = make();
        match bench.default_value() {
            Some(default) => kinds.push(Kind {
                tag,
                bench,
                default,
            }),
            None => out.check(false, || {
                format!("{tag}: default configuration is infeasible")
            }),
        }
    }
    if kinds.len() != 3 {
        return;
    }
    out.stamp("server_workers", ServerOptions::default().workers);
    out.stamp("journal_fs", sys::fs_type(&args.work));
    out.stamp("sessions_per_fleet", kinds.len() * SEEDS_PER_BENCH);
    drive(args, PANEL, out, |u, in_panel, out| {
        if let Err(e) = fleet(args, &kinds, u, in_panel, out) {
            out.op(false);
            out.check(false, || format!("fleet {u}: {e}"));
        }
    });
}

/// Starts a server (journaling into `dir` when given), connects, and
/// creates every session.
fn start(tenants: &[Tenant], dir: Option<PathBuf>, out: &mut Outcome) -> Result<Served, String> {
    if let Some(dir) = &dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let handle = ServerHandle::new(ServerOptions {
        journal_dir: dir.clone(),
        ..ServerOptions::default()
    });
    let tcp = handle.serve("127.0.0.1:0").map_err(|e| e.to_string())?;
    let conns = (0..CONNS)
        .map(|_| Conn::connect(tcp.addr()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let mut served = Served { tcp, conns, dir };
    for t in tenants {
        let (reply, d) = served.conns[t.conn].request(&t.create)?;
        out.op(is_ok(&reply));
        if served.dir.is_none() {
            out.led.create_ms.push(d);
        }
        if !is_ok(&reply) {
            return Err(format!("create {}: {}", t.name, reply.to_line()));
        }
    }
    Ok(served)
}

/// Disconnects and stops the server, returning its journal directory.
fn stop(served: Served) -> Option<PathBuf> {
    drop(served.conns);
    served.tcp.stop();
    served.dir
}

fn fleet(
    args: &Args,
    kinds: &[Kind],
    u: usize,
    in_panel: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let durable = u == 0;
    // Client-side bookkeeping (not part of set-up): the local tuner gives
    // the known-constraint check and, traced, the replay's options.
    let mut tenants = Vec::new();
    for (k, kind) in kinds.iter().enumerate() {
        for s in 0..SEEDS_PER_BENCH {
            let slot = tenants.len();
            let seed = derive_seed(args.seed, u, slot);
            let doe = 10.min(kind.bench.budget / 2);
            let name = format!("f{u}-{}-{s}", kind.tag);
            let tuner = Baco::builder(kind.bench.space.clone())
                .budget(kind.bench.budget)
                .doe_samples(doe)
                .seed(seed)
                .build()
                .map_err(|e| e.to_string())?;
            let create = format!(
                r#"{{"op":"create_session","session":"{name}","budget":{},"doe_samples":{doe},"seed":{seed},"space":{}}}"#,
                kind.bench.budget,
                journal::space_spec(&kind.bench.space).to_line()
            );
            tenants.push(Tenant {
                name,
                kind: k,
                conn: slot % CONNS,
                replay: None,
                tuner,
                create,
                hist: Vec::new(),
                seen: HashSet::new(),
                digest: Digest::default(),
            });
        }
    }

    let mut served = None;
    for rep in 0..SETUP_REPS {
        if let Some(dir) = served.take().and_then(stop) {
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = durable.then(|| args.work.join(format!("fleet{u}-{rep}")));
        let cpu = sys::process_cpu_s();
        served = Some(start(&tenants, dir, out)?);
        if !durable {
            out.setup_s.push(sys::process_cpu_s() - cpu);
        }
    }
    let mut served = served.expect("at least one set-up");

    // Traced timed fleets: an in-process twin of every session, plus the
    // local replay.
    let twin = (args.trace && !durable).then(|| ServerHandle::new(ServerOptions::default()));
    if let Some(twin) = &twin {
        for t in tenants.iter_mut() {
            let ok = is_ok(&json::parse(&twin.handle_line(&t.create)).unwrap_or(Json::Null));
            out.check(ok, || format!("{}: in-process twin create failed", t.name));
            let tm = Instant::now();
            let sampler = FeasibleSampler::new(t.tuner.space());
            out.led.cot_build_ms.push(ms(tm.elapsed()));
            out.check(sampler.is_ok(), || "FeasibleSampler::new failed".into());
            let mut r = Replayer::new(&t.tuner);
            r.doe(&t.tuner, &mut out.led);
            t.replay = Some(r);
        }
    }

    let t_run = Instant::now();
    let cpu_run = sys::process_cpu_s();
    let rounds = kinds.iter().map(|k| k.bench.budget).max().unwrap_or(0);
    for _ in 0..rounds {
        for t in tenants.iter_mut() {
            if t.hist.len() < kinds[t.kind].bench.budget {
                let conn = &mut served.conns[t.conn];
                round(t, &kinds[t.kind], conn, !durable, twin.as_ref(), out)?;
            }
        }
    }
    let run_s = t_run.elapsed().as_secs_f64();
    if !durable {
        out.run_s.push(run_s);
        out.run_cpu_s.push(sys::process_cpu_s() - cpu_run);
    }

    // Incumbent and budget agreement, then idle-connection pings.
    for t in &tenants {
        let budget = kinds[t.kind].bench.budget;
        let space = t.tuner.space();
        let (best, _) =
            served.conns[t.conn].request(&format!(r#"{{"op":"best","session":"{}"}}"#, t.name))?;
        out.op(is_ok(&best));
        let mine = client_best(&t.hist);
        let theirs = best
            .get("config")
            .and_then(|c| journal::decode_config(space, c).ok())
            .zip(best.get("value").and_then(Json::as_f64));
        out.check(
            mine.map(|(c, v)| (c.clone(), v.to_bits())) == theirs.map(|(c, v)| (c, v.to_bits())),
            || {
                format!(
                    "{}: `best` reply {} differs from the client incumbent",
                    t.name,
                    best.to_line()
                )
            },
        );
        let (status, _) = served.conns[t.conn]
            .request(&format!(r#"{{"op":"status","session":"{}"}}"#, t.name))?;
        out.op(is_ok(&status));
        let len = status.get("len").and_then(Json::as_f64);
        let remaining = status.get("remaining").and_then(Json::as_f64);
        out.check(len == Some(budget as f64) && remaining == Some(0.0), || {
            format!(
                "{}: status {} after a full budget",
                t.name,
                status.to_line()
            )
        });
    }
    for _ in 0..STATUS_PINGS {
        let (reply, d) = served.conns[0].request(r#"{"op":"status"}"#)?;
        out.op(is_ok(&reply));
        out.led.status_ms.push(d);
    }
    let status_p50 = out.led.status_ms.median();
    out.check(status_p50 < 1.0, || {
        format!("status p50 {status_p50:.3} ms: a Nagle stall?")
    });

    if let Some(dir) = stop(served) {
        for t in &tenants {
            check_journal(args, t, &dir, out)?;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    println!(
        "fleet {u} run_s {run_s:.3}{}",
        if durable {
            " (journaled, not timed)"
        } else {
            ""
        }
    );
    for t in &tenants {
        let best = client_best(&t.hist).map(|(_, v)| v);
        println!(
            "session {} seed {} digest {:016x} best {}{}",
            t.name,
            t.tuner.options().seed,
            t.digest.value(),
            value_json(best),
            if in_panel { "" } else { " (timing only)" }
        );
        out.check(best.is_some(), || format!("{}: nothing feasible", t.name));
        if let (true, Some(best)) = (in_panel, best) {
            out.vs_default.push(kinds[t.kind].default / best);
        }
    }
    Ok(())
}

/// One ask → evaluate → report round of one session over TCP. `timed`
/// rounds contribute their latencies to the metrics.
fn round(
    t: &mut Tenant,
    kind: &Kind,
    conn: &mut Conn,
    timed: bool,
    twin: Option<&ServerHandle>,
    out: &mut Outcome,
) -> Result<(), String> {
    let space = &kind.bench.space;
    let ask_line = format!(r#"{{"op":"ask","session":"{}"}}"#, t.name);
    let c0 = sys::process_cpu_s();
    let (reply, ask) = conn.request(&ask_line)?;
    let ask_cpu = (sys::process_cpu_s() - c0) * 1e3;
    let cfg = reply
        .get("config")
        .and_then(|c| journal::decode_config(space, c).ok());
    out.op(is_ok(&reply) && cfg.is_some());
    if timed {
        out.ask_cpu_ms.push(ask_cpu);
        out.ask_ms.push(ask);
        out.led.ask_ms.push(ask);
    }
    let Some(cfg) = cfg else {
        return Err(format!("{}: ask returned {}", t.name, reply.to_line()));
    };
    out.check(t.tuner.sampler().contains(&cfg), || {
        format!("{}: {cfg} violates a known constraint", t.name)
    });
    out.check(t.seen.insert(cfg.clone()), || {
        format!("{}: {cfg} proposed twice", t.name)
    });
    t.digest.add(&cfg.to_string());

    if let Some(twin) = twin {
        let tm = Instant::now();
        let mirrored = twin.handle_line(&ask_line);
        let inproc = ms(tm.elapsed());
        let same = json::parse(&mirrored).ok().and_then(|j| {
            j.get("config")
                .and_then(|c| journal::decode_config(space, c).ok())
        });
        out.check(same.as_ref() == Some(&cfg), || {
            format!("{}: in-process twin proposed {mirrored}", t.name)
        });
        out.led.ask_overhead_ms.push(ask - inproc);
        if let Some(r) = t.replay.as_mut() {
            let doe = t.tuner.options().doe_samples;
            let picks = usize::from(t.hist.len() >= doe);
            let excluded: HashSet<Configuration> = t.hist.iter().map(|(c, _)| c.clone()).collect();
            let replayed = r.round(&t.tuner, &t.hist, &excluded, picks, &mut out.led);
            if replayed > 0.0 {
                out.led.unattributed_ms.push(inproc - replayed);
            }
        }
    }

    let tm = Instant::now();
    let eval = kind.bench.blackbox.evaluate(&cfg);
    out.led.eval_us.push(us(tm.elapsed()));
    let value = eval.value().filter(|v| eval.is_feasible() && v.is_finite());
    let report_line = format!(
        r#"{{"op":"report","session":"{}","config":{},"value":{}}}"#,
        t.name,
        journal::encode_config(&cfg).to_line(),
        value_json(value)
    );
    let (reply, d) = conn.request(&report_line)?;
    out.op(is_ok(&reply));
    if timed {
        out.led.report_ms.push(d);
    }
    if let Some(twin) = twin {
        let tm = Instant::now();
        let mirrored = twin.handle_line(&report_line);
        out.led.report_inproc_us.push(us(tm.elapsed()));
        out.check(mirrored.contains(r#""ok":true"#), || {
            format!("{}: twin report {mirrored}", t.name)
        });
    }
    t.hist.push((cfg, value));
    Ok(())
}

/// The client-side incumbent: first-seen strict minimum, as the server's.
fn client_best(hist: &[Obs]) -> Option<(&Configuration, f64)> {
    let mut best: Option<(&Configuration, f64)> = None;
    for (c, v) in hist {
        if let Some(v) = *v {
            if best.is_none_or(|(_, b)| v < b) {
                best = Some((c, v));
            }
        }
    }
    best
}

/// Reloads a session's journal and compares it with what the client saw;
/// traced runs also replay its records through a fresh `JournalWriter`.
fn check_journal(args: &Args, t: &Tenant, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let path = dir.join(format!("{}.jsonl", t.name));
    let loaded = Journal::load(&path, t.tuner.space()).map_err(|e| e.to_string())?;
    let seen: Vec<(Configuration, Option<u64>)> = t
        .hist
        .iter()
        .map(|(c, v)| (c.clone(), v.map(f64::to_bits)))
        .collect();
    let journaled: Vec<(Configuration, Option<u64>)> = loaded
        .trials
        .iter()
        .map(|tr| {
            (
                tr.config.clone(),
                tr.value.filter(|_| tr.feasible).map(f64::to_bits),
            )
        })
        .collect();
    out.check(seen == journaled, || {
        format!("{}: journal trials differ from the client's", t.name)
    });
    let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
    let records = bytes
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        .saturating_sub(1);
    out.led
        .appends_per_eval
        .push(records as f64 / t.hist.len().max(1) as f64);

    if args.trace {
        let replay = args.work.join("append-replay.jsonl");
        let mut w = JournalWriter::create(&replay, &loaded.header).map_err(|e| e.to_string())?;
        let mut trials = loaded.trials.iter().peekable();
        for p in &loaded.proposes {
            let mut recs = vec![Record::Propose(p.clone())];
            while let Some(tr) = trials.next_if(|tr| tr.index < p.len + p.configs.len()) {
                recs.push(Record::Trial(tr.clone()));
            }
            for rec in recs {
                let tm = Instant::now();
                w.append(&rec).map_err(|e| e.to_string())?;
                out.led.journal_append_us.push(us(tm.elapsed()));
            }
        }
        drop(w);
        let _ = std::fs::remove_file(&replay);
    }
    Ok(())
}
