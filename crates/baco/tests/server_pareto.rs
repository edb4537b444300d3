//! Multi-objective (Pareto) behavior over the server wire protocol,
//! asserted over **both** drivers — the in-process dispatch path and the
//! event-driven TCP front end — so the readiness loop is held to the exact
//! contract of `handle_line`.
//!
//! The load-bearing case: a multi-objective session created *without* a
//! `reference_point`. The dominated hypervolume is undefined there, and the
//! server must say so in a typed way — `best` and `status` reply `ok:true`
//! with the front / front size and `hypervolume: null` plus a
//! `note: "no_reference_point"` — never an internal error.

mod common;

use baco::journal::json::Json;
use baco::server::{ServerHandle, ServerOptions};
use common::{expect_ok, int_space as space, int_space_spec_line as space_spec_line, Driver};

const BUDGET: usize = 8;

/// Creates a 2-objective session; `reference` controls whether the create
/// carries a `reference_point`.
fn create_mo(drv: &dyn Driver, name: &str, reference: bool, strategy: Option<&str>) {
    let reference = if reference {
        r#","reference_point":[200.0,40.0]"#
    } else {
        ""
    };
    let strategy = match strategy {
        Some(s) => format!(r#","mo_strategy":"{s}""#),
        None => String::new(),
    };
    expect_ok(
        drv,
        &format!(
            r#"{{"op":"create_session","session":"{name}","budget":{BUDGET},"doe_samples":4,"seed":11,"objectives":2{reference}{strategy},"space":{}}}"#,
            space_spec_line()
        ),
    );
}

/// Runs the session to budget exhaustion on a deterministic two-objective
/// trade-off (latency falls with `a`, area rises with it).
fn exhaust(drv: &dyn Driver, name: &str) {
    loop {
        let reply = expect_ok(drv, &format!(r#"{{"op":"ask","session":"{name}"}}"#));
        let cfg = reply.get("config").unwrap().clone();
        if cfg == Json::Null {
            return;
        }
        let a = cfg.get("a").and_then(Json::as_f64).unwrap();
        let b = cfg.get("b").and_then(Json::as_f64).unwrap();
        expect_ok(
            drv,
            &format!(
                r#"{{"op":"report","session":"{name}","config":{},"values":[{},{}]}}"#,
                cfg.to_line(),
                1.0 + (15.0 - a) + b * 0.2,
                1.0 + 2.0 * a
            ),
        );
    }
}

/// Asserts the typed no-reference contract on `best` and `status`, and the
/// numeric hypervolume when a reference point exists.
fn pareto_replies_are_typed(drv: &dyn Driver) {
    // Without a reference point: full front, hypervolume null + typed note.
    create_mo(drv, "noref", false, None);
    exhaust(drv, "noref");

    let best = expect_ok(drv, r#"{"op":"best","session":"noref"}"#);
    let front = best.get("front").and_then(Json::as_arr).unwrap();
    assert!(!front.is_empty(), "a completed session has a front");
    for point in front {
        assert!(point.get("config").is_some());
        assert_eq!(point.get("values").and_then(Json::as_arr).unwrap().len(), 2);
    }
    assert_eq!(best.get("hypervolume"), Some(&Json::Null));
    assert_eq!(
        best.get("note").and_then(Json::as_str),
        Some("no_reference_point")
    );

    let status = expect_ok(drv, r#"{"op":"status","session":"noref"}"#);
    assert_eq!(
        status.get("len").and_then(Json::as_f64),
        Some(BUDGET as f64)
    );
    assert_eq!(
        status.get("front_size").and_then(Json::as_f64),
        Some(front.len() as f64),
        "status and best agree on the front"
    );
    assert_eq!(status.get("hypervolume"), Some(&Json::Null));
    assert_eq!(
        status.get("note").and_then(Json::as_str),
        Some("no_reference_point")
    );

    // With a reference point: same shape, but hypervolume is a number and
    // there is no note.
    create_mo(drv, "withref", true, None);
    exhaust(drv, "withref");
    for op in ["best", "status"] {
        let reply = expect_ok(drv, &format!(r#"{{"op":"{op}","session":"withref"}}"#));
        assert!(
            reply.get("hypervolume").and_then(Json::as_f64).unwrap() > 0.0,
            "{op}: hypervolume must be numeric with a reference point"
        );
        assert_eq!(
            reply.get("note"),
            None,
            "{op}: no note when hypervolume is defined"
        );
    }
}

#[test]
fn no_reference_point_replies_are_typed_in_process() {
    let srv = ServerHandle::new(ServerOptions::default());
    pareto_replies_are_typed(&srv);
}

#[test]
fn no_reference_point_replies_are_typed_over_event_tcp() {
    let srv = ServerHandle::new(ServerOptions::default());
    let tcp = srv.serve("127.0.0.1:0").unwrap();
    let drv = common::TcpDriver::new(tcp.addr());
    pareto_replies_are_typed(&drv);
    tcp.stop();
}

/// The `mo_strategy` knob changes the trajectory (EHVI vs ParEGO steer
/// different rounds) but never the reply shape; an explicit `"parego"`
/// session matches the builder's `ParEgo` trajectory bit for bit.
#[test]
fn mo_strategy_knob_selects_the_acquisition_over_the_wire() {
    use baco::tuner::Session;
    use baco::{Baco, Evaluation, MultiObjectiveStrategy};

    let srv = ServerHandle::new(ServerOptions::default());
    for (name, strategy) in [
        ("ehvi", Some("ehvi")),
        ("parego", Some("parego")),
        ("dflt", None),
    ] {
        create_mo(&srv, name, true, strategy);
        exhaust(&srv, name);
    }

    // Each session answers `best` with a numeric hypervolume regardless of
    // strategy, and the omitted knob behaves exactly like the default.
    let trajectory = |name: &str| -> Vec<String> {
        expect_ok(&srv, &format!(r#"{{"op":"best","session":"{name}"}}"#))
            .get("front")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(Json::to_line)
            .collect()
    };
    assert_eq!(
        trajectory("dflt"),
        trajectory("ehvi"),
        "omitted knob = EHVI default"
    );

    // The explicit-ParEGO wire session reproduces an in-process ParEGO run
    // with the same seed and evaluations, proving the knob reaches the core.
    let tuner = Baco::builder(space())
        .budget(BUDGET)
        .doe_samples(4)
        .seed(11)
        .objectives(2)
        .mo_strategy(MultiObjectiveStrategy::ParEgo)
        .reference_point(vec![200.0, 40.0])
        .build()
        .unwrap();
    let mut session = Session::new(tuner).unwrap();
    while let Some(cfg) = session.ask().unwrap() {
        let a = cfg.value("a").as_f64();
        let b = cfg.value("b").as_f64();
        let values = vec![1.0 + (15.0 - a) + b * 0.2, 1.0 + 2.0 * a];
        session
            .try_report(cfg, Evaluation::feasible_multi(values))
            .unwrap();
    }
    let reference: Vec<String> = session
        .history()
        .pareto_front()
        .iter()
        .map(|t| {
            let objs = t.objectives().unwrap();
            format!("{} -> {objs:?}", t.config)
        })
        .collect();
    let wire: Vec<String> = expect_ok(&srv, r#"{"op":"best","session":"parego"}"#)
        .get("front")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|p| {
            let cfg = baco::journal::decode_config(&space(), p.get("config").unwrap()).unwrap();
            let vals: Vec<f64> = p
                .get("values")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            format!("{cfg} -> {vals:?}")
        })
        .collect();
    assert_eq!(
        wire, reference,
        "wire ParEGO must match the in-process builder knob"
    );
}
