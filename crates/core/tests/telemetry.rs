//! Live-telemetry integration: scraping the OpenMetrics endpoint
//! while `tune_many` runs, and flight-recorder dumps from chaos runs.
//!
//! Sinks and the metrics registry are process-global, so every test
//! here serializes on one mutex and tears its telemetry down before
//! releasing it (the same discipline as `observability.rs`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use obs::EventKind;
use seamless_core::service::TenantRequest;
use seamless_core::{
    DiscObjective, FaultInjector, FaultPlan, HistoryStore, RetryPolicy, SeamlessTuner,
    ServiceConfig, SimEnvironment, TunerKind, TuningSession,
};
use simcluster::ClusterSpec;
use workloads::{DataScale, Pagerank, Wordcount, Workload};

fn global_obs_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "seamless_telemetry_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn scrape_during_tune_many_shows_per_tenant_slo() {
    let _guard = global_obs_lock().lock().unwrap_or_else(|e| e.into_inner());
    obs::registry().clear();

    let mut server = obs::MetricsServer::start("127.0.0.1:0").expect("bind scrape endpoint");
    let addr = server.local_addr();

    // Scrape continuously while the multi-tenant batch tunes, from a
    // second thread — the endpoint must never block or wedge the
    // tuner, and every response must be well-formed.
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut responses = 0u64;
            while !stop.load(Ordering::Acquire) {
                let response = scrape(addr);
                assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
                assert!(response.ends_with("# EOF\n"), "truncated: {response}");
                responses += 1;
            }
            responses
        })
    };

    let svc = SeamlessTuner::new(
        Arc::new(HistoryStore::new()),
        SimEnvironment::dedicated(31),
        ServiceConfig {
            stage1_budget: 3,
            stage2_budget: 5,
            transfer_k: 0,
            ..ServiceConfig::default()
        },
    );
    let job = Wordcount::new().job(DataScale::Tiny);
    let requests: Vec<TenantRequest> = ["alice", "bob", "carol"]
        .iter()
        .enumerate()
        .map(|(i, client)| TenantRequest {
            client: (*client).to_string(),
            workload: format!("wc-{client}"),
            job: job.clone(),
            seed: 100 + i as u64,
        })
        .collect();
    let outcomes = svc.tune_many(&requests);
    assert_eq!(outcomes.len(), 3);

    stop.store(true, Ordering::Release);
    let mid_run_scrapes = scraper.join().expect("scraper thread");
    assert!(mid_run_scrapes >= 1, "at least one scrape raced the tune");

    // The final scrape must expose the per-tenant SLO series the
    // tracker published during the batch.
    let response = scrape(addr);
    let body = response.split("\r\n\r\n").nth(1).expect("http body");
    for tenant in ["alice", "bob", "carol"] {
        assert!(
            body.contains(&format!("slo_within_10pct_ratio{{tenant=\"{tenant}\"}}")),
            "missing SLO gauge for {tenant}:\n{body}"
        );
        assert!(
            body.contains(&format!(
                "slo_tuning_cost_cents_total{{tenant=\"{tenant}\"}}"
            )),
            "missing cost counter for {tenant}:\n{body}"
        );
        assert!(
            body.contains(&format!("slo_retune_amortization{{tenant=\"{tenant}\"}}")),
            "missing amortization gauge for {tenant}:\n{body}"
        );
    }
    assert!(body.contains("# TYPE slo_within_10pct_ratio gauge"));
    // Per-tenant tune latency is one histogram family with a tenant
    // label, not a metric name per tenant.
    assert_eq!(body.matches("# TYPE service_tenant_tune_s ").count(), 1);
    for tenant in ["alice", "bob", "carol"] {
        assert!(
            body.contains(&format!(
                "service_tenant_tune_s_count{{tenant=\"{tenant}\"}} 1"
            )),
            "missing tune latency for {tenant}:\n{body}"
        );
    }
    assert!(!body.contains("service_tenant_alice"), "{body}");
    assert!(body.contains("service_tunings_total 3"), "{body}");

    // Tracker-side stats agree with what the endpoint serves.
    let stats = svc.slo().stats("alice").expect("alice was tuned");
    assert_eq!(stats.tunes, 1);
    assert!(stats.cost_cents > 0.0);

    server.shutdown();
    obs::registry().clear();
}

/// One chaos-heavy resilient session with the flight recorder armed:
/// enough injected errors to blow a tiny round-failure budget, which
/// must leave a `budget_exhausted` dump behind.
fn chaos_session_with_recorder(seed: u64, dump_dir: &PathBuf) -> Vec<PathBuf> {
    let recorder = obs::flightrec::install(8192, dump_dir);
    obs::registry().clear();

    let objective = DiscObjective::new(
        ClusterSpec::table1_testbed(),
        Pagerank::new().job(DataScale::Tiny),
        &SimEnvironment::dedicated(7),
    );
    let session = TuningSession::new(TunerKind::Random, 11)
        .with_batch(4)
        .with_resilience(
            RetryPolicy {
                max_attempts: 1,
                round_failure_budget: 1,
                ..RetryPolicy::default()
            },
            FaultInjector::new(seed, FaultPlan::errors(0.9)),
        );
    let outcome = session.run(&objective, 12);
    let report = outcome.degradation.expect("every session reports");
    assert!(
        report.budget_exhausted,
        "90% errors against a budget of 1 must exhaust it"
    );
    assert!(recorder.dumps() >= 1, "exhaustion must trigger a dump");

    obs::flightrec::uninstall();
    obs::uninstall_all();

    let mut dumps: Vec<PathBuf> = std::fs::read_dir(dump_dir)
        .expect("dump dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    dumps.sort();
    dumps
}

fn span_name_multiset(dump: &PathBuf) -> Vec<String> {
    let text = std::fs::read_to_string(dump).expect("readable dump");
    let events = obs::parse_chrome_trace(&text).expect("dump parses as Chrome trace");
    assert!(!events.is_empty(), "dump must not be empty");
    let mut names: Vec<String> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart)
        .map(|e| e.name.clone())
        .collect();
    names.sort();
    names
}

#[test]
fn chaos_flight_dump_parses_and_is_deterministic_per_seed() {
    let _guard = global_obs_lock().lock().unwrap_or_else(|e| e.into_inner());

    let dir_a = temp_dir("chaos_a");
    let dumps_a = chaos_session_with_recorder(77, &dir_a);
    assert!(
        dumps_a
            .iter()
            .any(|p| p.to_string_lossy().contains("budget_exhausted")),
        "expected a budget_exhausted dump, got {dumps_a:?}"
    );
    let names_a = span_name_multiset(&dumps_a[0]);
    assert!(
        names_a.iter().any(|n| n.starts_with("proposal")),
        "chaos trace still contains tuning spans: {names_a:?}"
    );

    // Same chaos seed → the same trial stream fails the same way → the
    // same span-name multiset in the dump (order-insensitive: thread
    // interleaving may differ, the work must not).
    let dir_b = temp_dir("chaos_b");
    let dumps_b = chaos_session_with_recorder(77, &dir_b);
    let names_b = span_name_multiset(&dumps_b[0]);
    assert_eq!(names_a, names_b, "flight dumps must be seed-deterministic");

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
