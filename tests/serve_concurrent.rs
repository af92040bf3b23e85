//! Multi-client hardening: the daemon's behavior is a pure function of
//! the connection-event order (fixed-seed interleaving test over
//! [`MuxServer`]), per-job SAM output does not depend on how clients
//! interleave, and a misbehaving client — mid-line disconnect, garbage
//! bytes — is dropped and counted instead of terminating the daemon.

#![cfg(unix)]

use std::collections::HashMap;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use repute_genome::rng::StdRng;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::profiles;
use repute_mappers::multiref::ReferenceSet;
use repute_serve::transport::{serve_socket, shutdown_over_socket, submit_over_socket, MuxServer};
use repute_serve::{JobEnvelope, JobResponse, JobStatus, ServeCore, ServeHarness, ServeOptions};

fn reference_set() -> ReferenceSet {
    let reference = ReferenceBuilder::new(120_000).seed(9301).build();
    ReferenceSet::build(vec![("chrC".to_string(), reference)])
}

/// Two jobs per simulated client, three clients, mixed tenants and
/// per-job δ overrides so several scheduler batches form.
fn client_jobs() -> Vec<Vec<JobEnvelope>> {
    let reference = ReferenceBuilder::new(120_000).seed(9301).build();
    let read = |name: &str, start: usize| -> Vec<(String, DnaSeq)> {
        vec![(name.to_string(), reference.subseq(start..start + 100))]
    };
    vec![
        vec![
            JobEnvelope::new("c0-a", read("r0a", 5_000)).with_tenant("acme"),
            JobEnvelope::new("c0-b", read("r0b", 15_000))
                .with_tenant("acme")
                .with_delta(5),
        ],
        vec![
            JobEnvelope::new("c1-a", read("r1a", 25_000)).with_tenant("lab"),
            JobEnvelope::new("c1-b", read("r1b", 35_000))
                .with_tenant("lab")
                .with_priority(3),
        ],
        vec![
            JobEnvelope::new("c2-a", read("r2a", 45_000)).with_tenant("edge"),
            JobEnvelope::new("c2-b", read("r2b", 55_000))
                .with_tenant("edge")
                .with_deadline(0.5),
        ],
    ]
}

/// Per-job SAM bytes from the uninterrupted single-submitter run: the
/// determinism reference every interleaving must reproduce.
fn reference_sam() -> HashMap<String, String> {
    let mut harness = ServeHarness::new(
        reference_set(),
        profiles::system1(),
        ServeOptions::default(),
    )
    .unwrap();
    for job in client_jobs().into_iter().flatten() {
        assert!(harness.submit(job).expect("journal I/O").is_none());
    }
    harness
        .drain()
        .expect("clean drain")
        .into_iter()
        .map(|r| (r.id.clone(), r.sam.expect("completed jobs carry SAM")))
        .collect()
}

/// Replays one seeded interleaving of the three clients' events through
/// [`MuxServer`] and returns each connection's response lines.
fn run_interleaving(seed: u64) -> Vec<Vec<String>> {
    let mut core = ServeCore::new(
        reference_set(),
        profiles::system1(),
        ServeOptions::default(),
    )
    .unwrap();
    let mut mux = MuxServer::new();
    // Per-connection event queues: the lines in order, then the EOF.
    // Ordering holds within a connection; the seed decides how the
    // connections interleave.
    let mut queues: Vec<Vec<Option<String>>> = client_jobs()
        .into_iter()
        .map(|jobs| {
            let mut q: Vec<Option<String>> = jobs.iter().map(|j| Some(j.to_json_line())).collect();
            q.push(None); // EOF marker
            q.reverse();
            q
        })
        .collect();
    for conn in 0..queues.len() as u64 {
        mux.open(conn);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Vec<String>> = vec![Vec::new(); queues.len()];
    while queues.iter().any(|q| !q.is_empty()) {
        let live: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .collect();
        let conn = live[rng.gen_range(0..live.len())];
        match queues[conn].pop().expect("picked from a non-empty queue") {
            Some(line) => {
                let shutdown = mux
                    .on_line(&mut core, conn as u64, &line)
                    .expect("job lines never error");
                assert!(!shutdown);
            }
            None => {
                out[conn] = mux.on_eof(&mut core, conn as u64).expect("drain");
            }
        }
    }
    assert_eq!(mux.open_connections(), 0);
    assert_eq!(core.counters().completed, 6);
    out
}

#[test]
fn interleaved_clients_are_deterministic_and_match_the_single_submitter_run() {
    let expected = reference_sam();
    assert_eq!(expected.len(), 6);

    for seed in [1u64, 7, 42, 1234] {
        let lines = run_interleaving(seed);
        // Responses come back on the submitting connection, in request
        // order, with per-job SAM byte-identical to the reference run
        // no matter how the clients interleaved.
        let jobs = client_jobs();
        for (conn, conn_lines) in lines.iter().enumerate() {
            assert_eq!(conn_lines.len(), jobs[conn].len());
            for (line, job) in conn_lines.iter().zip(&jobs[conn]) {
                let response = JobResponse::parse(line).expect("response line");
                assert_eq!(response.id, job.id, "routed to the wrong request slot");
                assert_eq!(
                    response.sam.as_deref(),
                    Some(expected[&job.id].as_str()),
                    "job {} SAM diverged under interleaving seed {seed}",
                    job.id
                );
            }
        }
        // Same seed, same event order, byte-identical transcript: the
        // core + mux pipeline is a pure function of the event sequence.
        assert_eq!(
            lines,
            run_interleaving(seed),
            "seed {seed} not reproducible"
        );
    }
}

/// A request line of nothing but `[` used to recurse once per bracket in
/// the JSON parser and overflow the stack of the thread that owns the
/// core — an abort no handler catches. It is a refusal like any other
/// garbage, and the next client is served.
#[test]
fn a_nesting_bomb_line_is_rejected_and_the_next_client_is_served() {
    let mut core = ServeCore::new(
        reference_set(),
        profiles::system1(),
        ServeOptions::default(),
    )
    .unwrap();
    let mut mux = MuxServer::new();
    mux.open(0);
    let bomb = "[".repeat(200_000);
    assert!(!mux
        .on_line(&mut core, 0, &bomb)
        .expect("a refusal, not an error"));
    let lines = mux.on_eof(&mut core, 0).expect("drain");
    assert_eq!(lines.len(), 1);
    assert!(lines[0].contains("\"REJECTED\""), "{}", lines[0]);

    mux.open(1);
    let job = client_jobs().remove(0).remove(0);
    mux.on_line(&mut core, 1, &job.to_json_line())
        .expect("job line");
    let lines = mux.on_eof(&mut core, 1).expect("drain");
    let response = JobResponse::parse(&lines[0]).expect("response line");
    assert_eq!(response.status, JobStatus::Ok);
    assert_eq!(response.id, job.id);
    assert_eq!(core.counters().rejected, 1);
    assert_eq!(core.counters().completed, 1);
}

#[test]
fn bad_clients_are_dropped_and_the_daemon_keeps_serving() {
    let dir = std::env::temp_dir().join("repute-serve-badclient-test");
    std::fs::create_dir_all(&dir).ok();
    let socket: PathBuf = dir.join("serve.sock");
    std::fs::remove_file(&socket).ok();

    let server = {
        let socket = socket.clone();
        std::thread::spawn(
            move || -> (ServeCore, Result<(), repute_core::ReputeError>) {
                let mut core = ServeCore::new(
                    reference_set(),
                    profiles::system1(),
                    ServeOptions::default(),
                )
                .unwrap();
                let result = serve_socket(&mut core, &socket);
                (core, result)
            },
        )
    };
    // Wait for the bind.
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Client 1: disconnects abruptly in the middle of a request line.
    {
        let mut stream = UnixStream::connect(&socket).expect("connect");
        stream.write_all(b"{\"id\":\"trunc").expect("partial write");
        // Dropped here: no newline, no half-close handshake.
    }
    // Client 2: pure garbage, but reads its answer like a good citizen.
    {
        let stream = UnixStream::connect(&socket).expect("connect");
        (&stream)
            .write_all(b"\x01\x02 not json at all\n")
            .expect("garbage write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut text = String::new();
        std::io::Read::read_to_string(&mut &stream, &mut text).expect("read response");
        assert!(
            text.contains("\"REJECTED\""),
            "garbage must earn a typed refusal, got: {text}"
        );
    }
    // Give client 1's EOF (and the failed write-back) time to land.
    std::thread::sleep(std::time::Duration::from_millis(100));

    // A well-formed client still gets served after both failures — the
    // regression this test pins: one bad client used to kill the loop.
    let job = client_jobs().remove(0).remove(0);
    let responses = submit_over_socket(&socket, &[job.to_json_line()]).expect("daemon still alive");
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].id, job.id);
    assert_eq!(
        responses[0].sam.as_deref(),
        Some(reference_sam()[&job.id].as_str())
    );

    shutdown_over_socket(&socket).expect("shutdown");
    let (core, result) = server.join().expect("server thread");
    result.expect("serve loop exits cleanly");
    let counters = core.counters();
    assert_eq!(counters.completed, 1);
    assert!(
        counters.rejected >= 1,
        "garbage line must be counted rejected"
    );
    assert!(
        counters.connection_errors >= 1,
        "the abrupt disconnect must be counted, got {}",
        counters.connection_errors
    );
    assert!(!socket.exists(), "socket file removed on exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn three_concurrent_socket_clients_get_byte_identical_sam() {
    let dir = std::env::temp_dir().join("repute-serve-concurrent-test");
    std::fs::create_dir_all(&dir).ok();
    let socket: PathBuf = dir.join("serve.sock");
    std::fs::remove_file(&socket).ok();

    let server = {
        let socket = socket.clone();
        std::thread::spawn(
            move || -> (ServeCore, Result<(), repute_core::ReputeError>) {
                let mut core = ServeCore::new(
                    reference_set(),
                    profiles::system1(),
                    ServeOptions::default(),
                )
                .unwrap();
                let result = serve_socket(&mut core, &socket);
                (core, result)
            },
        )
    };
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let clients: Vec<_> = client_jobs()
        .into_iter()
        .map(|jobs| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let lines: Vec<String> = jobs.iter().map(JobEnvelope::to_json_line).collect();
                let responses = submit_over_socket(&socket, &lines).expect("client run");
                (jobs, responses)
            })
        })
        .collect();
    let expected = reference_sam();
    for client in clients {
        let (jobs, responses) = client.join().expect("client thread");
        assert_eq!(responses.len(), jobs.len());
        for (response, job) in responses.iter().zip(&jobs) {
            assert_eq!(
                response.id, job.id,
                "responses must arrive in request order"
            );
            assert_eq!(
                response.sam.as_deref(),
                Some(expected[&job.id].as_str()),
                "job {} SAM diverged under concurrency",
                job.id
            );
        }
    }

    shutdown_over_socket(&socket).expect("shutdown");
    let (core, result) = server.join().expect("server thread");
    result.expect("serve loop exits cleanly");
    assert_eq!(core.counters().completed, 6);
    std::fs::remove_dir_all(&dir).ok();
}
