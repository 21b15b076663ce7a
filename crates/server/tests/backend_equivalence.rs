//! The reactor serves the same responses as the thread-per-connection
//! accept loop it replaced, across the router surface, success and error
//! paths, keep-alive and close, under eight concurrent clients doing 200
//! requests each.
//!
//! `golden/legacy_responses.txt` holds the accept loop's answer to each
//! workload request: status, headers, body length and body FNV-1a. The
//! only per-request header allowed to differ is `X-Trace-Id` (a fresh id
//! is minted for every request by design), so the comparison strips it.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cpssec_attackdb::seed::seed_corpus;
use cpssec_model::fnv1a_64;
use cpssec_server::load::read_response;
use cpssec_server::{AppState, Server};

const GOLDEN: &str = include_str!("golden/legacy_responses.txt");

struct TestServer {
    addr: SocketAddr,
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(workers: usize) -> TestServer {
        let state = AppState::new(seed_corpus());
        let server = Server::bind("127.0.0.1:0", workers, state).expect("bind");
        let addr = server.local_addr().expect("addr");
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        TestServer {
            addr,
            flag,
            handle: Some(handle),
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A response in the golden file's line format, trace id stripped:
/// index, status, body length, body FNV-1a, then the headers.
fn comparable(index: usize, status: u16, headers: &[(String, String)], body: &[u8]) -> String {
    let mut line = format!("{index}\t{status}\t{}\t{:016x}", body.len(), fnv1a_64(body));
    for (name, value) in headers.iter().filter(|(name, _)| name != "x-trace-id") {
        line.push_str(&format!("\t{name}: {value}"));
    }
    line
}

const WHATIF_BODY: &str = r#"{"changes":[{"op":"replace","component":"Programming WS","key":"os","kind":"os","value":"hardened thin client image","atFidelity":"implementation"},{"op":"remove","component":"Programming WS","key":"software","value":"Labview"}]}"#;

/// The mixed workload: every deterministic route family, plus error
/// paths (404/400/405/413-free — body-size limits are covered in unit
/// tests). `/metrics` is deliberately absent: its counters depend on
/// request interleaving.
fn workload() -> Vec<Vec<u8>> {
    let get = |target: &str| format!("GET {target} HTTP/1.1\r\n\r\n").into_bytes();
    let post = |target: &str, body: &str| {
        format!(
            "POST {target} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    vec![
        get("/healthz"),
        get("/table1"),
        get("/models"),
        get("/models/scada/associate"),
        get("/models/scada/associate?fidelity=conceptual&scoring=bm25&topK=2"),
        post("/models/scada/whatif", WHATIF_BODY),
        get("/vulns?q=buffer%20overflow&limit=3"),
        get("/models/ghost/associate"),
        get("/models/scada/associate?fidelity=quantum"),
        get("/no/such/endpoint"),
        b"DELETE /healthz HTTP/1.1\r\n\r\n".to_vec(),
        post("/models/scada/whatif", "{\"changes\":[{\"op\":\"warp\"}]}"),
    ]
}

/// Runs `count` keep-alive requests (cycling the workload, offset by
/// `lane`) over one connection and returns the comparable responses.
fn run_lane(addr: SocketAddr, lane: usize, count: usize) -> Vec<String> {
    let requests = workload();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut out = Vec::with_capacity(count);
    for round in 0..count {
        let index = (lane + round) % requests.len();
        stream.write_all(&requests[index]).expect("send");
        let response = read_response(&mut reader).expect("response");
        out.push(comparable(
            index,
            response.status,
            &response.headers,
            &response.body,
        ));
    }
    out
}

/// The full 8×200 mixed workload.
fn collect() -> Vec<Vec<String>> {
    let server = TestServer::start(4);
    std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..8)
            .map(|lane| scope.spawn(move || run_lane(server.addr, lane, 200)))
            .collect();
        lanes.into_iter().map(|l| l.join().expect("lane")).collect()
    })
}

#[test]
fn reactor_matches_legacy_across_the_router_surface() {
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(
        golden.len(),
        workload().len(),
        "one golden line per request"
    );
    let lanes = collect();
    assert_eq!(lanes.len(), 8);
    for (lane, responses) in lanes.iter().enumerate() {
        assert_eq!(responses.len(), 200, "lane {lane} response count");
        for (round, response) in responses.iter().enumerate() {
            let expected = golden[(lane + round) % golden.len()];
            assert_eq!(
                response, expected,
                "lane {lane} round {round}: the reactor diverges from the recorded accept loop"
            );
        }
    }
}

#[test]
fn connection_close_is_honored_identically() {
    // `Connection: close` must terminate the exchange with the close
    // announced and an actual close, as the accept loop did.
    let server = TestServer::start(2);
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader).expect("response");
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("connection"),
        Some("close"),
        "the close is announced"
    );
    // EOF follows: the server, not the client, closes.
    assert!(
        read_response(&mut reader).is_err(),
        "the connection stayed open"
    );
}
