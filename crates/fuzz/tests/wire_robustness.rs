//! Wire-frame robustness: adversarial byte sequences against a live
//! [`CheckServer`]. Every frame must draw an `OK`/`ERR` reply or a clean
//! disconnect — never a crash or a hang — and after each frame the server
//! must still answer `PING` and reproduce a byte-identical reply to a
//! known-good `CHECK`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ufilter_core::bookdemo;
use ufilter_fuzz::gen_wire::{self, Expect};
use ufilter_fuzz::FuzzRng;
use ufilter_service::proto::check_request;
use ufilter_service::{CheckServer, ShardedCatalog};

const FRAMES: usize = 250;
const SEED: u64 = 0x817E_F8A3;

/// One request → one reply line over a fresh connection.
fn roundtrip(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("server accepts");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.set_nodelay(true).unwrap();
    // One write: a request split across writes waits on a delayed ACK.
    stream.write_all(format!("{request}\n").as_bytes()).expect("request written");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("server replies");
    reply.trim_end().to_string()
}

fn known_check(addr: SocketAddr) -> String {
    roundtrip(addr, &check_request("books", bookdemo::U8))
}

#[test]
fn adversarial_frames_never_kill_the_server() {
    let db = bookdemo::book_db();
    let sharded = ShardedCatalog::new(bookdemo::book_schema());
    sharded.add("books", bookdemo::BOOK_VIEW).expect("demo view compiles");
    let server =
        CheckServer::bind("127.0.0.1:0", Arc::new(sharded), &db, 2).expect("ephemeral bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());

    let reference = known_check(addr);
    assert!(reference.starts_with("OK "), "reference check failed: {reference}");

    let mut rng = FuzzRng::new(SEED);
    for i in 0..FRAMES {
        let frame = gen_wire::generate(&mut rng);
        let mut stream = TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("frame {i} ({}): connect: {e}", frame.label));
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // The server may close mid-write on frames it refuses outright;
        // a write error is a legal outcome, a hang is not.
        let written = stream.write_all(&frame.bytes).and_then(|()| stream.flush());
        match frame.expect {
            Expect::Reply => {
                written.unwrap_or_else(|e| panic!("frame {i} ({}): write: {e}", frame.label));
                let mut reader = BufReader::new(stream);
                let mut reply = String::new();
                reader
                    .read_line(&mut reply)
                    .unwrap_or_else(|e| panic!("frame {i} ({}): no reply: {e}", frame.label));
                let reply = reply.trim_end();
                assert!(
                    reply.starts_with("OK") || reply.starts_with("ERR"),
                    "frame {i} ({}): unexpected reply {reply:?}",
                    frame.label
                );
            }
            Expect::MayDisconnect => {
                // Closing without a newline-terminated request: the server
                // discards the partial line; nothing to read.
                drop(stream);
            }
        }
        // Liveness after every frame: PING answers, and the known CHECK is
        // byte-identical to the pre-fuzz reference.
        let pong = roundtrip(addr, "PING");
        assert_eq!(pong, "OK pong", "frame {i} ({}): PING broke", frame.label);
        let check = known_check(addr);
        assert_eq!(check, reference, "frame {i} ({}): CHECK reply drifted", frame.label);
    }

    handle.shutdown();
    thread.join().expect("server thread joins").expect("clean shutdown");
}
