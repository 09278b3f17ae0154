//! Persist-codec corruption fuzzing: truncations, bit flips and zeroed
//! spans applied to real `catalog.snap` / `catalog.log` images. Every
//! mutation must produce a clean outcome — `Ok` (recovered, possibly with
//! replay warnings) or a typed `PersistError` — never a panic, and a store
//! that *does* open must be internally consistent enough to re-verify.

use std::fs;
use std::path::PathBuf;

use ufilter_core::persist::{self, CatalogStore};
use ufilter_fuzz::FuzzRng;

const ROUNDS: usize = 400;
const SEED: u64 = 0x5EED_C0DE;

fn fixture(name: &str) -> Vec<u8> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures/");
    fs::read(PathBuf::from(path).join(name)).expect("fixture readable")
}

/// Apply one seeded mutation; returns a label for failure messages.
fn mutate(rng: &mut FuzzRng, bytes: &mut Vec<u8>) -> String {
    if bytes.is_empty() {
        bytes.push(rng.int(0, 255) as u8);
        return "grow-empty".into();
    }
    match rng.index(5) {
        0 => {
            let at = rng.index(bytes.len());
            bytes.truncate(at);
            format!("truncate@{at}")
        }
        1 => {
            let at = rng.index(bytes.len());
            let bit = rng.index(8) as u8;
            bytes[at] ^= 1 << bit;
            format!("bitflip@{at}.{bit}")
        }
        2 => {
            let at = rng.index(bytes.len());
            let span = (rng.index(64) + 1).min(bytes.len() - at);
            bytes[at..at + span].fill(0);
            format!("zero@{at}+{span}")
        }
        3 => {
            let n = rng.index(128) + 1;
            for _ in 0..n {
                bytes.push(rng.int(0, 255) as u8);
            }
            format!("append-garbage+{n}")
        }
        _ => {
            let at = rng.index(bytes.len());
            bytes[at] = rng.int(0, 255) as u8;
            format!("stomp@{at}")
        }
    }
}

#[test]
fn corrupted_store_images_never_panic() {
    let snap = fixture("catalog.snap");
    let log = fixture("catalog.log");

    let dir =
        std::env::temp_dir().join(format!("ufilter-fuzz-persist-{}-{SEED:x}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    // Sanity: the pristine images open cleanly.
    fs::write(dir.join("catalog.snap"), &snap).unwrap();
    fs::write(dir.join("catalog.log"), &log).unwrap();
    let pristine = CatalogStore::open(&dir).expect("pristine fixtures open");
    let baseline = pristine.records().len();
    assert!(baseline > 0, "fixtures should carry records");
    drop(pristine);

    let mut rng = FuzzRng::new(SEED);
    let mut opened = 0usize;
    let mut refused = 0usize;
    for round in 0..ROUNDS {
        let mut s = snap.clone();
        let mut l = log.clone();
        // Corrupt one or both files.
        let label = match rng.index(3) {
            0 => format!("snap:{}", mutate(&mut rng, &mut s)),
            1 => format!("log:{}", mutate(&mut rng, &mut l)),
            _ => {
                let a = mutate(&mut rng, &mut s);
                let b = mutate(&mut rng, &mut l);
                format!("snap:{a} log:{b}")
            }
        };
        fs::write(dir.join("catalog.snap"), &s).unwrap();
        fs::write(dir.join("catalog.log"), &l).unwrap();

        match CatalogStore::open(&dir) {
            Ok(store) => {
                opened += 1;
                // Whatever survived must be bounded by the pristine record
                // count plus the log tail, and re-verifiable.
                assert!(
                    store.records().len() <= baseline + 16,
                    "round {round} ({label}): implausible record count {}",
                    store.records().len()
                );
                drop(store);
                // `open` may truncate a torn tail in place; a second open
                // (and a verify) of the repaired directory must agree.
                let report = persist::CatalogStore::verify(&dir)
                    .unwrap_or_else(|e| panic!("round {round} ({label}): reverify: {e}"));
                let _ = report;
            }
            Err(e) => {
                refused += 1;
                // Typed error with a usable message — the crash-safety
                // contract: corruption is reported, never unwound past.
                assert!(!e.to_string().is_empty(), "round {round} ({label}): empty error");
            }
        }
    }
    // The mutation mix must actually exercise both outcomes.
    assert!(opened > 0, "no corrupted image ever opened (recovery path untested)");
    assert!(refused > 0, "no corrupted image was ever refused (detection path untested)");

    let _ = fs::remove_dir_all(&dir);
}

/// Codec-level: record and artifact payload decoding on mutated bytes.
#[test]
fn corrupted_payloads_never_panic() {
    use ufilter_core::persist::LogRecord;

    let rec = persist::encode_record(&LogRecord::Ddl {
        sql: "CREATE TABLE t (id INTEGER, CONSTRAINTS TPK PRIMARYKEY (id))".into(),
    });
    let mut rng = FuzzRng::new(SEED ^ 0xA5A5);
    for _ in 0..2000 {
        let mut bytes = rec.clone();
        mutate(&mut rng, &mut bytes);
        let _ = persist::decode_record(&bytes);
        let _ = persist::decode_artifact_header(&bytes);
    }
}

/// Real artifacts — the bookdemo views' `encode_artifact` output, as a
/// `CATALOG ADD` record carries it — decode when intact, are refused with
/// a byte appended, and never panic the decoder under mutation.
#[test]
fn corrupted_artifacts_never_panic() {
    use ufilter_core::{bookdemo, UFilter};
    use ufilter_route::ViewSignature;

    let schema = bookdemo::book_schema();
    let mut rng = FuzzRng::new(SEED ^ 0x5A5A);
    for text in [bookdemo::BOOK_VIEW, bookdemo::BOOK_STATS_VIEW] {
        let filter = UFilter::compile(text, &schema).expect("bookdemo view compiles");
        let artifact = persist::encode_artifact(filter.config, &ViewSignature::of(&filter.asg));
        let (config, _) =
            persist::decode_artifact_header(&artifact).expect("intact artifact decodes");
        assert_eq!(config, filter.config);
        let appended = [&artifact[..], &[0]].concat();
        assert!(
            persist::decode_artifact_header(&appended).is_err(),
            "an artifact with a trailing byte must be refused"
        );
        for _ in 0..2000 {
            let mut bytes = artifact.clone();
            mutate(&mut rng, &mut bytes);
            let _ = persist::decode_artifact_header(&bytes);
        }
    }
}
