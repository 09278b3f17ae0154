//! Record and artifact serialization.
//!
//! Everything here is deterministic byte-for-byte: the routing signature's
//! collections are sorted vectors, so the same compiled view always
//! produces the same artifact bytes — the property the pinned
//! `fixtures/catalog.{snap,log}` format-stability test relies on.
//!
//! Decoding never panics on malformed input: every read is bounds-checked
//! and returns a descriptive `Err`, which the store surfaces as
//! [`super::PersistError::Corrupt`].

use ufilter_rdb::sat::{Bound, Domain};
use ufilter_rdb::{DataType, Value};
use ufilter_route::ViewSignature;

use crate::datacheck::Strategy;
use crate::pipeline::UFilterConfig;
use crate::star::StarMode;

use super::LogRecord;

/// Version byte of the artifact encoding (independent of the file format
/// version: an artifact this build cannot read makes replay recompile the
/// record's view text, never a hard error).
///
/// History:
/// * 1 — pipeline config, then the STAR-marked view ASG and the marking
///   side tables.
/// * 2 — added the routing-signature block between the config and the ASG,
///   so replay could index a view without decoding its ASG.
/// * 3 — added the per-node aggregate gate columns and a trailing
///   read-sets block.
/// * 4 — the prelude alone: config plus routing signature. Replay never
///   read the compiled body; a replayed view compiles its recorded text at
///   its first check instead.
///
/// Rule: bump this whenever compile output changes (ASG construction,
/// STAR marking or signature extraction). The prelude's signature is
/// derived from that output, so a signature an older build wrote could
/// route differently from the view its text now compiles to; a bumped
/// version makes replay recompile such views instead.
pub const ARTIFACT_VERSION: u8 = 4;

// ---- write primitives --------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(u8::from(b));
}

fn put_opt<T>(out: &mut Vec<u8>, v: &Option<T>, f: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            f(out, x);
        }
    }
}

fn put_vec<T>(out: &mut Vec<u8>, items: &[T], mut f: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    for item in items {
        f(out, item);
    }
}

// ---- read primitives ---------------------------------------------------

/// A bounds-checked cursor over an input byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|e| *e <= self.buf.len())
            .ok_or_else(|| format!("record truncated at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked"))))
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("invalid bool byte {b}")),
        }
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".to_string())
    }

    fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(format!("invalid option tag {b}")),
        }
    }

    fn vec<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.u32()? as usize;
        // Guard against absurd counts from damaged length fields: each
        // element consumes at least one byte.
        if n > self.buf.len() - self.pos {
            return Err(format!("collection count {n} exceeds remaining input"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    fn done(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after record", self.buf.len() - self.pos))
        }
    }
}

// ---- log records -------------------------------------------------------

const REC_ADD: u8 = 1;
const REC_DROP: u8 = 2;
const REC_DDL: u8 = 3;

/// Serialize one log record to a frame payload.
pub fn encode_record(rec: &LogRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match rec {
        LogRecord::Add { name, view_text, deps, cached, artifact } => {
            out.push(REC_ADD);
            put_str(&mut out, name);
            put_str(&mut out, view_text);
            put_vec(&mut out, deps, |o, d: &String| put_str(o, d));
            put_bool(&mut out, *cached);
            put_u32(&mut out, artifact.len() as u32);
            out.extend_from_slice(artifact);
        }
        LogRecord::Drop { name } => {
            out.push(REC_DROP);
            put_str(&mut out, name);
        }
        LogRecord::Ddl { sql } => {
            out.push(REC_DDL);
            put_str(&mut out, sql);
        }
    }
    out
}

/// Parse one frame payload back into a log record.
pub fn decode_record(payload: &[u8]) -> Result<LogRecord, String> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        REC_ADD => {
            let name = r.str()?;
            let view_text = r.str()?;
            let deps = r.vec(|r| r.str())?;
            let cached = r.bool()?;
            let alen = r.u32()? as usize;
            let artifact = r.take(alen)?.to_vec();
            LogRecord::Add { name, view_text, deps, cached, artifact }
        }
        REC_DROP => LogRecord::Drop { name: r.str()? },
        REC_DDL => LogRecord::Ddl { sql: r.str()? },
        k => return Err(format!("unknown record kind {k}")),
    };
    r.done()?;
    Ok(rec)
}

// ---- compiled-artifact codec -------------------------------------------

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(2);
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Date(d) => {
            out.push(4);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(5);
            put_bool(out, *b);
        }
    }
}

fn read_value(r: &mut Reader) -> Result<Value, String> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int(r.i64()?),
        2 => Value::Double(r.f64()?),
        3 => Value::Str(r.str()?),
        4 => Value::Date(r.i64()?),
        5 => Value::Bool(r.bool()?),
        t => return Err(format!("unknown value tag {t}")),
    })
}

fn put_domain(out: &mut Vec<u8>, d: &Domain) {
    let bound = |o: &mut Vec<u8>, b: &Bound| {
        put_value(o, &b.value);
        put_bool(o, b.inclusive);
    };
    put_opt(out, &d.eq, put_value);
    put_vec(out, &d.ne, put_value);
    put_opt(out, &d.lower, bound);
    put_opt(out, &d.upper, bound);
    put_bool(out, d.is_contradiction());
}

fn read_domain(r: &mut Reader) -> Result<Domain, String> {
    let bound = |r: &mut Reader| Ok(Bound { value: read_value(r)?, inclusive: r.bool()? });
    let eq = r.opt(read_value)?;
    let ne = r.vec(read_value)?;
    let lower = r.opt(bound)?;
    let upper = r.opt(bound)?;
    let contradiction = r.bool()?;
    Ok(Domain::from_parts(eq, ne, lower, upper, contradiction))
}

fn datatype_code(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Str => 2,
        DataType::Date => 3,
        DataType::Bool => 4,
    }
}

fn read_datatype(r: &mut Reader) -> Result<DataType, String> {
    Ok(match r.u8()? {
        0 => DataType::Int,
        1 => DataType::Double,
        2 => DataType::Str,
        3 => DataType::Date,
        4 => DataType::Bool,
        t => return Err(format!("unknown data type {t}")),
    })
}

fn put_signature(out: &mut Vec<u8>, sig: &ViewSignature) {
    put_vec(out, sig.tokens(), |o, s| put_str(o, s));
    put_vec(out, sig.edges(), |o, (a, b)| {
        put_str(o, a);
        put_str(o, b);
    });
    put_vec(out, sig.root_children(), |o, s| put_str(o, s));
    put_vec(out, sig.leaf_domains(), |o, (tag, targets)| {
        put_str(o, tag);
        put_vec(o, targets, |o, (ty, domain, sat_ty)| {
            o.push(datatype_code(*ty));
            put_domain(o, domain);
            o.push(datatype_code(*sat_ty));
        });
    });
    put_vec(out, sig.relations(), |o, s| put_str(o, s));
}

fn read_signature(r: &mut Reader) -> Result<ViewSignature, String> {
    let tokens = r.vec(|r| r.str())?;
    let edges = r.vec(|r| Ok((r.str()?, r.str()?)))?;
    let root_children = r.vec(|r| r.str())?;
    let leaf_domains = r.vec(|r| {
        Ok((r.str()?, r.vec(|r| Ok((read_datatype(r)?, read_domain(r)?, read_datatype(r)?)))?))
    })?;
    let relations = r.vec(|r| r.str())?;
    ViewSignature::from_sorted(tokens, edges, root_children, leaf_domains, relations)
}

/// Serialize the artifact of a view compiled under `config` with routing
/// signature `sig`: the version byte, the STAR mode and data-check
/// strategy, and the signature — all that replay needs to register and
/// route the view. The compiled filter itself is not stored: a replayed
/// view compiles its recorded text on first check.
pub fn encode_artifact(config: UFilterConfig, sig: &ViewSignature) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(ARTIFACT_VERSION);
    out.push(match config.mode {
        StarMode::Strict => 0,
        StarMode::Refined => 1,
    });
    out.push(match config.strategy {
        Strategy::Internal => 0,
        Strategy::Hybrid => 1,
        Strategy::Outside => 2,
    });
    put_signature(&mut out, sig);
    out
}

/// Decode an artifact: the pipeline config the view was compiled under and
/// its routing signature. Returns `Err` on any damage (truncation, a bad
/// tag, an unsorted signature collection, trailing bytes) and on an
/// artifact version this build does not write; replay treats both alike
/// and recompiles the record's view text.
pub fn decode_artifact_header(bytes: &[u8]) -> Result<(UFilterConfig, ViewSignature), String> {
    let mut r = Reader::new(bytes);
    let version = r.u8()?;
    if version != ARTIFACT_VERSION {
        return Err(format!("artifact version {version} (this build reads {ARTIFACT_VERSION})"));
    }
    let mode = match r.u8()? {
        0 => StarMode::Strict,
        1 => StarMode::Refined,
        t => return Err(format!("unknown star mode {t}")),
    };
    let strategy = match r.u8()? {
        0 => Strategy::Internal,
        1 => Strategy::Hybrid,
        2 => Strategy::Outside,
        t => return Err(format!("unknown strategy {t}")),
    };
    let sig = read_signature(&mut r)?;
    r.done()?;
    Ok((UFilterConfig { mode, strategy }, sig))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bookdemo;
    use crate::pipeline::UFilter;

    #[test]
    fn records_roundtrip() {
        let records = [
            LogRecord::Add {
                name: "books".into(),
                view_text: "FOR $b IN …".into(),
                deps: vec!["book".into(), "publisher".into()],
                cached: true,
                artifact: vec![1, 2, 3],
            },
            LogRecord::Drop { name: "books".into() },
            LogRecord::Ddl { sql: "CREATE TABLE t (id INTEGER)".into() },
        ];
        for rec in &records {
            let bytes = encode_record(rec);
            assert_eq!(&decode_record(&bytes).unwrap(), rec);
        }
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[99]).is_err());
    }

    /// The persisted signature must route exactly like one freshly
    /// extracted from the ASG — byte-equal re-encoding is the proxy (every
    /// signature collection is sorted, so equal bytes ⇔ equal signatures).
    #[test]
    fn signature_header_roundtrips() {
        let schema = bookdemo::book_schema();
        for text in [bookdemo::BOOK_VIEW, bookdemo::BOOK_STATS_VIEW] {
            let filter = UFilter::compile(text, &schema).unwrap();
            let sig = ViewSignature::of(&filter.asg);
            let bytes = encode_artifact(filter.config, &sig);
            // Determinism: encoding twice yields identical bytes.
            assert_eq!(bytes, encode_artifact(filter.config, &sig));
            let (config, decoded) = decode_artifact_header(&bytes).unwrap();
            assert_eq!(config, filter.config);
            assert_eq!(encode_artifact(config, &decoded), bytes, "decoded artifact re-encodes");
        }
    }

    #[test]
    fn damaged_artifacts_error_cleanly() {
        let filter = UFilter::compile(bookdemo::BOOK_VIEW, &bookdemo::book_schema()).unwrap();
        let bytes = encode_artifact(filter.config, &ViewSignature::of(&filter.asg));
        assert!(decode_artifact_header(&[]).is_err());
        assert!(decode_artifact_header(&bytes[..bytes.len() / 2]).is_err(), "truncation detected");
        assert!(decode_artifact_header(&bytes[..4]).is_err(), "header truncation detected");
        let mut vsn = bytes.clone();
        vsn[0] = 3;
        assert!(decode_artifact_header(&vsn).unwrap_err().contains("version"));
        let trailing = [&bytes[..], &[0]].concat();
        assert!(decode_artifact_header(&trailing).unwrap_err().contains("trailing"));
    }
}
