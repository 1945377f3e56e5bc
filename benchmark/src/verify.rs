//! The response verifier behind `failed` / `error_rate`.
//!
//! The clients keep the length and a 64-bit hash of each body's stable
//! part. Once the load phases are over, a separate single-process,
//! unsharded, mem-backed reference engine renders every distinct
//! request that was sent and every response is compared to it. (Not
//! before: on `adhoc` a run reaches about half of the pool, and
//! rendering the other half is seconds the driver's budget lacks.)
//! Responses are never parsed: `fgc_server::parse_json` is quadratic
//! in document size and is one of the things being measured.

use crate::client::find;
use crate::load::Phase;
use crate::stack::commit_churn;
use crate::stream::{Request, Stream, Workload, COMMITS};
use fgc_core::{CitationEngine, CiteRequest, VersionedCitation};
use fgc_gtopdb::paper_views;
use fgc_query::parse_query;
use fgc_relation::{Database, VersionedDatabase};
use fgc_views::Json;
use std::collections::BTreeMap;

/// A 64-bit hash, eight bytes at a step. Each step is a bijection of
/// the state for a fixed input word, so two inputs of equal length
/// that differ in a single word never collide.
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
        h = (h ^ word).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    let rest = chunks.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    h ^ (h >> 32)
}

/// Only the tail of a `/cite` body is volatile: `elapsed_us`,
/// `cache_hits`, `cache_misses` (and `stages` when asked for). They
/// sit within this many bytes of the end.
const TAIL_WINDOW: usize = 1024;
const VOLATILE_FROM: &[u8] = b"\"elapsed_us\"";

/// The part of a body that is a function of (query, data) alone.
/// `/cite_at` bodies carry no volatile tail and are stable whole.
pub fn stable_part(body: &[u8]) -> &[u8] {
    let from = body.len().saturating_sub(TAIL_WINDOW);
    match find(&body[from..], VOLATILE_FROM) {
        Some(at) => &body[..from + at],
        None => body,
    }
}

/// What a correct response to one request looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    stable_len: usize,
    stable_hash: u64,
}

impl Expected {
    pub fn of(body: &[u8]) -> Expected {
        let stable = stable_part(body);
        Expected {
            stable_len: stable.len(),
            stable_hash: hash64(stable),
        }
    }
}

/// How an operation went. Only [`Outcome::Ok`] is a success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// A 200 not yet compared with the reference: what its body
    /// looked like.
    Unchecked(Expected),
    /// The connection failed or the response was not valid HTTP.
    Transport,
    /// Any status other than 200.
    Status(u16),
    /// A 200 whose body is not the reference body.
    Mismatch,
}

impl Outcome {
    /// One reply that arrived (one that did not is
    /// [`Outcome::Transport`]), before it is judged.
    pub fn of_reply(status: u16, body: &[u8]) -> Outcome {
        if status == 200 {
            Outcome::Unchecked(Expected::of(body))
        } else {
            Outcome::Status(status)
        }
    }

    /// Compare an unchecked reply with the reference.
    pub fn judged(self, expected: &Expected) -> Outcome {
        match self {
            Outcome::Unchecked(seen) if seen == *expected => Outcome::Ok,
            Outcome::Unchecked(_) => Outcome::Mismatch,
            decided => decided,
        }
    }
}

/// Judge every unchecked reply of `phases` against a reference engine
/// built from `db`.
pub fn judge<'a>(phases: impl IntoIterator<Item = &'a mut Phase>, stream: &Stream, db: &Database) {
    let mut phases: Vec<&mut Phase> = phases.into_iter().collect();
    let mut sent = vec![false; stream.pool.len()];
    for sample in phases.iter().flat_map(|p| &p.samples) {
        if matches!(sample.outcome, Outcome::Unchecked(_)) {
            sent[sample.pool_id as usize] = true;
        }
    }
    let expected = reference(stream, db, &sent);
    for sample in phases.iter_mut().flat_map(|p| &mut p.samples) {
        if let Some(expected) = &expected[sample.pool_id as usize] {
            sample.outcome = sample.outcome.judged(expected);
        }
    }
}

fn cite_body(engine: &CitationEngine, request: &Request) -> String {
    let query = parse_query(&request.query).expect("stream queries parse");
    let response = engine
        .cite_request(&CiteRequest::query(query))
        .expect("reference engine cites every stream query");
    fgc_server::encode_response(&response).to_compact()
}

/// The `/cite_at` body, built from a fresh engine over one snapshot.
fn cite_at_body(
    engine: &CitationEngine,
    history: &VersionedDatabase,
    version: u64,
    request: &Request,
) -> String {
    let query = parse_query(&request.query).expect("stream queries parse");
    let (info, _) = history.snapshot(version).expect("stream versions exist");
    let citation = engine
        .cite(&query)
        .expect("reference engine cites every stream query");
    let tuples = citation.tuples.len();
    let mut body = VersionedCitation {
        citation,
        version,
        label: info.label.clone(),
        timestamp: info.timestamp,
    }
    .stamped_aggregate();
    body.set("Tuples", Json::Int(tuples as i64));
    body.to_compact()
}

/// Run `stripe(t, threads)` on each of this machine's cores and gather
/// what they return.
fn on_every_core(
    stripe: impl Fn(usize, usize) -> Vec<(usize, Expected)> + Sync,
) -> Vec<(usize, Expected)> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stripe = &stripe;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || stripe(t, threads)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// Render the requests of `stream.pool` marked in `wanted` on a
/// reference engine built from `db` and return what each response must
/// look like, indexed like the pool. Independent of the serving stack:
/// no shards, no storage, no HTTP, no derivation — one rebuild per
/// version for `versioned`.
pub fn reference(stream: &Stream, db: &Database, wanted: &[bool]) -> Vec<Option<Expected>> {
    let rendered = if stream.workload == Workload::Versioned {
        let mut history = VersionedDatabase::new();
        history.commit(db.clone(), 0, "v0").expect("base commit");
        for i in 1..=COMMITS {
            commit_churn(&mut history, i);
        }
        // group by version, so each snapshot's engine is built once
        // and dropped before the next
        let mut by_version: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (id, request) in stream.pool.iter().enumerate() {
            if wanted[id] {
                let version = request.version.expect("versioned request");
                by_version.entry(version).or_default().push(id);
            }
        }
        let history = &history;
        on_every_core(|t, threads| {
            let mut out = Vec::new();
            for (version, ids) in by_version.iter().skip(t).step_by(threads) {
                let (_, snapshot) = history.snapshot(*version).expect("snapshot");
                let engine = CitationEngine::new((**snapshot).clone(), paper_views())
                    .expect("views validate");
                for &id in ids {
                    let body = cite_at_body(&engine, history, *version, &stream.pool[id]);
                    out.push((id, Expected::of(body.as_bytes())));
                }
            }
            out
        })
    } else {
        let engine = CitationEngine::new(db.clone(), paper_views()).expect("views validate");
        let ids: Vec<usize> = (0..stream.pool.len()).filter(|&id| wanted[id]).collect();
        on_every_core(|t, threads| {
            ids.iter()
                .skip(t)
                .step_by(threads)
                .map(|&id| {
                    let body = cite_body(&engine, &stream.pool[id]);
                    (id, Expected::of(body.as_bytes()))
                })
                .collect()
        })
    };
    let mut expected = vec![None; stream.pool.len()];
    for (id, e) in rendered {
        expected[id] = Some(e);
    }
    expected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(status: u16, body: &[u8], expected: &Expected) -> Outcome {
        Outcome::of_reply(status, body).judged(expected)
    }

    const BODY: &str = r#"{"tuples": [{"row": ["Family-1", "gpcr"], "citation": {"ID": "f1"}}], "aggregate": {"ID": "f1"}, "rewritings": 1, "exhaustive": true, "unsatisfiable": false, "elapsed_us": 71, "cache_hits": 2, "cache_misses": 0}"#;

    #[test]
    fn the_volatile_tail_is_ignored_and_nothing_else() {
        let expected = Expected::of(BODY.as_bytes());
        let later = BODY.replace(
            "\"elapsed_us\": 71, \"cache_hits\": 2",
            "\"elapsed_us\": 90412, \"cache_hits\": 0",
        );
        assert_eq!(check(200, later.as_bytes(), &expected), Outcome::Ok);
        let staged = format!(
            "{}, \"stages\": {{\"parse\": 3, \"render\": 9}}}}",
            &BODY[..BODY.len() - 1]
        );
        assert_eq!(check(200, staged.as_bytes(), &expected), Outcome::Ok);
        // a body without the marker is compared whole
        let stamped =
            br#"{"Version": "v3", "VersionId": 3, "Citation": {"ID": "f1"}, "Tuples": 1}"#;
        assert_eq!(stable_part(stamped), stamped);
    }

    #[test]
    fn a_flipped_byte_anywhere_in_the_stable_part_fails() {
        let expected = Expected::of(BODY.as_bytes());
        let stable = stable_part(BODY.as_bytes()).len();
        for at in 0..stable {
            let mut bytes = BODY.as_bytes().to_vec();
            bytes[at] ^= 0x01;
            assert_eq!(
                check(200, &bytes, &expected),
                Outcome::Mismatch,
                "byte {at}"
            );
        }
    }

    #[test]
    fn a_truncated_body_fails() {
        let expected = Expected::of(BODY.as_bytes());
        for keep in [
            0,
            1,
            40,
            BODY.len() / 2,
            stable_part(BODY.as_bytes()).len() - 1,
        ] {
            let cut = &BODY.as_bytes()[..keep];
            assert_eq!(check(200, cut, &expected), Outcome::Mismatch, "kept {keep}");
        }
    }

    #[test]
    fn a_503_fails_whatever_its_body() {
        // (a transport error never reaches `check`: `load` counts it,
        // and tests that it does)
        let expected = Expected::of(BODY.as_bytes());
        assert_eq!(check(503, BODY.as_bytes(), &expected), Outcome::Status(503));
    }

    #[test]
    fn hash_depends_on_length_and_every_word() {
        assert_ne!(hash64(b""), hash64(b"\0"));
        assert_ne!(hash64(b"abcdefgh"), hash64(b"abcdefgi"));
        assert_ne!(hash64(b"abcdefghi"), hash64(b"abcdefgh"));
        assert_eq!(hash64(b"abcdefghijk"), hash64(b"abcdefghijk"));
    }
}
