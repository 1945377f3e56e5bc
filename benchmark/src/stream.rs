//! The four workloads' request streams, made from `--seed` by the
//! benchmark's own PRNG. The program sees only the rendered bytes.

use crate::client::render_request;
use crate::rng::{Rng, Zipf};
use crate::verify::hash64;
use fgc_relation::Database;
use std::collections::HashMap;

/// Requests per workload stream. Clients walk it in order and wrap
/// around, so the set of distinct requests (and the reference work)
/// is bounded however fast the program gets.
pub const STREAM_LEN: usize = 8192;

/// Committed versions on top of the base snapshot in `versioned`.
pub const COMMITS: usize = 256;

/// The `versioned` stream aims 70 % of its requests at this many of
/// the newest versions.
const HOT_VERSIONS: u64 = 8;

/// `F != k` variants per (template, type) in `adhoc`: 4 templates × 9
/// types × 16 = 576 distinct requests.
const ADHOC_VARIANTS: usize = 16;

/// T0–T3 of `fgc_gtopdb::workload` (type selection over 1–4 joined
/// atoms), with a `F != k` slot that makes each variant a distinct
/// query text without emptying its answer.
const ADHOC_TEMPLATES: [&str; 4] = [
    "Q(N) :- Family(F, N, Ty), Ty = {TYPE}, F != {FID}",
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = {TYPE}, F != {FID}",
    "Q(Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A), Ty = {TYPE}, F != {FID}",
    "Q(Pn) :- Family(F, N, Ty), FamilyIntro(F, Tx), FIC(F, C), Person(C, Pn, A), Ty = {TYPE}, F != {FID}",
];

const FAMILY_PAGE: &str = "Q(N, Ty) :- Family(F, N, Ty), F = {FID}";
const INTRO_PAGE: &str = "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = {FID}";
const CONTRIBUTORS: &str = "Q(Pn) :- FIC(F, C), Person(C, Pn, A), F = {FID}";
const TYPE_JOIN: &str = "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = {TYPE}";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Lookup,
    Adhoc,
    Versioned,
    Dist,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Lookup,
        Workload::Adhoc,
        Workload::Versioned,
        Workload::Dist,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Adhoc => "adhoc",
            Workload::Versioned => "versioned",
            Workload::Dist => "dist",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests sent (and discarded) before anything is measured.
    pub fn warmup(self) -> usize {
        match self {
            Workload::Adhoc => 64,
            _ => 256,
        }
    }

    /// The route the workload's requests go to.
    pub fn path(self) -> &'static str {
        match self {
            Workload::Versioned => "/cite_at",
            _ => "/cite",
        }
    }
}

/// Which latency class a request falls in (only `dist` has two: calls
/// the coordinator can prune to one shard, and all-shard scatters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Keyed,
    Scatter,
}

/// One distinct request of a stream.
#[derive(Debug, Clone)]
pub struct Request {
    /// The Datalog text inside the body.
    pub query: String,
    /// `/cite_at` only.
    pub version: Option<u64>,
    pub class: Class,
    /// The JSON body.
    pub body: String,
    /// Head + body as sent by the untraced phases.
    pub wire: Vec<u8>,
}

/// A workload's request stream for one seed.
#[derive(Debug, Clone)]
pub struct Stream {
    pub workload: Workload,
    /// The distinct requests.
    pub pool: Vec<Request>,
    /// Indices into `pool`, in send order.
    pub order: Vec<u32>,
}

fn quoted(text: &str) -> String {
    format!("{text:?}")
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The body of `request` with `"stages": true` added — what the traced
/// pass sends where the route accepts it.
pub fn body_with_stages(request: &Request) -> String {
    format!(
        "{{\"query\": {}, \"stages\": true}}",
        json_string(&request.query)
    )
}

struct Builder {
    workload: Workload,
    pool: Vec<Request>,
    index: HashMap<(String, Option<u64>), u32>,
    order: Vec<u32>,
}

impl Builder {
    fn push(&mut self, query: String, version: Option<u64>, class: Class) {
        let next = self.pool.len() as u32;
        let path = self.workload.path();
        let pool = &mut self.pool;
        let id = *self
            .index
            .entry((query.clone(), version))
            .or_insert_with(|| {
                let body = match version {
                    Some(v) => format!("{{\"query\": {}, \"version\": {v}}}", json_string(&query)),
                    None => format!("{{\"query\": {}}}", json_string(&query)),
                };
                let mut wire = Vec::new();
                render_request(path, &[], &body, &mut wire);
                pool.push(Request {
                    query,
                    version,
                    class,
                    body,
                    wire,
                });
                next
            });
        self.order.push(id);
    }
}

/// Build the first `len` requests of the stream of `workload` for
/// `seed` over the generated instance (family ids and types are read
/// from the data, not assumed).
pub fn build(workload: Workload, seed: u64, db: &Database, len: usize) -> Stream {
    let family = db.relation("Family").expect("generated schema has Family");
    let mut family_ids: Vec<String> = family.iter().map(|row| row[0].to_string()).collect();
    let types: Vec<String> = fgc_gtopdb::present_types(db)
        .iter()
        .map(|t| t.to_string())
        .collect();

    let mut rng = Rng::new(seed ^ hash64(workload.name().as_bytes()));
    // which families are hot differs by seed
    rng.shuffle(&mut family_ids);
    let zipf = Zipf::new(family_ids.len(), 1.0);
    let keyed = |template: &str, rng: &mut Rng| {
        template.replace("{FID}", &quoted(&family_ids[zipf.sample(rng)]))
    };

    let mut b = Builder {
        workload,
        pool: Vec::new(),
        index: HashMap::new(),
        order: Vec::with_capacity(len),
    };
    match workload {
        Workload::Lookup => {
            for _ in 0..len {
                let template = if rng.below(4) < 3 {
                    FAMILY_PAGE
                } else {
                    INTRO_PAGE
                };
                b.push(keyed(template, &mut rng), None, Class::Keyed);
            }
        }
        Workload::Adhoc => {
            let excluded: Vec<String> = (0..ADHOC_VARIANTS)
                .map(|_| quoted(&family_ids[rng.below(family_ids.len())]))
                .collect();
            // Stratified: every run of 36 requests holds each (template,
            // type) once, in shuffled order. The cheapest cell costs a
            // tenth of the dearest, so an independent draw per request
            // would make a window's mix — not the program — set its
            // throughput, differently for every seed.
            let mut cells: Vec<(usize, usize)> = (0..ADHOC_TEMPLATES.len())
                .flat_map(|template| (0..types.len()).map(move |ty| (template, ty)))
                .collect();
            while b.order.len() < len {
                rng.shuffle(&mut cells);
                for &(template, ty) in cells.iter().take(len - b.order.len()) {
                    let query = ADHOC_TEMPLATES[template]
                        .replace("{TYPE}", &quoted(&types[ty]))
                        .replace("{FID}", &excluded[rng.below(excluded.len())]);
                    b.push(query, None, Class::Scatter);
                }
            }
        }
        Workload::Versioned => {
            let head = COMMITS as u64;
            for _ in 0..len {
                let version = if rng.below(10) < 7 {
                    head - rng.below(HOT_VERSIONS as usize) as u64
                } else {
                    rng.below(COMMITS + 1) as u64
                };
                let template = if rng.below(2) == 0 {
                    FAMILY_PAGE
                } else {
                    CONTRIBUTORS
                };
                b.push(keyed(template, &mut rng), Some(version), Class::Keyed);
            }
        }
        Workload::Dist => {
            // Stratified like `adhoc`: every run of 90 requests holds 81
            // keyed lookups and one type join per type, shuffled.
            let mut slots: Vec<Option<usize>> = (0..types.len())
                .map(Some)
                .chain(std::iter::repeat_n(None, 9 * types.len()))
                .collect();
            while b.order.len() < len {
                rng.shuffle(&mut slots);
                for &slot in slots.iter().take(len - b.order.len()) {
                    match slot {
                        Some(ty) => {
                            let query = TYPE_JOIN.replace("{TYPE}", &quoted(&types[ty]));
                            b.push(query, None, Class::Scatter);
                        }
                        None => {
                            let template = if rng.below(4) < 3 {
                                FAMILY_PAGE
                            } else {
                                INTRO_PAGE
                            };
                            b.push(keyed(template, &mut rng), None, Class::Keyed);
                        }
                    }
                }
            }
        }
    }
    Stream {
        workload,
        pool: b.pool,
        order: b.order,
    }
}

impl Stream {
    /// The request at stream position `position` (wrapping).
    pub fn at(&self, position: usize) -> (usize, &Request) {
        let id = self.order[position % self.order.len()] as usize;
        (id, &self.pool[id])
    }

    /// A fingerprint of every byte the stream sends, in order.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = 0u64;
        for &id in &self.order {
            acc = hash64(&self.pool[id as usize].wire)
                ^ acc.rotate_left(17).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgc_gtopdb::{generate, GeneratorConfig};

    fn db() -> Database {
        generate(&GeneratorConfig::default())
    }

    #[test]
    fn a_seed_names_one_stream() {
        let db = db();
        for workload in Workload::ALL {
            let a = build(workload, 1, &db, STREAM_LEN);
            let b = build(workload, 1, &db, STREAM_LEN);
            let c = build(workload, 2, &db, STREAM_LEN);
            assert_eq!(a.order.len(), STREAM_LEN);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", workload.name());
            assert_ne!(a.fingerprint(), c.fingerprint(), "{}", workload.name());
        }
    }

    #[test]
    fn every_request_parses_and_bodies_are_json_objects() {
        let db = db();
        for workload in Workload::ALL {
            let stream = build(workload, 3, &db, STREAM_LEN);
            for request in &stream.pool {
                fgc_query::parse_query(&request.query)
                    .unwrap_or_else(|e| panic!("{}: {e}", request.query));
                for body in [request.body.clone(), body_with_stages(request)] {
                    let parsed = fgc_server::parse_json(&body).expect("body is JSON");
                    assert!(
                        matches!(parsed.get("query"), Some(fgc_views::Json::Str(q)) if *q == request.query)
                    );
                }
                assert!(request.wire.ends_with(request.body.as_bytes()));
            }
        }
    }

    #[test]
    fn mixes_have_the_stated_shape() {
        let db = db();
        let adhoc = build(Workload::Adhoc, 1, &db, STREAM_LEN);
        assert!(
            adhoc.pool.len() > 500 && adhoc.pool.len() <= 576,
            "{}",
            adhoc.pool.len()
        );

        let versioned = build(Workload::Versioned, 1, &db, STREAM_LEN);
        let hot = versioned
            .order
            .iter()
            .filter(|&&id| {
                versioned.pool[id as usize].version.unwrap() > COMMITS as u64 - HOT_VERSIONS
            })
            .count() as f64
            / STREAM_LEN as f64;
        assert!((0.68..0.74).contains(&hot), "hot share {hot}");
        let mut versions: Vec<u64> = versioned.pool.iter().map(|r| r.version.unwrap()).collect();
        versions.sort_unstable();
        versions.dedup();
        assert!(versions.len() > 250, "{} versions touched", versions.len());

        let dist = build(Workload::Dist, 1, &db, STREAM_LEN);
        let scatter = dist
            .order
            .iter()
            .filter(|&&id| dist.pool[id as usize].class == Class::Scatter)
            .count() as f64
            / STREAM_LEN as f64;
        assert!((0.08..0.12).contains(&scatter), "scatter share {scatter}");
    }
}
